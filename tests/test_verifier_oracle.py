"""The verifier against the per-power loop verifier it replaced.

``verifier_oracle.verify`` builds every power by repeated multiplication and
one fixed subspace per power, and tests every point and edge numerically;
``bipsym.verify`` makes M^r and M^d for each proper divisor d of the order
by repeated squaring, and reads which points and edges each M^d fixes or
interchanges from the cycle lengths of π, the point permutation, once
unit_norm, orthogonal, order and induces have established it.  Where π is
established, their certificates must serialize to the same bytes, passing
or failing, once the oracle's per-power eel2, eel3 and eel4 findings are
folded into one entry per divisor and its early identity kept only at a
divisor of the order (``fold_by_divisor``), except that the measured values
of ``order`` and ``eel1``, which come from the powers, may differ by
rounding (``assert_same_numbers``).  Where it is not, as on tampered
matrices whose claimed order is not theirs or with a tolerance comparable
to the distances between points, eel1-eel4 fail on one detail naming the
reason (``assert_not_established``), the oracle's certificate fails too,
and every other check must agree.
"""

import dataclasses
import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bipsym.verifier
from bipsym import (
    BipartiteShape,
    Isometry4,
    Orientation,
    VertexId,
    classify_aut,
    enumerate_automorphisms,
    improper_isometry,
    parse_cycles,
    realize,
    verify,
)
from bipsym.geometry import IDENTITY_GAP, SUBSPACE_TOL
from bipsym.jsonio import canonical_json, certificate_to_obj
from bipsym.verifier import RealizationCertificate, _gcd_counts, fixed_subspace

import verifier_oracle
from automorphism_ops import identity_automorphism
from census_oracle import _partitions
from labelled import coordinates_of, embedding_from_labels, subdivision_edges_of

TOL = 1e-9
K89_ORDER_72 = "(v1 v2 v3 v4 v5 v6 v7 v8)(w1 w2 w3 w4 w5 w6 w7 w8 w9)"


def vid(label):
    return VertexId.from_label(label)


def row(emb, label):
    """The row of ``emb.points`` that holds vertex ``label``."""
    return emb.shape.global_index(vid(label))


def without_subdivision(emb):
    return dataclasses.replace(
        emb, points=emb.points[: emb.shape.size], subdivision_ids=(), subdivision_pairs=()
    )


EARLY = re.compile(r"; M\^(\d+) is already the identity$")
GAP = f"; more than the identity gap {IDENTITY_GAP:g}"


def fold_order(check: dict, r: int, tol: float) -> dict:
    """The oracle's order ``check`` of claimed order ``r`` at ``tol``,
    without its early identity M^e when e does not divide r, and failing
    with GAP when |M^r - I| lies between IDENTITY_GAP and ``tol``.

    The oracle names the first power e < r within IDENTITY_GAP of I,
    ``bipsym.verify`` the first such power at a proper divisor of r.  They
    differ only when e does not divide r; then |M^r - I| is more than
    IDENTITY_GAP (bipsym.verifier's module docstring), which the oracle
    passes up to ``tol`` and ``bipsym.verify`` fails.
    """
    early = EARLY.search(check["detail"])
    if early and r % int(early[1]):
        check["detail"] = check["detail"][: early.start()]
    measured = check["measured"]
    if not isinstance(measured, str) and IDENTITY_GAP < measured <= tol:
        check["pass"] = False
        check["detail"] += GAP
    return check


# a finding of the oracle's eel2, eel3 or eel4 detail and its power i
FINDING = {
    "eel2": re.compile(r"(?:^|; )M\^(\d+) (?=interchanges )"),
    "eel3": re.compile(r"(?:^|; )power (\d+): "),
    "eel4": re.compile(r"(?:^|; )power (\d+): "),
}


def oracle_findings(check: dict) -> dict[int, list[str]]:
    """The findings of the oracle's failing eel2, eel3 or eel4 ``check``,
    each power i to its findings in order: "interchanges a,b" for eel2."""
    parts = FINDING[check["name"]].split(check["detail"])[1:]
    found: dict[int, list[str]] = {}
    for i, text in zip(parts[::2], parts[1::2]):
        found.setdefault(int(i), []).append(text)
    return found


def fold_check(check: dict, r: int) -> dict:
    """The oracle's failing eel2, eel3 or eel4 ``check`` of claimed order
    ``r`` with each finding listed once per d = gcd(i, r) of its powers i,
    in ascending d, as ``c powers i with gcd(i, r) = d: text``, c the number
    of powers i < r with that gcd.  The measured value already counts every
    power and is kept.  Raises ValueError when a power's findings differ
    from those of d, its gcd with r, one of them having none.
    """
    found = oracle_findings(check)
    for i in range(1, r):
        d = math.gcd(i, r)
        if found.get(i, []) != found.get(d, []):
            raise ValueError(
                f"{check['name']}: powers {d} and {i} have gcd {d} with {r} "
                "but different findings"
            )
    counts = Counter(math.gcd(i, r) for i in range(1, r))
    check["detail"] = "; ".join(
        f"{c} powers i with gcd(i, {r}) = {d}: {text}"
        for d, c in sorted(counts.items())
        for text in found.get(d, [])
    )
    return check


def fold_by_divisor(obj: dict, r: int, tol: float = TOL) -> dict:
    """The oracle's certificate object ``obj`` of claimed order ``r`` at
    ``tol``, with its order check folded by ``fold_order`` and each failing
    eel2, eel3 and eel4 detail by ``fold_check`` into the form
    ``bipsym.verify`` reports: the powers with one gcd d = gcd(i, r) share
    their findings (bipsym.verifier's module docstring).  Raises ValueError
    where they do not.
    """
    for check in obj["checks"]:
        if check["name"] == "order":
            fold_order(check, r, tol)
        if check["name"] in FINDING and not check["pass"]:
            fold_check(check, r)
    return obj


# the checks π rests on, and those that read π once it is established
PRIOR = ("unit_norm", "orthogonal", "order", "induces")
EELS = ("eel1", "eel2", "eel3", "eel4")
NOT_ESTABLISHED = "pi not established: "


def established(got: dict) -> bool:
    """Whether ``bipsym.verify``'s certificate object ``got`` has π
    established; where it does not, ``assert_not_established`` holds."""
    eel1 = next(c for c in got["checks"] if c["name"] == "eel1")
    if not eel1["detail"].startswith(NOT_ESTABLISHED):
        return True
    assert_not_established(got)
    return False


def assert_not_established(got: dict) -> None:
    """eel1-eel4 of ``got`` fail on one detail with no measured value,
    naming the checks of PRIOR that failed, or, where all passed, a
    π-cycle whose length does not divide the order or the drift."""
    eels = [c for c in got["checks"] if c["name"] in EELS]
    assert [(c["pass"], c["measured"]) for c in eels] == [(False, None)] * 4
    assert len({c["detail"] for c in eels}) == 1
    failed = [c["name"] for c in got["checks"] if c["name"] in PRIOR and not c["pass"]]
    reason = eels[0]["detail"].removeprefix(NOT_ESTABLISHED)
    if failed:
        assert reason == f"{', '.join(failed)} failed"
    else:
        assert re.fullmatch(
            r"pi\^\d+ moves \w+, in a cycle of length \d+"
            r"|tol \+ drift \S+ >= min separation \S+",
            reason,
        ), reason


def assert_same_eel2(got: dict, want: dict, r: int) -> None:
    """The eel2 checks of ``bipsym.verify``'s certificate object ``got`` and
    the oracle's ``want``, of claimed order ``r``, where π is established:
    the oracle's hits fold by gcd, and the two checks are the same bytes,
    measured value included."""
    if not established(got):
        return
    g, w = (next(c for c in obj["checks"] if c["name"] == "eel2") for obj in (got, want))
    folded = w if w["pass"] else fold_check(dict(w), r)
    assert canonical_json(g) == canonical_json(folded)


# the checks whose measured values are read off computed powers of M:
# |M^r - I|, and the largest distance between fixed subspaces
POWER_NUMBERS = ("order", "eel1")
POWER_ROUNDING = 1e-13


def masked(detail: str) -> str:
    """``detail`` with each measured number, after "= " or "within ", as #."""
    return re.sub(r"(= |within )[^;]*", r"\1#", detail)


def assert_same_numbers(got: dict, want: dict) -> None:
    """Two serialized checks that agree but for the rounding of the powers:
    the same name, pass and detail once numbers are masked, and measured
    values within POWER_ROUNDING (non-finite ones equal)."""
    assert (got["name"], got["pass"], masked(got["detail"])) == (
        want["name"], want["pass"], masked(want["detail"])
    )
    g, w = got["measured"], want["measured"]
    if isinstance(g, str) or isinstance(w, str):
        assert g == w
    else:
        assert abs(g - w) <= POWER_ROUNDING, (got, want)


def assert_same_certificate(aut, iso, emb, tol=TOL):
    r = iso.claimed_order
    cert = verify(aut, iso, emb, tol=tol)
    got = certificate_to_obj(cert)
    want = certificate_to_obj(verifier_oracle.verify(aut, iso, emb, tol=tol))
    assert got["overall"] is want["overall"]
    assert [c["name"] for c in got["checks"]] == [c["name"] for c in want["checks"]]
    assert_same_eel2(got, want, r)
    for g, w in zip(got["checks"], want["checks"]):
        if g["name"] == "eel2" or g["name"] in EELS and not established(got):
            continue
        if g["name"] == "order":
            fold_order(w, r, tol)
        elif g["name"] in FINDING and not w["pass"]:
            fold_check(w, r)
        if g["name"] in POWER_NUMBERS:
            assert_same_numbers(g, w)
        else:
            assert canonical_json(g) == canonical_json(w)
    return cert


def realizations(aut, seed):
    verdict = classify_aut(aut)
    for orientation, ok in (("op", verdict.op_realizable), ("or", verdict.or_realizable)):
        if ok:
            yield (aut, *realize(aut, orientation, seed))


def class_conjugates(n, m, rng):
    """One random member of every cycle-type class of Aut(K_{n,m})."""
    vs, ws = [f"v{i}" for i in range(1, n + 1)], [f"w{j}" for j in range(1, m + 1)]
    classes = [(lam, mu) for lam in _partitions(n) for mu in _partitions(m)]
    if n == m:
        classes += [(lam, None) for lam in _partitions(n)]
    for lam, mu in classes:
        rng.shuffle(vs)
        rng.shuffle(ws)
        cycles = []
        if mu is None:  # part-swapping: one mixed 2k-cycle per part k of lam
            pos = 0
            for k in lam:
                cycles.append([x for j in range(pos, pos + k) for x in (vs[j], ws[j])])
                pos += k
        else:
            for labels, sizes in ((vs, lam), (ws, mu)):
                pos = 0
                for k in sizes:
                    if k > 1:
                        cycles.append(labels[pos : pos + k])
                    pos += k
        text = "".join("(" + " ".join(c) + ")" for c in cycles) or "()"
        yield parse_cycles(BipartiteShape(n, m), text)


@pytest.mark.parametrize("n,m", [(3, 3), (3, 4), (4, 3), (4, 4)])
def test_every_realizable_pair(n, m):
    for aut in enumerate_automorphisms(BipartiteShape(n, m)):
        for triple in realizations(aut, 1):
            assert assert_same_certificate(*triple).overall


def test_one_conjugate_per_class_up_to_k99():
    rng = random.Random(20)
    orders = set()
    for n in range(3, 10):
        for m in range(n, 10):
            for aut in class_conjugates(n, m, rng):
                for triple in realizations(aut, rng.randrange(1, 1 << 16)):
                    assert assert_same_certificate(*triple).overall
                    orders.add(triple[1].claimed_order)
    assert max(orders) == 72


def test_class_conjugates_cover_every_class():
    # p(4)^2 part-preserving classes plus p(4) part-swapping ones
    assert len(list(class_conjugates(4, 4, random.Random(0)))) == 5 * 5 + 5


# --- tampered triples: each fails a check, and both verifiers agree -----------


def realized(shape, text, orientation):
    aut = parse_cycles(shape, text)
    return (aut, *realize(aut, orientation, seed=1))


def failing(aut, iso, emb, check):
    cert = assert_same_certificate(aut, iso, emb)
    assert not cert.check(check).passed
    assert not cert.overall


def test_perturbed_coordinate():
    aut, iso, emb = realized(BipartiteShape(3, 3), "(v1 v2 v3)(w1 w2 w3)", "op")
    p = coordinates_of(emb)[vid("v1")].copy()
    p[0] += 10 * TOL
    emb.points[row(emb, "v1")] = p
    failing(aut, iso, emb, "induces")


def test_swapped_images():
    aut, iso, emb = realized(BipartiteShape(3, 3), "(v1 v2 v3)(w1 w2 w3)", "op")
    a, b = row(emb, "v1"), row(emb, "v2")
    emb.points[[a, b]] = emb.points[[b, a]]
    failing(aut, iso, emb, "induces")


def claiming(iso, times):
    """The same matrix with its claimed order multiplied by ``times``."""
    return Isometry4(iso.matrix, times * iso.claimed_order, iso.orientation)


# a claimed order 3x the true one fails order, so eel4 fails as π is not
# established, and the oracle, which finds the reflection at powers 1, 3 and
# 5 of r = 6, fails too
@pytest.mark.parametrize("times", [1, 3])
def test_point_off_the_sphere(times):
    aut, iso, emb = realized(BipartiteShape(3, 4), "(w3 w4)", "or")
    iso = claiming(iso, times)
    p = coordinates_of(emb)[vid("v1")] + np.array([0.0, 0.0, 0.0, 0.4])
    emb.points[row(emb, "v1")] = p / np.linalg.norm(p)
    failing(aut, iso, emb, "eel4")
    emb.points[row(emb, "w1")] = coordinates_of(emb)[vid("w1")] * (1 + 1e-8)
    failing(aut, iso, emb, "unit_norm")


def test_flipped_orientation():
    aut, iso, emb = realized(BipartiteShape(3, 4), "(w3 w4)", "or")
    flipped = Isometry4(iso.matrix, iso.claimed_order, Orientation.OP)
    failing(aut, flipped, emb, "orientation")


@pytest.mark.parametrize(
    "shape,text,orientation",
    [
        ((3, 3), "(v1 v2 v3)(w1 w2 w3)", "op"),
        ((4, 4), "(v1 w1)(v2 w2)(v3 w3 v4 w4)", "or"),
        ((8, 9), K89_ORDER_72, "op"),
    ],
)
def test_claimed_order_twice_the_true_one(shape, text, orientation):
    aut, iso, emb = realized(BipartiteShape(*shape), text, orientation)
    failing(aut, claiming(iso, 2), emb, "order")


def test_inverted_edges_without_subdivision():
    aut, iso, emb = realized(BipartiteShape(3, 3), "(v1 w1 v2 w2 v3 w3)", "op")
    failing(aut, iso, without_subdivision(emb), "eel2")


def test_claimed_order_a_multiple_changes_only_subspace_noise():
    # M^3 and M^6 both equal I up to rounding; the loop version compares
    # their two noisy SVD bases in eel1.  The order check fails at M^3, so
    # π is not established and eel1-eel4 compare no subspaces at all
    aut, iso, emb = realized(BipartiteShape(3, 3), "(v1 v2 v3)(w1 w2 w3)", "op")
    tripled = claiming(iso, 3)
    got = certificate_to_obj(verify(aut, tripled, emb, tol=TOL))
    want = fold_by_divisor(
        certificate_to_obj(verifier_oracle.verify(aut, tripled, emb, tol=TOL)), 9
    )
    assert got["overall"] is want["overall"] is False
    assert not established(got)
    for g, w in zip(got["checks"], want["checks"]):
        if g["name"] in EELS:
            assert g["detail"] == "pi not established: order failed"
        elif g["name"] == "order":
            assert_same_numbers(g, w)
            assert g["detail"].endswith("; M^3 is already the identity")
        else:
            assert g == w
    eel1 = next(w for w in want["checks"] if w["name"] == "eel1")
    assert eel1["pass"] and eel1["measured"] <= SUBSPACE_TOL


def test_subdivision_set_not_closed():
    aut, iso, emb = realized(BipartiteShape(3, 3), "(v1 w1 v2 w2 v3 w3)", "op")
    assert subdivision_edges_of(emb)
    z = sorted(subdivision_edges_of(emb))[0]
    v, _ = subdivision_edges_of(emb)[z]
    free = next(
        (v, w)
        for w in (vid("w1"), vid("w2"), vid("w3"))
        if (v, w) not in subdivision_edges_of(emb).values()
    )
    pairs = dict(zip(emb.subdivision_ids, emb.subdivision_pairs))
    pairs[z] = tuple(map(emb.shape.global_index, free))
    emb.subdivision_pairs = tuple(pairs.values())
    failing(aut, iso, emb, "induces")


@pytest.mark.parametrize("times", [1, 3])
def test_adjacent_pair_on_two_point_fixed_set(times):
    shape = BipartiteShape(3, 3)
    aut = parse_cycles(shape, "(v2 v3)(w2 w3)")
    iso = claiming(improper_isometry(Fraction(1, 2), 2), times)
    coords = {
        vid("v1"): np.array([0.0, 0.0, 1.0, 0.0]),
        vid("w1"): np.array([0.0, 0.0, -1.0, 0.0]),
    }
    for label, partner, p in (
        ("v2", "v3", np.array([0.6, 0.0, 0.48, 0.64])),
        ("w2", "w3", np.array([0.0, 0.6, -0.48, 0.64])),
    ):
        coords[vid(label)] = p
        coords[vid(partner)] = iso.matrix @ p
    emb = embedding_from_labels(shape, coords)
    failing(aut, iso, emb, "eel3")


def test_fixed_set_that_grows_fails_eel1():
    # [1] + [-1] + R(2π/3), order 6: M fixes ±e1, where v1 and w1 sit, M^2 the
    # circle of the first plane and M^3 a sphere.  The edge (v1, w1) is
    # fixed by every power, first by M, whose two points differ from the
    # fixed sets of M^2 and M^4 (gcd 2) and of M^3: three powers.  The
    # 2-cycles (v2 v3) and (w2 w3) lie on that circle, three of a part
    shape = BipartiteShape(3, 3)
    aut = parse_cycles(shape, "(v2 v3)(w2 w3)")
    M = np.zeros((4, 4))
    M[0, 0], M[1, 1] = 1.0, -1.0
    M[2:, 2:] = rotation(Fraction(1, 3))
    iso = Isometry4(M, 6, Orientation.OR)
    coords = {vid("v1"): np.array([1.0, 0.0, 0.0, 0.0]), vid("w1"): np.array([-1.0, 0.0, 0.0, 0.0])}
    for a, b, p in (("v2", "v3", [0.6, 0.8, 0.0, 0.0]), ("w2", "w3", [-0.8, 0.6, 0.0, 0.0])):
        coords[vid(a)] = np.array(p)
        coords[vid(b)] = M @ coords[vid(a)]
    cert = assert_same_certificate(aut, iso, embedding_from_labels(shape, coords))
    assert established(certificate_to_obj(cert))
    eel1 = cert.check("eel1")
    assert (eel1.passed, eel1.detail) == (False, "3 co-fixed adjacent pairs with different fixed sets")
    assert cert.check("eel3").detail == (
        "2 powers i with gcd(i, 6) = 1: adjacent pair fixed by a power whose fixed set contains no "
        "arcs; 2 powers i with gcd(i, 6) = 2: 3+3 vertices of a part on circle"
    )


def test_three_vertices_of_one_part_on_a_fixed_circle_fail_eel3():
    # -I on the first plane and I on the second: the circle x1 = x2 = 0 holds
    # all of V and w1, w2, and M swaps w3, w4 across the other circle
    shape = BipartiteShape(3, 4)
    aut = parse_cycles(shape, "(w3 w4)")
    M = np.diag([-1.0, -1.0, 1.0, 1.0])
    coords = {
        vid(label): np.array([0.0, 0.0, math.cos(a), math.sin(a)])
        for label, a in zip(["v1", "v2", "v3", "w1", "w2"], np.arange(5) * 2 * np.pi / 5)
    }
    coords[vid("w3")] = np.array([1.0, 0.0, 0.0, 0.0])
    coords[vid("w4")] = np.array([-1.0, 0.0, 0.0, 0.0])
    cert = assert_same_certificate(aut, Isometry4(M, 2, Orientation.OP), embedding_from_labels(shape, coords))
    assert [c.name for c in cert.checks if not c.passed] == ["eel3"]
    assert cert.check("eel3").detail == "1 powers i with gcd(i, 2) = 1: 3+2 vertices of a part on circle"


# --- one fixed subspace per proper divisor of the order ----------------------


def count_fixed_subspace(monkeypatch):
    calls = []
    real = bipsym.verifier.fixed_subspace

    def counting(A, *args, **kwargs):
        calls.append(A)
        return real(A, *args, **kwargs)

    monkeypatch.setattr(bipsym.verifier, "fixed_subspace", counting)
    return calls


def test_order_72_takes_one_subspace_per_proper_divisor(monkeypatch):
    aut, iso, emb = realized(BipartiteShape(8, 9), K89_ORDER_72, "op")
    assert iso.claimed_order == 72
    calls = count_fixed_subspace(monkeypatch)
    assert verify(aut, iso, emb, tol=TOL).overall
    # 1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36
    assert len(calls) == 11


def test_order_1_takes_no_subspace(monkeypatch):
    aut = identity_automorphism(BipartiteShape(3, 3))
    iso, emb = realize(aut, "op", seed=1)
    assert iso.claimed_order == 1
    calls = count_fixed_subspace(monkeypatch)
    assert verify(aut, iso, emb, tol=TOL).overall
    assert calls == []


def on_the_fixed_circle(shape):
    """Every vertex of ``shape`` on the circle x1 = x2 = 0, evenly spaced."""
    angles = 2 * np.pi * np.arange(shape.size) / shape.size
    points = np.zeros((shape.size, 4))
    points[:, 2], points[:, 3] = np.cos(angles), np.sin(angles)
    return embedding_from_labels(shape, dict(zip(shape.vertices(), points)))


def turning_the_first_plane(r: int) -> Isometry4:
    """R(2π/r) on the plane x3 = x4 = 0, the identity on the other: order r,
    fixing the circle x1 = x2 = 0 pointwise."""
    M = np.eye(4)
    M[:2, :2] = rotation(Fraction(1, r))
    return Isometry4(M, r, Orientation.OP)


# verify makes M^r and M^d for the proper divisors d of r from one chain of
# squarings, each with the bits of np.linalg.matrix_power, its shortcuts at
# 2 and 3 included: the identity of K_{3,3} on the circle that a rotation of
# order r fixes establishes π at every r
@pytest.mark.parametrize("r", [1, 2, 3, 4, 7, 1024, 1025, 5040, 6144, 997_000])
def test_power_pass_finds_the_proper_divisors(monkeypatch, r):
    iso = turning_the_first_plane(r)
    emb = on_the_fixed_circle(IDENTITY_33.shape)
    subspaces = count_fixed_subspace(monkeypatch)
    cert = certificate_to_obj(verify(IDENTITY_33, iso, emb))
    assert established(cert)
    made = bipsym.verifier._check_isometry(iso, TOL)
    divisors = [d for d in range(1, r) if r % d == 0]
    assert made.divisors == divisors and made.early is None
    want = [np.linalg.matrix_power(iso.matrix, d).tobytes() for d in divisors]
    assert [D.tobytes() for D in made.at_divisors] == want
    # M^d is the fixed subspace's matrix, bit for bit
    assert [D.tobytes() for D in subspaces] == want
    order_dev = float(np.abs(np.linalg.matrix_power(iso.matrix, r) - np.eye(4)).max())
    assert repr(made.order_dev) == repr(order_dev)
    assert next(c for c in cert["checks"] if c["name"] == "order")["measured"] == order_dev


def oracle_detail(name, powers):
    return {"name": name, "pass": False, "measured": float(len(powers)),
            "detail": "; ".join(f"power {i}: {text}" for i, text in powers)}


def test_fold_by_divisor_counts_each_divisor_once():
    obj = {"checks": [
        oracle_detail("eel3", [(1, "a"), (1, "b"), (3, "c"), (5, "a"), (5, "b")]),
        oracle_detail("eel4", [(2, "x"), (4, "x")]),
    ]}
    fold_by_divisor(obj, 6)
    assert [c["detail"] for c in obj["checks"]] == [
        "2 powers i with gcd(i, 6) = 1: a; 2 powers i with gcd(i, 6) = 1: b; "
        "1 powers i with gcd(i, 6) = 3: c",
        "2 powers i with gcd(i, 6) = 2: x",
    ]
    assert [c["measured"] for c in obj["checks"]] == [5.0, 2.0]


@pytest.mark.parametrize("powers", [[(1, "a"), (5, "b")], [(1, "a")], [(5, "a")]])
def test_fold_by_divisor_refuses_disagreeing_powers(powers):
    with pytest.raises(ValueError, match="powers 1 and 5 have gcd 1 with 6"):
        fold_by_divisor({"checks": [oracle_detail("eel4", powers)]}, 6)


def oracle_eel2(hits):
    return {"name": "eel2", "pass": False, "measured": float(len(hits)),
            "detail": "; ".join(f"M^{i} interchanges {edge}" for i, edge in hits)}


def test_fold_by_divisor_folds_eel2():
    obj = {"checks": [oracle_eel2([(1, "v1,w1"), (3, "v1,w1"), (3, "v2,w3"), (5, "v1,w1")])]}
    fold_by_divisor(obj, 6)
    assert obj["checks"][0]["detail"] == (
        "2 powers i with gcd(i, 6) = 1: interchanges v1,w1; "
        "1 powers i with gcd(i, 6) = 3: interchanges v1,w1; "
        "1 powers i with gcd(i, 6) = 3: interchanges v2,w3"
    )
    assert obj["checks"][0]["measured"] == 4.0


@pytest.mark.parametrize("hits", [[(1, "v1,w1"), (5, "v2,w2")], [(5, "v1,w1")]])
def test_fold_by_divisor_refuses_disagreeing_eel2_powers(hits):
    with pytest.raises(ValueError, match="eel2: powers 1 and 5 have gcd 1 with 6"):
        fold_by_divisor({"checks": [oracle_eel2(hits)]}, 6)


# --- the powers below r counted by their gcd with r --------------------------


def assert_gcd_counts(r):
    counts = _gcd_counts(r)
    assert counts == Counter(math.gcd(i, r) for i in range(1, r))
    assert list(counts) == sorted(counts)
    assert sum(counts.values()) == r - 1


def test_gcd_counts_up_to_3000():
    assert _gcd_counts(1) == {}
    for r in range(1, 3001):
        assert_gcd_counts(r)


@pytest.mark.parametrize("r,proper", [(498_960, 199), (500_000, 41), (499_979, 1)])
def test_gcd_counts_at_large_orders(r, proper):
    # 498 960 = 2^4 3^4 5 7 11 has 200 divisors; 499 979 is prime
    assert len(_gcd_counts(r)) == proper
    assert_gcd_counts(r)


@pytest.mark.parametrize("r,proper", [(735_134_400, 1343), (999_999_937, 1), (2**29, 29)])
def test_gcd_counts_factor_orders_up_to_the_bound(r, proper):
    # 735 134 400 = 2^6 3^3 5^2 7 11 13 17 has 1344 divisors, the most below
    # MAX_CLAIMED_ORDER; 999 999 937 is the largest prime below it.  The
    # φ(r/d) of the divisors d > 1 of r sum to r - 1, the powers below r
    counts = _gcd_counts(r)
    assert len(counts) == proper
    assert list(counts) == sorted(counts) and all(r % d == 0 for d in counts)
    assert sum(counts.values()) == r - 1


# --- eel2: the pairs π interchanges, once π is established ------------------

# the checks that π rests on, with orientation: none reads a fixed set
NOT_FIXED_SET = ("unit_norm", "orthogonal", "order", "orientation", "induces")


def assert_same_checks(aut, iso, emb, tol):
    got = certificate_to_obj(verify(aut, iso, emb, tol=tol))
    want = certificate_to_obj(verifier_oracle.verify(aut, iso, emb, tol=tol))
    assert [c["name"] for c in got["checks"]] == [c["name"] for c in want["checks"]]
    if not established(got):
        assert want["overall"] is False
    assert_same_eel2(got, want, iso.claimed_order)
    for g, w in zip(got["checks"], want["checks"]):
        if g["name"] == "order":
            assert_same_numbers(g, fold_order(w, iso.claimed_order, tol))
        elif g["name"] in NOT_FIXED_SET:
            assert canonical_json(g) == canonical_json(w)
    return {c["name"]: c for c in got["checks"]}


def separation(emb) -> float:
    points = emb.points
    dists = np.linalg.norm(points[:, None] - points[None], axis=2)
    return float(dists[np.triu_indices(len(points), 1)].min())


@pytest.mark.parametrize("case", ["exact", "tol near separation", "step of sep/8"])
def test_inverted_edges_on_both_eel2_paths(case):
    # without subdivision, M^3 of the 6-cycle (v1 w1 v2 w2 v3 w3) inverts
    # the edges (v1, w2), (v2, w3) and (v3, w1), which π establishes.  A
    # tolerance a few ulps below the separation matches the same pairs, but
    # tol plus the drift no longer stays below the separation; and M moving
    # a point by an eighth of the separation fails induces.  Either way π is
    # not established, eel2 fails naming why, and the oracle fails too.
    aut, iso, emb = realized(BipartiteShape(3, 3), "(v1 w1 v2 w2 v3 w3)", "op")
    emb = without_subdivision(emb)
    sep = separation(emb)
    tol = sep - 1e-15 if case == "tol near separation" else TOL
    if case == "step of sep/8":
        p = coordinates_of(emb)[vid("v1")] + np.array([0.0, 0.0, 0.0, sep / 8])
        emb.points[row(emb, "v1")] = p / np.linalg.norm(p)
    checks = assert_same_checks(aut, iso, emb, tol)
    eel2 = checks["eel2"]
    if case == "exact":
        assert eel2["detail"] == "; ".join(
            f"1 powers i with gcd(i, 6) = 3: interchanges {edge}"
            for edge in ["v1,w2", "v2,w3", "v3,w1"]
        )
        assert eel2["measured"] == 3
    elif case == "tol near separation":
        assert re.fullmatch(rf"pi not established: tol \+ drift \S+ >= min separation {sep:.3g}",
                            eel2["detail"])
    else:
        assert eel2["detail"] == "pi not established: induces failed"


def test_inversions_from_two_cycle_lengths_in_power_order():
    # π = (v1 w1)(v2 w2 v3 w3 v4 w4), realized exactly by R(1/2) + R(1/6) on
    # points of the two coordinate planes: the 2-cycle inverts (v1, w1) at
    # powers 1, 3 and 5, the 6-cycle three edges at power 3; powers 1 and 5
    # fold into d = 1, and the six hits count in the measured value
    shape = BipartiteShape(4, 4)
    aut = parse_cycles(shape, "(v1 w1)(v2 w2 v3 w3 v4 w4)")
    coords = {vid("v1"): np.array([1.0, 0.0, 0.0, 0.0]), vid("w1"): np.array([-1.0, 0.0, 0.0, 0.0])}
    for k, label in enumerate(["v2", "w2", "v3", "w3", "v4", "w4"]):
        a = 2 * np.pi * k / 6
        coords[vid(label)] = np.array([0.0, 0.0, np.cos(a), np.sin(a)])
    M = np.zeros((4, 4))
    M[:2, :2] = -np.eye(2)
    M[2:, 2:] = [[np.cos(np.pi / 3), -np.sin(np.pi / 3)], [np.sin(np.pi / 3), np.cos(np.pi / 3)]]
    iso = Isometry4(M, 6, Orientation.OP)
    emb = embedding_from_labels(shape, coords)
    checks = assert_same_checks(aut, iso, emb, TOL)
    assert checks["eel2"]["detail"] == "; ".join(
        f"{c} powers i with gcd(i, 6) = {d}: interchanges {a},{b}"
        for c, d, a, b in [(2, 1, "v1", "w1"), (1, 3, "v1", "w1"), (1, 3, "v2", "w3"),
                           (1, 3, "v3", "w4"), (1, 3, "v4", "w2")]
    )
    assert checks["eel2"]["measured"] == 6


def check_obj(check) -> dict:
    """One serialized check, as it appears in a certificate object."""
    return certificate_to_obj(RealizationCertificate((check,)))["checks"][0]


def test_eel2_folds_on_every_class_without_subdivision():
    # every realizable class of K_{n,n}, 3 <= n <= 6, realized exactly with
    # its subdivision vertices dropped, so that powers of π may invert
    # edges: at its own order, verify's eel2 is the oracle's folded by
    # divisor, byte for byte, and no oracle finding fails to fold; claiming
    # 2 or 3 times its order fails order, so eel2 fails as π is not
    # established
    rng = random.Random(30)
    cases = failing = unestablished = 0
    for n in range(3, 7):
        for aut in class_conjugates(n, n, rng):
            for _, iso, emb in realizations(aut, rng.randrange(1, 1 << 16)):
                emb = without_subdivision(emb)
                for times in (1, 2, 3):
                    claimed = claiming(iso, times)
                    r = claimed.claimed_order
                    got = check_obj(verify(aut, claimed, emb, tol=TOL).check("eel2"))
                    if times > 1:
                        assert got["detail"] == "pi not established: order failed"
                        unestablished += 1
                        continue
                    dense = verifier_oracle._Verification(aut, claimed, emb, TOL)
                    want = check_obj(verifier_oracle._check_eel2(dense, r))
                    if not want["pass"]:
                        fold_check(want, r)
                    assert canonical_json(got) == canonical_json(want)
                    cases += 1
                    failing += not got["pass"]
    assert (cases, failing, unestablished) == (113, 13, 226)


TAMPER_CASES = [
    ((3, 3), "(v1 w1 v2 w2 v3 w3)"),
    ((3, 3), "(v1 v2 v3)(w1 w2 w3)"),
    ((3, 4), "(w3 w4)"),
    ((4, 4), "(v1 w1)(v2 w2)(v3 w3 v4 w4)"),
    ((4, 4), "(v1 w1 v2 w2)(v3 w3 v4 w4)"),
]


@st.composite
def tampered_realizations(draw):
    """A realization whose matrix may be composed with the reflection that
    swaps two of its points, claiming 2-5 times its true order."""
    shape, text = draw(st.sampled_from(TAMPER_CASES))
    aut = parse_cycles(BipartiteShape(*shape), text)
    verdict = classify_aut(aut)
    orientations = [o for o, ok in (("op", verdict.op_realizable), ("or", verdict.or_realizable)) if ok]
    iso, emb = realize(aut, draw(st.sampled_from(orientations)), draw(st.integers(1, 1 << 16)))
    points = emb.points
    i, j = draw(st.lists(st.integers(0, len(points) - 1), min_size=2, max_size=2, unique=True))
    u = (points[i] - points[j]) / np.linalg.norm(points[i] - points[j])
    swap = np.eye(4) - 2 * np.outer(u, u)
    M = draw(st.sampled_from([iso.matrix, swap @ iso.matrix, iso.matrix @ swap]))
    times = draw(st.integers(2, 5))
    tol = draw(st.sampled_from([1e-3, 0.5]))
    return aut, Isometry4(M, times * iso.claimed_order, iso.orientation), emb, tol


@settings(max_examples=200, deadline=None)
@given(case=tampered_realizations())
def test_tampered_realizations_agree_with_the_oracle(case):
    aut, iso, emb, tol = case
    assert_same_checks(aut, iso, emb, tol)


@settings(max_examples=200, deadline=None)
@given(case=tampered_realizations())
def test_not_established_fails_the_oracle_too(case):
    # wherever verify finds π not established, and so reads no fixed set,
    # the per-power oracle, which tests every power, fails the triple too
    aut, iso, emb, tol = case
    if not established(certificate_to_obj(verify(aut, iso, emb, tol=tol))):
        assert not verifier_oracle.verify(aut, iso, emb, tol=tol).overall


def test_early_identity_off_the_divisors_is_folded():
    # the reflection of (w3 w4) claiming order 9: the oracle finds M^2 = I,
    # verify looks only at the proper divisors 1 and 3, both reflections
    aut, iso, emb = realized(BipartiteShape(3, 4), "(w3 w4)", "or")
    iso = Isometry4(iso.matrix, 9, iso.orientation)
    dense = certificate_to_obj(verifier_oracle.verify(aut, iso, emb, tol=TOL))["checks"][2]
    assert dense["detail"].endswith("; M^2 is already the identity")
    checks = assert_same_checks(aut, iso, emb, TOL)
    assert not checks["order"]["pass"]
    assert "already" not in checks["order"]["detail"]


# --- repeated squaring against the dense powers on rational normal forms -----


def rotation(t: Fraction) -> np.ndarray:
    c, s = math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)
    return np.array([[c, -s], [s, c]])


TURNS = st.builds(
    lambda den, num: Fraction(num % den, den), st.integers(1, 60), st.integers(0, 59)
)


@st.composite
def normal_forms(draw):
    """Q (R(2πa) ⊕ B) Qᵀ with B = R(2πb) or diag(1, -1), the turns a and b
    of denominator at most 60, Q a random orthogonal matrix, and a claimed
    order up to 360: a multiple of the true order or any order."""
    a = draw(TURNS)
    reflect = draw(st.booleans())
    M = np.zeros((4, 4))
    M[:2, :2] = rotation(a)
    if reflect:
        M[2:, 2:] = np.diag([1.0, -1.0])
        true = math.lcm(a.denominator, 2)
    else:
        b = draw(TURNS)
        M[2:, 2:] = rotation(b)
        true = math.lcm(a.denominator, b.denominator)
    rng = np.random.default_rng(draw(st.integers(0, 1 << 32)))
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    multiples = list(range(true, 361, true))
    if multiples and draw(st.booleans()):
        r = draw(st.sampled_from(multiples))
    else:
        r = draw(st.integers(1, 360))
    orientation = Orientation.OR if reflect else Orientation.OP
    tol = draw(st.sampled_from([TOL, 1e-3, 0.5]))
    return Isometry4(Q @ M @ Q.T, r, orientation), true, tol


IDENTITY_33 = identity_automorphism(BipartiteShape(3, 3))
IDENTITY_33_EMBEDDING = realize(IDENTITY_33, "op", seed=1)[1]


@settings(max_examples=150, deadline=None)
@given(case=normal_forms())
def test_squaring_agrees_with_the_dense_powers(case):
    iso, true, tol = case
    r = iso.claimed_order
    aut, emb = IDENTITY_33, IDENTITY_33_EMBEDDING
    dense = verifier_oracle._Verification(aut, iso, emb, tol)
    want = fold_order(certificate_to_obj(
        RealizationCertificate((verifier_oracle._check_order(dense, r),))
    )["checks"][0], r, tol)
    got = certificate_to_obj(verify(aut, iso, emb, tol=tol))["checks"][2]
    # order pass/fail and the early identity, under the fold, at any tol: a
    # proper divisor of r is the identity unless r is the true order
    assert got["pass"] is want["pass"] is (r == true)
    assert masked(got["detail"]) == masked(want["detail"])
    # the fixed-set dimension at every proper divisor
    ours = bipsym.verifier._check_isometry(iso, TOL)
    assert ours.divisors == [d for d in range(1, r) if r % d == 0]
    # M^d is made up to the early identity
    end = ours.divisors.index(ours.early) + 1 if ours.early else len(ours.divisors)
    assert len(ours.at_divisors) == end
    assert [fixed_subspace(D).shape[1] for D in ours.at_divisors] == [
        dense.bases[d].shape[1] for d in ours.divisors[:end]
    ]


# --- a loose tolerance does not pass a wrong order -------------------------

def test_loose_tolerance_fails_an_order_one_more_than_true():
    # M^14 = M lies within 0.5 of I, and M^13 = I although 13 does not
    # divide 14: the order check asks |M^14 - I| <= IDENTITY_GAP as well
    aut, iso, emb = realized(BipartiteShape(13, 3), "(v1 v2 v3 v4 v5 v6 v7 v8 v9 v10 v11 v12 v13)", "op")
    assert iso.claimed_order == 13
    iso = Isometry4(iso.matrix, 14, iso.orientation)
    dense = certificate_to_obj(verifier_oracle.verify(aut, iso, emb, tol=0.5))["checks"][2]
    assert dense["detail"].endswith("; M^13 is already the identity")
    order = assert_same_checks(aut, iso, emb, 0.5)["order"]
    assert not order["pass"]
    assert 0.4 < order["measured"] < 0.5
    assert order["detail"].endswith(GAP)
    assert "already" not in order["detail"]


def test_loose_tolerance_fails_a_long_rotation_one_more_than_true():
    # |M^7001 - I| = |M - I| is about 2π/7000 = 9e-4, within tol = 1e-3
    M = np.eye(4)
    M[:2, :2] = rotation(Fraction(1, 7000))
    iso = Isometry4(M, 7001, Orientation.OP)
    order = certificate_to_obj(verify(IDENTITY_33, iso, IDENTITY_33_EMBEDDING, tol=1e-3))["checks"][2]
    assert not order["pass"]
    assert IDENTITY_GAP < order["measured"] <= 1e-3
    assert order["detail"].endswith(GAP)
    dense = verifier_oracle._Verification(IDENTITY_33, iso, IDENTITY_33_EMBEDDING, 1e-3)
    want = certificate_to_obj(
        RealizationCertificate((verifier_oracle._check_order(dense, 7001),))
    )["checks"][0]
    assert want["detail"].endswith("; M^7000 is already the identity")
    assert_same_numbers(order, fold_order(want, 7001, 1e-3))


# --- the drift allows for the rounding of the measured step alone -----------


def test_drift_allows_only_the_rounding_of_the_step():
    # -I on the first plane and R(2π/q) on the second, q = 5 000 011 prime,
    # have order r = 2q; (v1 v2)(w1 w2) of K_{2,2} sits on the first plane's
    # circle, w1 2e-6 from v1, and M maps every point exactly (step 0).  At
    # 10^-12 per power, tol + drift came to about 10^-5, past the separation;
    # at _ROUNDING = 2^-48 it is below 5 * 10^-8, and π is established
    q = 5_000_011
    M = np.zeros((4, 4))
    M[:2, :2] = -np.eye(2)
    M[2:, 2:] = rotation(Fraction(1, q))
    iso = Isometry4(M, 2 * q, Orientation.OP)
    shape = BipartiteShape(2, 2)
    aut = parse_cycles(shape, "(v1 v2)(w1 w2)")
    w1 = np.array([math.cos(2e-6), math.sin(2e-6), 0.0, 0.0])
    emb = embedding_from_labels(shape, {
        vid("v1"): np.array([1.0, 0.0, 0.0, 0.0]), vid("v2"): np.array([-1.0, 0.0, 0.0, 0.0]),
        vid("w1"): w1, vid("w2"): -w1,
    })
    tol = 1e-8  # |M^r - I| is about 5e-10, r times the rounding of a product
    cert = verify(aut, iso, emb, tol=tol)
    assert cert.overall and established(certificate_to_obj(cert))
    step, sep = cert.check("induces").measured, separation(emb)
    assert step == 0.0 and sep < 1e-3
    assert tol + 2 * q * (2 * step + bipsym.verifier._ROUNDING) < 5e-8 < sep
    assert tol + 2 * q * (2 * step + 1e-12) >= sep
