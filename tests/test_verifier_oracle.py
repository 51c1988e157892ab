"""The array verifier against the per-power loop verifier it replaced.

``verifier_oracle.verify`` builds every power and one fixed subspace per
power; ``bipsym.verify`` works per divisor of the order on stacked arrays.
Their certificates must serialize to the same bytes, passing or failing.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import bipsym.verifier
from bipsym import (
    BipartiteShape,
    Isometry4,
    Orientation,
    SpatialEmbedding,
    VertexId,
    classify_aut,
    enumerate_automorphisms,
    identity_automorphism,
    improper_isometry,
    parse_cycles,
    realize,
    verify,
)
from bipsym.geometry import SUBSPACE_TOL
from bipsym.jsonio import canonical_json, certificate_to_obj

import verifier_oracle
from census_oracle import _partitions

TOL = 1e-9
K89_ORDER_72 = "(v1 v2 v3 v4 v5 v6 v7 v8)(w1 w2 w3 w4 w5 w6 w7 w8 w9)"


def vid(label):
    return VertexId.from_label(label)


def assert_same_certificate(aut, iso, emb, tol=TOL):
    cert = verify(aut, iso, emb, tol=tol)
    want = certificate_to_obj(verifier_oracle.verify(aut, iso, emb, tol=tol))
    assert canonical_json(certificate_to_obj(cert)) == canonical_json(want)
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
    p = emb.coordinates[vid("v1")].copy()
    p[0] += 10 * TOL
    emb.coordinates[vid("v1")] = p
    failing(aut, iso, emb, "induces")


def test_swapped_images():
    aut, iso, emb = realized(BipartiteShape(3, 3), "(v1 v2 v3)(w1 w2 w3)", "op")
    a, b = vid("v1"), vid("v2")
    emb.coordinates[a], emb.coordinates[b] = emb.coordinates[b], emb.coordinates[a]
    failing(aut, iso, emb, "induces")


def claiming(iso, times):
    """The same matrix with its claimed order multiplied by ``times``."""
    return Isometry4(iso.matrix, times * iso.claimed_order, iso.orientation)


# a claimed order 3x the true one repeats a finding at powers 1, 3 and 5
@pytest.mark.parametrize("times", [1, 3])
def test_point_off_the_sphere(times):
    aut, iso, emb = realized(BipartiteShape(3, 4), "(w3 w4)", "or")
    iso = claiming(iso, times)
    p = emb.coordinates[vid("v1")] + np.array([0.0, 0.0, 0.0, 0.4])
    emb.coordinates[vid("v1")] = p / np.linalg.norm(p)
    failing(aut, iso, emb, "eel4")
    emb.coordinates[vid("w1")] = emb.coordinates[vid("w1")] * (1 + 1e-8)
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
    emb.subdivision_edges.clear()
    emb.subdivision_coordinates.clear()
    failing(aut, iso, emb, "eel2")


def test_claimed_order_a_multiple_changes_only_subspace_noise():
    # M^3 and M^6 both equal I up to rounding; the loop version compares
    # their two noisy SVD bases, the array version gives M^6 the basis of M^3
    aut, iso, emb = realized(BipartiteShape(3, 3), "(v1 v2 v3)(w1 w2 w3)", "op")
    tripled = claiming(iso, 3)
    got = certificate_to_obj(verify(aut, tripled, emb, tol=TOL))
    want = certificate_to_obj(verifier_oracle.verify(aut, tripled, emb, tol=TOL))
    assert got["overall"] is want["overall"] is False
    for g, w in zip(got["checks"], want["checks"]):
        if g["name"] == "eel1":
            assert g["pass"] and w["pass"]
            assert g["measured"] <= w["measured"] <= SUBSPACE_TOL
        else:
            assert g == w


def test_subdivision_set_not_closed():
    aut, iso, emb = realized(BipartiteShape(3, 3), "(v1 w1 v2 w2 v3 w3)", "op")
    assert emb.subdivision_edges
    z = sorted(emb.subdivision_edges)[0]
    v, _ = emb.subdivision_edges[z]
    free = next(
        (v, w)
        for w in (vid("w1"), vid("w2"), vid("w3"))
        if (v, w) not in emb.subdivision_edges.values()
    )
    emb.subdivision_edges[z] = free
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
    emb = SpatialEmbedding(shape=shape, coordinates=coords)
    failing(aut, iso, emb, "eel3")


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
