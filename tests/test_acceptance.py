"""Acceptance suite.

One test per criterion, each printing a single pass/fail line (run with
``pytest -s`` to see them).  Tolerances are pinned here and nowhere looser:
matrix order within 1e-9, vertex matching within 1e-9 with a 1e-6
separation floor, subspace comparisons within 1e-9, exact integers for all
combinatorial counts.
"""

import random
import time
from fractions import Fraction

import numpy as np

from bipsym import (
    BipartiteShape,
    SideAction,
    VertexId,
    census,
    classify_aut,
    enumerate_automorphisms,
    glide_isometry,
    improper_isometry,
    parse_cycles,
    realize,
    reflection_isometry,
    rotation_isometry,
    signature,
    verify,
)
from bipsym.jsonio import canonical_json, report_to_obj

from automorphism_ops import compose, inverse, power
from labelled import coordinates_of
from topology_checks import smith_check, two_circle_check

SHAPES = [
    BipartiteShape(3, 3),
    BipartiteShape(3, 4),
    BipartiteShape(4, 3),
    BipartiteShape(4, 4),
]


def _report(number: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number} [{name}]: {status}{tail}")
    assert ok, f"criterion {number} ({name}) failed{tail}"


def test_criterion_1_census_totals():
    expected = {(3, 3): 72, (3, 4): 144, (4, 4): 1152, (4, 3): 144}
    ok = True
    times = []
    for (n, m), total in expected.items():
        start = time.perf_counter()
        report = census(BipartiteShape(n, m))
        elapsed = time.perf_counter() - start
        times.append(f"{n},{m}: {elapsed:.2f}s")
        ok = ok and report.total == total and elapsed < 5.0
    _report(1, "census totals", ok, "; ".join(times))


def test_criterion_2_theorem_closure():
    violations = []
    rng = random.Random(20240201)
    for shape in SHAPES:
        auts = list(enumerate_automorphisms(shape))
        preserving = [b for b in auts if b.side_action is SideAction.PRESERVING]
        for a in auts:
            verdict = classify_aut(a)
            r = a.order()
            if verdict.or_realizable:
                if r % 2:
                    violations.append((shape, str(a), "or with odd order"))
                if not classify_aut(power(a, 2)).op_realizable:
                    violations.append((shape, str(a), "square not op-realizable"))
            if verdict.op_realizable:
                for k in range(1, r + 1):
                    if not classify_aut(power(a, k)).op_realizable:
                        violations.append((shape, str(a), f"power {k} not op"))
            if classify_aut(inverse(a)) != verdict:
                violations.append((shape, str(a), "inverse verdict differs"))
        for _ in range(100):
            a = rng.choice(auts)
            b = rng.choice(preserving)
            conj = compose(compose(b, a), inverse(b))
            if signature(conj) != signature(a):
                violations.append((shape, str(a), "conjugate signature differs"))
            if classify_aut(conj) != classify_aut(a):
                violations.append((shape, str(a), "conjugate verdict differs"))
    _report(2, "theorem closure", not violations, f"{len(violations)} violations")


def test_criterion_3_pinned_spot_checks():
    def labels(shape, text):
        verdict = classify_aut(parse_cycles(BipartiteShape(*shape), text))
        return (
            [c.label for c in verdict.op_cases],
            [c.label for c in verdict.or_cases],
        )

    checks = [
        (labels((3, 3), "(v1 v2 v3)(w1 w2 w3)") == (["OP1"], [])),
        (labels((3, 4), "(w3 w4)") == ([], ["OR11"])),
        (labels((4, 4), "(v1 w1)(v2 w2)(v3 w3 v4 w4)") == ([], ["OR13"])),
        (labels((4, 3), "(v1 v2 v3)(w1 w2)") == ([], [])),
    ]
    _report(3, "pinned spot checks", all(checks), f"{sum(checks)}/4 exact")


def test_criterion_4_realization_soundness():
    start = time.perf_counter()
    pairs = 0
    failures = []
    for shape in SHAPES:
        for aut in enumerate_automorphisms(shape):
            verdict = classify_aut(aut)
            for orientation, realizable in (
                ("op", verdict.op_realizable),
                ("or", verdict.or_realizable),
            ):
                if not realizable:
                    continue
                pairs += 1
                try:
                    iso, emb = realize(aut, orientation, seed=1)
                    cert = verify(aut, iso, emb, tol=1e-9)
                    if not cert.overall:
                        failures.append((shape, str(aut), orientation))
                except Exception as exc:  # noqa: BLE001 - any failure counts
                    failures.append((shape, str(aut), orientation, repr(exc)))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(4, "realization soundness", ok, f"{pairs} pairs in {elapsed:.1f}s")


def test_criterion_5_topology_suites():
    problems = []
    for r in range(1, 25):
        if not smith_check(rotation_isometry(r)).overall:
            problems.append(f"rotation {r}")
    if not smith_check(reflection_isometry()).overall:
        problems.append("reflection")
    for j in range(2, 25):
        for k in range(2, 25):
            order = np.lcm(j, k)
            if order > 24:
                continue
            if not smith_check(glide_isometry(Fraction(1, j), Fraction(1, k), int(order))).overall:
                problems.append(f"glide 1/{j}, 1/{k}")
    for q in range(1, 25):
        order = q if q % 2 == 0 else 2 * q
        if order > 24:
            continue
        if not smith_check(improper_isometry(Fraction(1, q), order)).overall:
            problems.append(f"improper 1/{q}")

    for j in range(2, 9):
        for k in range(j + 1, 9):
            r = int(np.lcm(j, k))
            cert = two_circle_check(glide_isometry(Fraction(1, j), Fraction(1, k), r))
            expected_circles = 2 if k % j else 1
            if not cert.overall:
                problems.append(f"two_circle {j},{k}: checks failed")
            if cert.check("at_most_two_circles").measured != expected_circles:
                problems.append(f"two_circle {j},{k}: circle count")
            if expected_circles == 2:
                lcm_check = cert.check("order_lcm")
                if not lcm_check.passed or int(lcm_check.measured) != r:
                    problems.append(f"two_circle {j},{k}: lcm != {r}")
    _report(5, "topology suites", not problems, "; ".join(problems[:4]))


def test_criterion_6_negative_controls():
    tol = 1e-9
    results = []

    aut = parse_cycles(BipartiteShape(3, 3), "(v1 v2 v3)(w1 w2 w3)")
    iso, emb = realize(aut, "op", seed=1)
    a, b = (aut.shape.global_index(VertexId.from_label(v)) for v in ("v1", "v2"))
    emb.points[[a, b]] = emb.points[[b, a]]
    results.append(not verify(aut, iso, emb, tol=tol).check("induces").passed)

    aut = parse_cycles(BipartiteShape(3, 4), "(w3 w4)")
    iso, emb = realize(aut, "or", seed=1)
    p = coordinates_of(emb)[VertexId.from_label("v1")] + np.array([0.0, 0.0, 0.0, 0.4])
    emb.points[aut.shape.global_index(VertexId.from_label("v1"))] = p / np.linalg.norm(p)
    results.append(not verify(aut, iso, emb, tol=tol).check("eel4").passed)

    aut = parse_cycles(BipartiteShape(3, 3), "(v1 v2 v3)(w1 w2 w3)")
    iso, emb = realize(aut, "op", seed=1)
    p = coordinates_of(emb)[VertexId.from_label("v1")].copy()
    p[0] += 10 * tol
    emb.points[aut.shape.global_index(VertexId.from_label("v1"))] = p
    cert = verify(aut, iso, emb, tol=tol)
    results.append(not cert.check("induces").passed and not cert.overall)

    _report(6, "negative controls", all(results), f"{sum(results)}/3 flipped")


def test_criterion_7_determinism():
    shape = BipartiteShape(3, 3)
    a = canonical_json(report_to_obj(census(shape, seed=11)))
    b = canonical_json(report_to_obj(census(shape, seed=11)))
    byte_identical = a == b

    sd1 = realize(parse_cycles(shape, "(v1 v2 v3)"), "op", seed=3)[1]
    sd2 = realize(parse_cycles(shape, "(v1 v2 v3)"), "op", seed=3)[1]
    realize_deterministic = all(
        np.array_equal(coordinates_of(sd1)[v], coordinates_of(sd2)[v])
        for v in coordinates_of(sd1)
    )

    _report(
        7,
        "determinism",
        byte_identical and realize_deterministic,
        "census bytes, seeded realize",
    )
