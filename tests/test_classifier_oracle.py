"""``classify`` against the per-case matchers it replaced.

``classifier_oracle`` keeps one matcher per case, each rebuilding the list
of cycle lengths other than r; ``classify`` tallies the lengths once and
decides every case from the tallies.  Their verdicts must be equal (case
labels, sub-letters and ``interchanged`` flags, in order) on every class of
every K_{n,m} with 3 <= n, m <= 12, part-swapping classes included, on
random signatures up to K_{200,200}, and on signatures whose exceptional
cycle length equals r.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipsym import BipartiteShape, classify, parse_cycles, signature
from bipsym.classifier import _preserving_cases

import classifier_oracle
from census_oracle import class_signature, classes_of

LARGEST_PART = 200


@pytest.mark.parametrize("n", range(3, 13))
def test_every_class_up_to_k12(n):
    for m in range(3, 13):
        shape = BipartiteShape(n, m)
        for lam, mu in classes_of(n, m):
            sig = class_signature(shape, lam, mu)
            assert classify(sig) == classifier_oracle.classify(sig), (lam, mu)


@st.composite
def cycle_type(draw, total: int):
    """A partition of ``total``: cycles of a main length, up to two runs of
    lengths the cases name (1, 2, 4, half or double the main length) or of
    any length, and main-length cycles and one shorter cycle for the rest."""
    main = draw(st.integers(1, total))
    lengths = [main] * draw(st.integers(0, total // main))
    near = [1, 2, 4, max(1, main // 2), 2 * main]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.one_of(st.sampled_from(near), st.integers(1, total)))
        lengths += [k] * draw(st.integers(1, 3))
        while sum(lengths) > total:
            lengths.pop()
    left = total - sum(lengths)
    lengths += [main] * (left // main) + [left % main] * (left % main > 0)
    return tuple(sorted(lengths, reverse=True))


@st.composite
def signatures(draw):
    n = draw(st.integers(3, LARGEST_PART))
    lam = draw(cycle_type(n))
    if draw(st.booleans()):
        return class_signature(BipartiteShape(n, n), lam, None)
    m = draw(st.one_of(st.just(n), st.integers(3, LARGEST_PART)))
    return class_signature(BipartiteShape(n, m), lam, draw(cycle_type(m)))


@given(signatures())
@settings(max_examples=500, deadline=None)
def test_random_signatures_up_to_k200(sig):
    assert classify(sig) == classifier_oracle.classify(sig)


# (graph, automorphism, expected OP labels, expected OR labels), with "^"
# marking a case matched only with the parts interchanged
EDGES = [
    # r = 2, W in 2-cycles: the exceptional 2-cycles are r-cycles.  12a
    # asks for exactly one 2-cycle in W, so at r = 2 it would need m = 2;
    # with two, 12b matches instead
    ("3,4", "(w1 w2)(w3 w4)", ["OP2"], ["OR11"]),
    ("3,4", "(w1 w2)", [], ["OR11"]),
    ("3,4", "(v2 v3)(w1 w2)(w3 w4)", ["OP2", "OP3"], ["OR12b"]),
    ("4,4", "(v1 v2)(v3 v4)(w1 w2)(w3 w4)", ["OP1"], ["OR10", "OR12b"]),
    ("4,3", "(v1 v2)(v3 v4)(w2 w3)", ["OP2^", "OP3"], ["OR12b^"]),
    ("4,6", "(v1 v2 v3 v4)(w1 w2 w3 w4)(w5 w6)", ["OP4^"], ["OR12a", "OR12b^"]),
    # r = 4, every mixed cycle a 4-cycle: one of them is the exceptional one
    ("4,4", "(v1 w1 v2 w2)(v3 w3 v4 w4)", ["OP1", "OP9"], ["OR13"]),
    ("6,6", "(v1 w1 v2 w2)(v3 w3 v4 w4)(v5 w5 v6 w6)", ["OP1", "OP9"], ["OR13"]),
    # r = 6, h = 3
    ("5,8", "(v1 v2 v3)(v4 v5)(w1 w2 w3 w4 w5 w6)(w7 w8)", ["OP8"], []),
    ("8,3", "(v1 v2 v3 v4 v5 v6)(v7 v8)(w1 w2 w3)", ["OP6"], ["OR12c", "OR12d^"]),
    ("6,6", "(v1 v2 v3)(v4 v5 v6)(w1 w2 w3 w4 w5 w6)", ["OP4"], ["OR12c^", "OR12d"]),
    ("3,8", "(v1 v2 v3)(w1 w2 w3 w4 w5 w6)(w7 w8)", ["OP6"], ["OR12c^", "OR12d"]),
]


@pytest.mark.parametrize("graph, perm, op, orr", EDGES)
def test_exceptional_length_equal_to_r(graph, perm, op, orr):
    n, m = map(int, graph.split(","))
    sig = signature(parse_cycles(BipartiteShape(n, m), perm))
    verdict = classify(sig)
    assert verdict == classifier_oracle.classify(sig)
    mark = [[c.label + "^" * c.interchanged for c in cases] for cases in
            (verdict.op_cases, verdict.or_cases)]
    assert mark == [op, orr]


def test_several_or12_subcases_rejected():
    # no consistent signature matches two sub-cases of case 12, and
    # CycleSignature refuses an inconsistent one, so the guard is reached
    # through the tallies: on K_{3,3} with r = 2, one fixed vertex and one
    # 2-cycle in V and one 2-cycle in W (a vertex of W left uncounted) meet
    # 12a and 12b, so neither is reported
    keys = _preserving_cases(2, 3, 1, 0, {2: 1}, {2: 1}, {}, {})
    assert keys == [(2, None), (3, None)]
