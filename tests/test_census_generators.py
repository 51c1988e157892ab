"""The census classifies only the classes the case generators yield.

The generators and the case clauses of ``classify`` are two encodings of
the paper's case table, and these tests hold each against the other.  Up
to K_{16,16} (K_{12,15} and K_{15,12} included), the candidates
``classify`` accepts must be exactly the classes it accepts among all
partitions, keyed as the census keys them (``census_oracle.fold``: on
K_{n,n}, (lam, mu) and (mu, lam) are one class), the census report must
equal the oracle's, which classifies every class without folding, and
each generator must yield every class that its own case matches
directly.  Up to K_{200,200}, random classes with at most three
distinct cycle lengths per part, the form of every realizable class,
must be candidates, under their folded key, whenever ``classify``
accepts them.  Up to K_{40,40}, every generator must yield only
non-increasing partitions, which the census's rows read as sorted.
"""

import math

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from bipsym import BipartiteShape, census
from bipsym.classifier import CASES, _divisors, _runs, candidate_classes, classify
from bipsym.jsonio import report_to_obj

import census_oracle
from census_oracle import case_keys as _case_keys
from census_oracle import class_signature, classes_of, fold

SHAPES = [(n, m) for n in range(3, 17) for m in range(3, 17)]
LARGEST_PART = 200


def _realizable(sig) -> bool:
    verdict = classify(sig)
    return verdict.op_realizable or verdict.or_realizable


@pytest.mark.parametrize("n, m", SHAPES)
def test_candidates_are_the_realizable_classes(n, m):
    shape = BipartiteShape(n, m)
    classes = {fold(n, m, lam, mu) for lam, mu in classes_of(n, m)}
    keys = candidate_classes(shape)
    # keyed as the folded oracle classes, so no class is counted twice
    assert keys <= classes
    candidates = [class_signature(shape, lam, mu) for lam, mu in keys]
    assert {sig for sig in candidates if _realizable(sig)} == {
        sig
        for sig in (class_signature(shape, lam, mu) for lam, mu in classes)
        if _realizable(sig)
    }
    want = census_oracle.census_report(shape)
    assert report_to_obj(census(shape)) == report_to_obj(want)


@pytest.mark.parametrize("n, m", SHAPES)
def test_each_generator_covers_its_case(n, m):
    # direct matches only: candidate_classes adds the interchanged ones
    shape = BipartiteShape(n, m)
    generated = {key: set(gen(n, m)) for key, gen in CASES.items()}
    for lam, mu in classes_of(n, m):
        direct, _ = _case_keys(class_signature(shape, lam, mu))
        for key in direct:
            assert (lam, mu) in generated[key], (key, lam, mu)


def _unsorted_partitions(generate, largest: int = 40) -> list:
    """The partitions ``generate`` yields for 3 <= n, m <= ``largest`` that
    are not non-increasing, with their shapes."""
    found = []
    for n in range(3, largest + 1):
        for m in range(3, largest + 1):
            for lam, mu in generate(n, m):
                for p in (lam, mu or ()):
                    if any(a < b for a, b in zip(p, p[1:])):
                        found.append((n, m, p))
    return found


@pytest.mark.parametrize(
    "generate", dict.fromkeys(CASES.values()), ids=lambda g: g.__name__
)
def test_generators_yield_non_increasing_partitions(generate):
    # _PartitionRows tallies p[::-1] by bisection, and _runs does not sort
    assert _unsorted_partitions(generate) == []


def test_unsorted_partition_check_catches_runs_shortest_first():
    # a copy of _gen_op7 that passes its runs shortest first
    def gen_op7_shortest_first(n, m):
        for r in _divisors(math.gcd(n - 2, m - 2), 4):
            if r % 2 == 0:
                yield _runs((2, 1), (r, (n - 2) // r)), _runs((2, 1), (r, (m - 2) // r))

    assert _unsorted_partitions(gen_op7_shortest_first)


@st.composite
def cycle_types(draw, main: int):
    """Some parts of length ``main`` and up to two runs of other lengths,
    drawn mostly among 1, 2, 2*main and the divisors of ``main``."""
    lengths = [main] * draw(st.integers(0, LARGEST_PART // main))
    for _ in range(draw(st.integers(0, 2))):
        near = [d for d in range(1, main + 1) if main % d == 0] + [2, 2 * main]
        k = draw(st.one_of(st.sampled_from(near), st.integers(1, LARGEST_PART)))
        lengths += [k] * draw(st.integers(1, 3))
    return tuple(sorted(lengths, reverse=True))


@st.composite
def classes(draw):
    """(shape, lam, mu), or (shape, lam, None) for a part-swapping class."""
    main = draw(st.integers(1, LARGEST_PART // 2))
    lam = draw(cycle_types(main))
    n = sum(lam)
    assume(3 <= n <= LARGEST_PART)
    if draw(st.booleans()):
        return BipartiteShape(n, n), lam, None
    near = [main, 2 * main, max(1, main // 2)]
    main_w = draw(st.one_of(st.sampled_from(near), st.integers(1, LARGEST_PART // 2)))
    mu = draw(cycle_types(main_w))
    assume(3 <= sum(mu) <= LARGEST_PART)
    return BipartiteShape(n, sum(mu)), lam, mu


@given(classes())
@settings(max_examples=400, deadline=None)
def test_every_realizable_class_is_a_candidate(cls):
    shape, lam, mu = cls
    if _realizable(class_signature(shape, lam, mu)):
        event("realizable")
        assert fold(shape.n, shape.m, lam, mu) in candidate_classes(shape)
