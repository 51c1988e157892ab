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
canonical run tuples (lengths strictly decreasing, counts positive, summing
to the part), the one form of a cycle type that the census hashes, folds
and reads its rows from; and the run tuples of two partitions of one n
must order, and be equal, exactly as the partitions do, which the fold of
K_{n,n} relies on.  The candidates are compared with the oracle's classes
through ``census_oracle.as_runs`` and ``as_partitions``.
"""

import math

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from bipsym import BipartiteShape, census
from bipsym.classifier import CASES, _divisor_table, _runs, candidate_classes, classify
from bipsym.jsonio import report_to_obj

import census_oracle
from census_oracle import case_keys as _case_keys
from census_oracle import as_partitions, as_runs, class_signature, classes_of, fold

SHAPES = [(n, m) for n in range(3, 17) for m in range(3, 17)]
LARGEST_PART = 200


def _realizable(sig) -> bool:
    verdict = classify(sig)
    return verdict.op_realizable or verdict.or_realizable


@pytest.mark.parametrize("n, m", SHAPES)
def test_candidates_are_the_realizable_classes(n, m):
    shape = BipartiteShape(n, m)
    classes = {fold(n, m, lam, mu) for lam, mu in classes_of(n, m)}
    found = candidate_classes(shape)
    keys = {as_partitions(*key) for key in found}
    # keyed as the folded oracle classes, one run key per class, so no
    # class is counted twice
    assert len(keys) == len(found)
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
    divisors = _divisor_table(max(n, m))
    generated = {key: set(gen(n, m, divisors)) for key, gen in CASES.items()}
    for lam, mu in classes_of(n, m):
        direct, _ = _case_keys(class_signature(shape, lam, mu))
        for key in direct:
            assert as_runs(lam, mu) in generated[key], (key, lam, mu)


def _canonical(runs, size: int) -> bool:
    """Whether ``runs`` is the run tuple of a partition of ``size``: lengths
    strictly decreasing, every count positive."""
    lengths = [k for k, _ in runs]
    return (
        all(k >= 1 and c >= 1 for k, c in runs)
        and all(a > b for a, b in zip(lengths, lengths[1:]))
        and sum(k * c for k, c in runs) == size
    )


def _noncanonical_runs(generate, largest: int = 40) -> list:
    """The cycle types ``generate`` yields for 3 <= n, m <= ``largest`` that
    are not canonical run tuples, with their shapes."""
    found = []
    for n in range(3, largest + 1):
        for m in range(3, largest + 1):
            divisors = _divisor_table(max(n, m))
            for lam, mu in generate(n, m, divisors):
                for p, size in ((lam, n), (mu, m)):
                    if p is not None and not _canonical(p, size):
                        found.append((n, m, p))
    return found


@pytest.mark.parametrize(
    "generate", dict.fromkeys(CASES.values()), ids=lambda g: g.__name__
)
def test_generators_yield_non_increasing_partitions(generate):
    # every generator yields canonical run tuples: the census hashes them,
    # folds K_{n,n} by comparing them and reads its rows from them
    assert _noncanonical_runs(generate) == []


def test_unsorted_partition_check_catches_runs_shortest_first():
    # a copy of _gen_op7 that passes its runs shortest first
    def gen_op7_shortest_first(n, m, divisors):
        for r in divisors[math.gcd(n - 2, m - 2)]:
            if r > 2 and r % 2 == 0:
                yield _runs((2, 1), (r, (n - 2) // r)), _runs((2, 1), (r, (m - 2) // r))

    assert _noncanonical_runs(gen_op7_shortest_first)


def test_divisor_table_lists_each_divisor_once_ascending():
    table = _divisor_table(60)
    assert table[0] == []
    for k in range(1, 61):
        assert table[k] == [d for d in range(1, k + 1) if k % d == 0]


@st.composite
def partition_pairs(draw):
    """Two partitions of one n, as non-increasing tuples; small parts are
    drawn often, so that runs repeat and prefixes are shared."""
    n = draw(st.integers(1, 30))

    def partition():
        parts, left = [], n
        while left:
            k = draw(st.one_of(st.integers(1, min(left, 3)), st.integers(1, left)))
            parts.append(k)
            left -= k
        return tuple(sorted(parts, reverse=True))

    lam = partition()
    return lam, lam if draw(st.integers(0, 4)) == 0 else partition()


@given(partition_pairs())
@settings(max_examples=500, deadline=None)
def test_run_tuples_order_as_partitions_do(pair):
    lam, mu = pair
    runs_lam, runs_mu = as_runs(lam, mu)
    if lam == mu:
        event("equal")
    assert (runs_lam == runs_mu) == (lam == mu)
    assert (runs_lam < runs_mu) == (lam < mu)
    assert (runs_lam > runs_mu) == (lam > mu)
    assert as_partitions(runs_lam, runs_mu) == (lam, mu)


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
        assert as_runs(*fold(shape.n, shape.m, lam, mu)) in candidate_classes(shape)
