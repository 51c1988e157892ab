"""The census tallies by grouped sums; these tests hold it to the
per-candidate tally it replaced.

``census`` adds each realizable class's W-side size to one running sum per
(verdict, V-side class size) and makes one product per sum, where
``census_oracle.per_candidate_census`` makes one product of two class sizes
per realizable candidate and adds it to each of its cases.  The two must
give the same report on every shape up to K_{60,60}, on two large
non-square shapes, and with ``realize_all`` up to K_{8,8} at two seeds.
The grouping relies on ``_decide`` giving classes that match the same cases
one verdict object, checked here too.
"""

import importlib

import pytest

from bipsym import BipartiteShape
from bipsym.classifier import _decide, classify

from census_oracle import class_signature, per_candidate_census

census_module = importlib.import_module("bipsym.census")


@pytest.mark.parametrize("n", range(3, 61))
def test_grouped_census_equals_per_candidate_tally(n):
    for m in range(3, 61):
        shape = BipartiteShape(n, m)
        assert census_module.census(shape) == per_candidate_census(shape), (n, m)


@pytest.mark.parametrize("n, m", [(120, 126), (360, 396)])
def test_grouped_census_equals_per_candidate_tally_on_large_shapes(n, m):
    shape = BipartiteShape(n, m)
    assert census_module.census(shape) == per_candidate_census(shape)


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("n", range(3, 9))
def test_grouped_realize_all_equals_per_candidate_tally(n, seed):
    for m in range(3, 9):
        shape = BipartiteShape(n, m)
        got = census_module.census(shape, realize_all=True, seed=seed)
        assert got == per_candidate_census(shape, realize_all=True, seed=seed)


def test_decide_gives_one_verdict_object_per_case_set():
    # two classes of K_{9,9} that match OP1 only, of different orders
    shape = BipartiteShape(9, 9)
    first = classify(class_signature(shape, (9,), (9,)))
    second = classify(class_signature(shape, (3, 3, 3), (3, 3, 3)))
    assert [c.label for c in first.op_cases + first.or_cases] == ["OP1"]
    assert first is second
    # the census's path through the tallies reaches the same object
    assert _decide(9, None, 9, 9, 0, 0, {9: 1}, {9: 1}) is first
    assert _decide(3, None, 9, 9, 0, 0, {3: 3}, {3: 3}) is first
    # a class that matches another case gets another verdict
    other = classify(class_signature(shape, (3, 3, 3), (9,)))
    assert [c.label for c in other.op_cases + other.or_cases] == ["OP4"]
