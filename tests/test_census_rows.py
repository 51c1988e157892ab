"""The census decides each candidate from its two partition rows.

``census`` keeps one row per cycle type, with the tally of its cycle
lengths, and hands the tallies of a candidate's two rows to the decision
that ``classify`` runs on a signature's tallies.  These tests hold the
verdict the census reaches for a class against ``classify`` of the class's
signature, over every class up to K_{12,12}, the candidates of three larger
shapes and random cycle types; and they count the signatures the census
builds, which is none, with or without ``realize_all``.  The candidates
hold each distinct run tuple as one tuple.  Classes pass between the
oracle's expanded partitions and the census's run tuples through
``census_oracle.as_runs`` and ``as_partitions``.
"""

import importlib
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import bipsym
from bipsym import BipartiteShape, CycleSignature
from bipsym.classifier import candidate_classes, classify
from bipsym.errors import TooLarge

from census_oracle import as_partitions, as_runs, class_signature, classes_of

# the documented way to reach the module, whose name the function shadows
census_module = importlib.import_module("bipsym.census")


def row_verdicts(shape, classes):
    """The verdict ``census(shape)`` reaches from its rows for each class,
    with ``classes``, expanded partitions, in place of its candidates."""
    keys = [as_runs(lam, mu) for lam, mu in classes]
    verdicts = []
    decide = census_module._decide

    def recorded(*args):
        verdicts.append(decide(*args))
        return verdicts[-1]

    with (
        mock.patch.object(census_module, "candidate_classes", lambda _: keys),
        mock.patch.object(census_module, "_decide", recorded),
    ):
        census_module.census(shape)
    return verdicts


def signature_verdicts(shape, classes):
    return [classify(class_signature(shape, lam, mu)) for lam, mu in classes]


@pytest.mark.parametrize("n", range(3, 13))
def test_rows_decide_every_class_as_classify_does(n):
    for m in range(n, 13):
        shape = BipartiteShape(n, m)
        classes = classes_of(n, m)
        assert row_verdicts(shape, classes) == signature_verdicts(shape, classes)


@pytest.mark.parametrize("n, m", [(36, 40), (60, 84), (120, 126)])
def test_rows_decide_every_candidate_as_classify_does(n, m):
    shape = BipartiteShape(n, m)
    classes = sorted(as_partitions(*key) for key in candidate_classes(shape))
    assert row_verdicts(shape, classes) == signature_verdicts(shape, classes)


@st.composite
def cycle_types(draw):
    """Up to 12 cycle lengths of at most 60, drawn mostly among 1, 2 and
    the divisors of one length, so that lengths repeat and some classes
    are realizable."""
    main = draw(st.integers(1, 60))
    near = [d for d in range(1, main + 1) if main % d == 0] + [2]
    lengths = draw(
        st.lists(
            st.one_of(st.sampled_from(near), st.integers(1, 60)), min_size=1, max_size=12
        )
    )
    return tuple(sorted(lengths, reverse=True))


@given(cycle_types(), st.one_of(st.none(), cycle_types()))
@settings(max_examples=300, deadline=None)
def test_rows_decide_random_classes_as_classify_does(lam, mu):
    # mu None: the part-swapping class of K_{n,n} whose mixed cycles are 2*lam
    n = sum(lam)
    m = n if mu is None else sum(mu)
    assume(3 <= n <= census_module.MAX_CENSUS_PART)
    assume(3 <= m <= census_module.MAX_CENSUS_PART)
    shape = BipartiteShape(n, m)
    (verdict,) = row_verdicts(shape, [(lam, mu)])
    if verdict.op_realizable or verdict.or_realizable:
        event("realizable")
    assert verdict == classify(class_signature(shape, lam, mu))


def _signatures_built(run):
    """The signatures built anywhere while ``run()`` runs."""
    built = []
    post_init = CycleSignature.__post_init__

    def counted(sig):
        post_init(sig)
        built.append(sig)

    with mock.patch.object(CycleSignature, "__post_init__", counted):
        run()
    return built


def test_census_builds_no_signature():
    # the census decides from its rows and builds each realize-all
    # representative from its two partitions
    for shape, realize_all in [((36, 40), False), ((6, 6), False), ((6, 6), True)]:
        run = lambda: census_module.census(BipartiteShape(*shape), realize_all=realize_all)
        assert _signatures_built(run) == [], (shape, realize_all)
    # the count sees a signature built on the way, as public realize builds one
    aut = census_module._representative(BipartiteShape(6, 6), *as_runs((3, 3), (3, 3)))
    assert len(_signatures_built(lambda: bipsym.realize(aut, "op"))) == 1


@pytest.mark.parametrize("n, m", [(36, 40), (60, 60)])
def test_candidates_share_one_tuple_per_partition(n, m):
    parts = [p for pair in candidate_classes(BipartiteShape(n, m)) for p in pair if p]
    assert len({id(p) for p in parts}) == len(set(parts))


def test_census_module_is_reached_by_import_module():
    # the package re-exports the function under its module's name, so
    # ``import bipsym.census`` binds the function; import_module (or
    # ``from bipsym.census import ...``) reaches the module and its bounds
    import bipsym.census as bound

    assert bipsym.census is bound is census_module.census
    from bipsym.census import MAX_CENSUS_PART

    assert census_module.MAX_CENSUS_PART == MAX_CENSUS_PART == 419
    with mock.patch.object(census_module, "MAX_CENSUS_PART", 5):
        with pytest.raises(TooLarge):
            bipsym.census(BipartiteShape(6, 3))
