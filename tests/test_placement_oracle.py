"""The placer's one-pass separation check against the dense all-pairs oracle.

``_Placer`` compares each new orbit with the rows placed before it and with
itself, when the orbit is placed, and keeps it only if no distance is below
SEPARATION.  ``placement_oracle`` recomputes the full distance matrix.  On
random point clouds with pairs at SEPARATION * (1 +- 1e-9) both must accept
and reject the same groups, and every realized embedding must pass the
oracle.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bipsym import BipartiteShape, Orientation, parse_cycles, realize
from bipsym.census import _representative
from bipsym.classifier import classify
from bipsym.geometry import SEPARATION, SeededPoints, _Placer

from census_oracle import signature_tallies
from placement_oracle import too_close, validate
from test_geometry import REALIZE_CASES

# distances just below, at and just above the threshold, and clearly off it
STEPS = [0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0]


@st.composite
def point_groups(draw):
    """Groups of 1-4 points in [-1, 1]^4, each point fresh or one step of
    STEPS * SEPARATION along an axis from a point drawn before it."""
    groups, drawn = [], []
    for _ in range(draw(st.integers(1, 8))):
        group = []
        for _ in range(draw(st.integers(1, 4))):
            if drawn and draw(st.booleans()):
                p = draw(st.sampled_from(drawn)).copy()
                step = SEPARATION * draw(st.sampled_from(STEPS))
                p[draw(st.integers(0, 3))] += draw(st.sampled_from([-step, step]))
            else:
                p = np.array(draw(st.lists(st.floats(-1, 1), min_size=4, max_size=4)))
            group.append(p)
            drawn.append(p)
        groups.append(np.array(group))
    return groups


def _placer(capacity: int) -> _Placer:
    return _Placer(np.eye(4), BipartiteShape(capacity, 1), SeededPoints(1))


def _offer(placer: _Placer, group: np.ndarray) -> bool:
    """Write ``group`` after the placed rows and let the placer decide."""
    start = len(placer.rows)
    placer.points[start : start + len(group)] = group
    return placer._admit([f"p{start + i}" for i in range(len(group))])


@given(point_groups())
@settings(max_examples=400, deadline=None)
def test_placer_accepts_what_the_dense_check_accepts(groups):
    placer = _placer(sum(len(g) for g in groups))
    kept = []
    for group in groups:
        expected = not too_close(group, np.array([*group, *kept]))
        assert _offer(placer, group) == expected
        event("accepted" if expected else "rejected")
        if expected:
            kept.extend(group)
    assert np.array_equal(placer.points[: len(placer.rows)], np.array(kept).reshape(-1, 4))


@pytest.mark.parametrize("factor, kept", [(1 - 1e-9, False), (1 + 1e-9, True)])
def test_threshold_pair(factor, kept):
    base = np.array([0.0, 0.0, 0.0, 1.0])
    partner = base + np.array([SEPARATION * factor, 0.0, 0.0, 0.0])
    pair = np.array([base, partner])
    assert too_close(pair, pair) != kept
    # as one group of two, and as two groups of one
    assert _offer(_placer(2), pair) == kept
    placer = _placer(2)
    assert _offer(placer, pair[:1])
    assert _offer(placer, pair[1:]) == kept


@pytest.mark.parametrize("nm,text,orientation,expected", REALIZE_CASES)
def test_constructions_pass_the_oracle(nm, text, orientation, expected):
    for seed in (1, 7):
        validate(realize(parse_cycles(BipartiteShape(*nm), text), orientation, seed)[1])


@pytest.mark.parametrize("n", range(3, 8))
def test_every_representative_passes_the_oracle(n):
    # the shapes and seeds of the golden realizations, census representatives only
    for m in range(n, 8):
        for sig in signature_tallies(BipartiteShape(n, m)):
            verdict = classify(sig)
            for orientation in (o for o in Orientation if verdict.cases(o)):
                for seed in (1, 7):
                    validate(realize(_representative(sig), orientation, seed)[1])
