"""The placer's grid check against the dense all-pairs oracle, and its
placement against the oracle's one-orbit-at-a-time placement.

``_Placer._admit`` measures each new point only against the rows filed
under its own cell of a grid.  ``placement_oracle.too_close`` recomputes the
full distance matrix: on random point clouds, and on points on and next to
the cell boundaries, with pairs at SEPARATION * (1 +- 1e-9), the placer must
accept and reject the same groups, and every realized embedding must pass
the oracle.  ``placement_oracle.SequentialPlacer`` places one orbit at a
time with the dense check; on scripted step lists that force collisions at
SEPARATION * (1 +- 1e-9), inside one orbit and across orbits, both must
leave the same points, rows, rng state and error.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bipsym import BipartiteShape, Orientation, parse_cycles, realize
from bipsym import geometry
from bipsym.classifier import classify
from bipsym.errors import PlacementFailure, TooLarge
from bipsym.geometry import (
    _CELL_WIDTH,
    SEPARATION,
    SeededPoints,
    _distances,
    _Placer,
    _row_distances,
)

from census_oracle import representative, signature_tallies
from placement_oracle import SequentialPlacer, too_close, validate
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


@st.composite
def cell_boundary_groups(draw):
    """Groups of 1-2 points, each fresh or a partner of a point drawn before
    it.  A fresh point's coordinates lie on and next to the boundaries of the
    placer's grid cells, at (z - 1/2) * _CELL_WIDTH + SEPARATION *
    {0, +-1/2, +-(1 +- 1e-9), +-2}, or are the exact 0 and +-1 of landmark
    points.  A partner lies SEPARATION * {1/2, 1 +- 1e-9, 2} away, along one
    axis or diagonally across two to four."""

    offsets = [sign * f for f in (0.0, 0.5, 1 - 1e-9, 1 + 1e-9, 2.0) for sign in (-1, 1)]

    def coordinate():
        if draw(st.integers(0, 4)) == 0:
            return draw(st.sampled_from([0.0, 1.0, -1.0]))
        z = draw(st.integers(-1024, 1024))
        return (z - 0.5) * _CELL_WIDTH + SEPARATION * draw(st.sampled_from(offsets))

    groups, drawn = [], []
    for _ in range(draw(st.integers(1, 8))):
        group = []
        for _ in range(draw(st.integers(1, 2))):
            if drawn and draw(st.booleans()):
                axes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
                step = SEPARATION * draw(st.sampled_from([0.5, 1 - 1e-9, 1 + 1e-9, 2.0]))
                step /= math.sqrt(len(axes))
                p = draw(st.sampled_from(drawn)).copy()
                for axis in axes:
                    p[axis] += draw(st.sampled_from([-step, step]))
                event("partner along an axis" if len(axes) == 1 else "diagonal partner")
            else:
                p = np.array([coordinate() for _ in range(4)])
            group.append(p)
            drawn.append(p)
        groups.append(np.array(group))
    return groups


def _placer(capacity: int) -> _Placer:
    return _Placer(np.eye(4), BipartiteShape(capacity, 1), SeededPoints(1))


def _offer(placer: _Placer, group: np.ndarray) -> bool:
    """Write ``group`` after the placed rows and let the placer decide."""
    row = len(placer.rows)
    placer.points[row : row + len(group)] = group
    return placer._admit([f"p{i}" for i in range(row, row + len(group))])


@given(st.one_of(point_groups(), cell_boundary_groups()))
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


def test_placement_measures_next_to_no_pairs():
    # a dense check of K_{2000,2000} measures 8 million pairs; the grid
    # measures a point only against the rows filed under its own cell
    measured = []

    def counted(new, placed):
        measured.append(len(placed))  # one new point against each placed row
        return _row_distances(new, placed)

    perm = "".join(
        "(" + " ".join(f"{p}{i}" for i in range(s, s + 10)) + ")"
        for p in "vw"
        for s in range(1, 2001, 10)
    )
    aut = parse_cycles(BipartiteShape(2000, 2000), perm)
    with mock.patch.object(geometry, "_row_distances", counted):
        realize(aut, "op", 1)
    assert sum(measured) <= 8


@given(st.integers(1, 40), st.integers(0, 60), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_distances_have_the_bits_of_norm(k, placed, seed):
    # pairs near SEPARATION and at scales from 1e-8 to 1
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(placed + k, 4)) * 10.0 ** rng.uniform(-8, 0, size=(placed + k, 1))
    pts[placed:] = pts[rng.integers(0, placed + k, size=k)] + rng.normal(size=(k, 4)) * SEPARATION
    new = pts[placed:]
    expected = np.linalg.norm(new[:, None, :] - pts[None, :, :], axis=2)
    assert _distances(new, pts).tobytes() == expected.tobytes()


@given(st.integers(1, 40), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_row_distances_read_the_image_block_at_the_targets(k, seed):
    # verify's induces check reads each deviation |M x_j - x_pi(j)| row by
    # row and builds the image block only when its shortcut does not apply:
    # a matrix within 1e-12 to 1 of I, points at scales from 1e-8 to 1, and
    # a permutation that is the identity or any
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(k, 4)) * 10.0 ** rng.uniform(-8, 0, size=(k, 1))
    M = np.eye(4) + rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-12, 0)
    target = np.arange(k) if rng.integers(2) else rng.permutation(k)
    Q = P @ M.T
    expected = _distances(Q, P)[np.arange(k), target]
    assert _row_distances(Q, P[target]).tobytes() == expected.tobytes()


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


def _shift(t: float) -> np.ndarray:
    """Maps (x1, x2, x3, x4) to (x1 + t x4, x2, x3, x4): the orbit of a point
    with x4 = 1 takes steps of length t, with x4 = 2 of length 2t."""
    M = np.eye(4)
    M[0, 3] = t
    return M


def _never(p):
    """A landmark distance that rejects every draw."""
    return 0.0


@st.composite
def placements(draw):
    """(M, steps, seed) for ``place``: orbits of up to 4 points taking steps
    of STEPS * SEPARATION, pinned or drawn from a table of points SEPARATION
    * STEPS apart, some drawn off a table point and a few off everything."""
    table = []
    for _ in range(draw(st.integers(1, 4))):
        anchor = np.array(
            [*draw(st.lists(st.floats(-1, 1), min_size=3, max_size=3)),
             draw(st.sampled_from([1.0, 2.0]))]
        )
        table.append(anchor)
        for _ in range(draw(st.integers(0, 3))):
            q = anchor.copy()
            step = SEPARATION * draw(st.sampled_from(STEPS))
            q[draw(st.integers(0, 2))] += draw(st.sampled_from([-step, step]))
            table.append(q)
    M = _shift(SEPARATION * draw(st.sampled_from(STEPS)))

    def pick(rng):
        return table[int(rng.uniform() * len(table))]

    def off_first(p):
        return float(np.linalg.norm(p - table[0]))

    steps, key = [], 0
    for _ in range(draw(st.integers(1, 8))):
        keys = tuple(range(key, key + draw(st.integers(1, 4))))
        key += len(keys)
        kind = draw(st.sampled_from(["pinned", "drawn", "drawn", "off table[0]", "off all"]))
        event(kind)
        if kind == "pinned":
            steps.append((keys, draw(st.sampled_from(table))))
        elif kind == "drawn":
            steps.append((keys, pick))
        else:
            steps.append((keys, pick, (off_first,) if kind == "off table[0]" else (_never,)))
    return M, steps, draw(st.integers(0, 2**64 - 1))


def _outcome(placer, steps) -> str:
    try:
        placer.place(steps)
    except (PlacementFailure, TooLarge) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "placed"


@given(placements())
@settings(max_examples=300, deadline=None)
def test_grid_placer_places_what_the_dense_sequential_oracle_places(placement):
    M, steps, seed = placement
    shape = BipartiteShape(sum(len(keys) for keys, *_ in steps), 1)
    expected = SequentialPlacer(M, shape, SeededPoints(seed))
    placer = _Placer(M, shape, SeededPoints(seed))
    outcome = _outcome(placer, steps)
    assert outcome == _outcome(expected, steps)
    event(outcome.split(" through")[0])
    assert placer.rows == expected.rows
    n = len(expected.rows)
    assert placer.points[:n].tobytes() == expected.points[:n].tobytes()
    assert placer.rng.state == expected.rng.state


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_saved_state_replays_the_draws(seed):
    # the generator's whole state is one int: setting it back replays the
    # draws bit for bit
    rng = SeededPoints(seed)
    rng.unit4()
    saved = rng.state
    draws = [rng.unit4(), rng.unit_on_sphere(), rng.angle(), rng.unit4()]
    after = rng.state
    rng.state = saved
    again = [rng.unit4(), rng.unit_on_sphere(), rng.angle(), rng.unit4()]
    assert rng.state == after
    for a, b in zip(draws, again):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


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
                    validate(realize(representative(sig), orientation, seed)[1])
