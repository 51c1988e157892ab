"""The fast paths of ``bipsym.geometry`` against the plain code they
replace, bit for bit.

Realizations are pinned to their bytes (``GOLDEN_SHA256`` and the CI
digests), so each shortcut that construction and placement take must give
exactly what the plain computation gives:

* the isometry constructors build each matrix with one ``np.array`` of the
  turn's cos and sin; ``_rot2`` and ``_block`` below are the 2 x 2 blocks
  and the zero-filled 4 x 4 assembly they replace;
* ``turn_order`` reads the fraction's denominator, that of f % 1;
* ``SeededPoints.unit4`` and ``unit_on_sphere`` run ``uniform``'s steps and
  the Box-Muller formula inline; ``reference_unit`` draws through
  ``uniform()``, one Gaussian at a time;
* ``_Placer.place`` writes each orbit row with ``np.dot(M, x, out=row)``,
  which must equal ``M @ x``;
* a drawn point's landmark distances read it as Python floats;
* ``_Placer._admit`` measures a new point against the rows of its cell
  with ``_row_distances``, which must have ``_distances``' bits.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipsym.geometry import (
    SEPARATION,
    SeededPoints,
    _distances,
    _row_distances,
    dist_to_f,
    dist_to_sphere,
    dist_to_x,
    dist_to_y,
    glide_isometry,
    improper_isometry,
    reflection_isometry,
    rotation_isometry,
    turn_order,
)


def _rot2(f: Fraction) -> np.ndarray:
    a = 2.0 * math.pi * float(f)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s], [s, c]])


def _block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    M = np.zeros((4, 4))
    M[:2, :2] = a
    M[2:, 2:] = b
    return M


FLIP = np.diag([1.0, -1.0])
# every turn fraction in [0, 1) with denominator at most 24
TURNS = sorted({Fraction(p, q) for q in range(1, 25) for p in range(q)})


def _same_matrix(M: np.ndarray, expected: np.ndarray) -> None:
    assert M.dtype == np.float64 and M.shape == (4, 4) and M.flags.c_contiguous
    assert not M.flags.writeable
    assert M.tobytes() == expected.tobytes()


def test_reflection_matrix_has_the_block_bits():
    _same_matrix(reflection_isometry().matrix, _block(np.eye(2), FLIP))


@pytest.mark.parametrize("r", range(1, 25))
def test_rotation_matrix_has_the_block_bits(r):
    _same_matrix(rotation_isometry(r).matrix, _block(_rot2(Fraction(1, r)), np.eye(2)))


@pytest.mark.parametrize("theta", TURNS, ids=str)
def test_improper_and_glide_matrices_have_the_block_bits(theta):
    order = math.lcm(theta.denominator, 2)
    _same_matrix(improper_isometry(theta, order).matrix, _block(_rot2(theta), FLIP))
    for beta in TURNS:
        iso = glide_isometry(theta, beta, math.lcm(theta.denominator, beta.denominator))
        _same_matrix(iso.matrix, _block(_rot2(theta), _rot2(beta)))


turns = st.fractions(-(10**6), 10**6, max_denominator=10**9) | st.integers(-(10**6), 10**6)


@given(turns, turns)
@settings(max_examples=300, deadline=None)
def test_drawn_turns_have_the_block_bits(alpha, beta):
    # negative and improper fractions, whole turns and huge denominators
    a, b = Fraction(alpha), Fraction(beta)
    iso = glide_isometry(alpha, beta, math.lcm(turn_order(a), turn_order(b)))
    _same_matrix(iso.matrix, _block(_rot2(a), _rot2(b)))
    iso = improper_isometry(alpha, math.lcm(turn_order(a), 2))
    _same_matrix(iso.matrix, _block(_rot2(a), FLIP))


@given(turns)
@settings(max_examples=500, deadline=None)
def test_turn_order_is_the_denominator_of_the_turn_mod_one(f):
    assert turn_order(f) == (Fraction(f) % 1).denominator


def test_turn_order_of_negative_and_improper_fractions():
    for f in (Fraction(-1, 3), Fraction(7, 3), Fraction(-7, 3), Fraction(4, 2), -5, 0):
        assert turn_order(f) == (Fraction(f) % 1).denominator
    assert [turn_order(Fraction(-1, 3)), turn_order(Fraction(7, 3)), turn_order(-5)] == [3, 3, 1]


def _gaussian(rng: SeededPoints) -> float:
    u1 = 1.0 - rng.uniform()
    u2 = rng.uniform()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def reference_unit(rng: SeededPoints, gaussians: int) -> np.ndarray:
    """A unit draw as ``unit4`` (4 Gaussians) and ``unit_on_sphere`` (3 and
    a zero) made it one ``uniform()`` at a time."""
    while True:
        p = np.array([_gaussian(rng) for _ in range(gaussians)] + [0.0] * (4 - gaussians))
        norm = np.linalg.norm(p)
        if norm > 1e-3:
            return p / norm


def _draw(rng: SeededPoints, kind: str) -> np.ndarray:
    return rng.unit4() if kind == "unit4" else rng.unit_on_sphere()


@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.sampled_from(["unit4", "unit_on_sphere"]), min_size=1, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_inline_draws_match_draws_through_uniform(seed, kinds):
    rng, ref = SeededPoints(seed), SeededPoints(seed)
    for kind in kinds:
        got = _draw(rng, kind)
        want = reference_unit(ref, 4 if kind == "unit4" else 3)
        assert got.tobytes() == want.tobytes()
        assert rng.state == ref.state


@pytest.mark.parametrize("kind", ["unit4", "unit_on_sphere"])
@pytest.mark.parametrize("tiny", [1, 3, 4, 9])
def test_inline_draws_redraw_as_the_reference_does(kind, tiny):
    # a draw whose norm is at most 1e-3 is redrawn, from the state it left;
    # a cos that returns 1e-9 for its first `tiny` calls makes the first
    # draw (3 or 4 Gaussians) short for tiny >= 3 or 4, and never otherwise
    def patched():
        calls = [0]

        def cos(x):
            calls[0] += 1
            return 1e-9 if calls[0] <= tiny else real_cos(x)

        return mock.patch("math.cos", cos)

    real_cos = math.cos
    rng, ref = SeededPoints(5), SeededPoints(5)
    with patched():
        got = _draw(rng, kind)
    with patched():
        want = reference_unit(ref, 4 if kind == "unit4" else 3)
    assert got.tobytes() == want.tobytes()
    assert rng.state == ref.state
    unredrawn = SeededPoints(5)
    _draw(unredrawn, kind)
    assert (rng.state != unredrawn.state) == (tiny >= (4 if kind == "unit4" else 3))


def _orthogonal(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(4, 4)))
    return q * np.sign(np.diag(r))


@given(st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_dot_into_a_row_is_matmul(seed):
    # place writes each orbit row with np.dot(M, previous row, out=row)
    rng = np.random.default_rng(seed)
    matrices = [_orthogonal(rng), rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-3, 3)]
    matrices.append(glide_isometry(Fraction(1, 12), Fraction(5, 7), 84).matrix)
    rows = np.empty((3, 4))
    for M in matrices:
        x = rng.normal(size=4) * 10.0 ** rng.uniform(-8, 1)
        rows[0] = x
        for i in (1, 2):
            np.dot(M, rows[i - 1], out=rows[i])
        assert rows[1].tobytes() == (M @ x).tobytes()
        assert rows[2].tobytes() == (M @ (M @ x)).tobytes()


@given(st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_landmark_distances_read_floats_as_they_read_the_array(seed):
    # place measures a drawn point's landmark distances on p.tolist()
    rng = np.random.default_rng(seed)
    p = rng.normal(size=4)
    p /= np.linalg.norm(p)
    if rng.integers(2):  # near a landmark set, or on it
        p[rng.integers(4)] = rng.choice([0.0, 1.0, -1.0, rng.normal() * 1e-6])
    for dist in (dist_to_x, dist_to_y, dist_to_sphere, dist_to_f):
        want, got = dist(p), dist(p.tolist())
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@given(st.integers(0, 60), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_row_distances_from_one_point_have_the_block_bits(placed, seed):
    # _admit measures a new point against the rows of its cell: pairs near
    # SEPARATION, at scales from 1e-8 to 1, and the point itself
    rng = np.random.default_rng(seed)
    p = rng.normal(size=4) * 10.0 ** rng.uniform(-8, 0)
    pts = rng.normal(size=(placed + 2, 4)) * 10.0 ** rng.uniform(-8, 0, size=(placed + 2, 1))
    near = SEPARATION * rng.choice([0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0], size=(placed, 1))
    pts[:placed] = p + near * rng.normal(size=(placed, 4)) / math.sqrt(4)
    pts[placed] = p
    expected = _distances(p[None], pts)[0]
    assert _row_distances(p[None], pts).tobytes() == expected.tobytes()
    assert _row_distances(p, pts).tobytes() == expected.tobytes()
    assert ((_row_distances(p, pts) < SEPARATION) == (expected < SEPARATION)).all()
