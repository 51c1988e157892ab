"""verify's induces check against the full distance block, on the boundaries
of its shortcut.

``bipsym.verifier._check_induces`` measures the points against each other,
and each image M x_k against x_π(k) alone.  When unit_norm and orthogonal
pass, every target exists, the largest deviation is within tol and the
minimum separation exceeds twice it by the rounding allowance, x_π(k) is
each image's nearest point and the image block is never built; otherwise
the check builds it and matches every image to its nearest point.
``induces_oracle.check_induces`` always builds the block.  On every case
below the two must give the same ``CheckResult``, ``step`` and ``min_sep``,
bit for bit; each case also pins which path the check took.
"""

import math
import tracemalloc

import numpy as np
import pytest

import bipsym.verifier
from bipsym import (
    BipartiteShape,
    Isometry4,
    Orientation,
    VertexId,
    parse_cycles,
    realize,
    verify,
)
from bipsym.verifier import (
    _ROUNDING,
    _check_induces,
    _check_orthogonal,
    _check_unit_norm,
    _Verification,
)

from automorphism_ops import identity_automorphism
from induces_oracle import check_induces
from labelled import embedding_from_labels, subdivision_edges_of

SHAPE = BipartiteShape(3, 3)
IDENTITY = identity_automorphism(SHAPE)
PHI = 0.5  # the angle between v1 and v2, the closest pair of points


def near_pair(coincident: bool = False):
    """v1 at angle 0 and v2 at angle PHI on the circle of the first plane,
    the other four points a quarter turn apart on the circle of the second,
    which turning() fixes exactly; with ``coincident``, w1 on v3."""
    rows = [[1.0, 0.0, 0.0, 0.0], [math.cos(PHI), math.sin(PHI), 0.0, 0.0]]
    rows += [[0.0, 0.0, math.cos(a), math.sin(a)] for a in np.arange(4) * math.pi / 2]
    if coincident:
        rows[3] = rows[2]
    return embedding_from_labels(SHAPE, dict(zip(SHAPE.vertices(), np.array(rows))))


def turning(theta: float) -> Isometry4:
    """The rotation by ``theta`` of the first plane: it moves v1 by
    2 sin(theta / 2) towards v2, and v2 away from v1."""
    M = np.eye(4)
    M[:2, :2] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    return Isometry4(M, 1, Orientation.OP)


def compare(monkeypatch, aut, iso, emb, tol, bounded=None):
    """(whether the shortcut was taken, the CheckResult) of ``_check_induces``
    on the triple, after asserting it and the state it sets equal the
    oracle's.  ``bounded`` defaults to what verify passes: unit_norm and
    orthogonal both passed."""
    ours = _Verification(aut, iso, emb, tol)
    if bounded is None:
        bounded = _check_unit_norm(ours).passed and _check_orthogonal(iso.matrix).passed
    blocks = []
    real = bipsym.verifier._distances

    def counting(new, placed):
        blocks.append(len(new))
        return real(new, placed)

    monkeypatch.setattr(bipsym.verifier, "_distances", counting)
    got = _check_induces(ours, bounded)
    monkeypatch.undo()
    dense = _Verification(aut, iso, emb, tol)
    want = check_induces(dense)
    # repr shows every float to its last bit, NaN included
    assert repr(got) == repr(want)
    assert repr((ours.step, ours.min_sep)) == repr((dense.step, dense.min_sep))
    assert len(blocks) in (1, 2)
    return len(blocks) == 1, got


def turning_by(k: int, near_midpoint: bool) -> float:
    """``k`` steps of 2^-52 from the angle where twice v1's deviation equals
    the separation of v1 and v2, or from PHI / 2, where M v1 lies as near v2
    as v1."""
    anchor = PHI / 2 if near_midpoint else 2 * math.asin(math.sin(PHI / 2) / 2)
    return anchor + k * 2.0**-52


def test_separation_within_ulps_of_twice_the_deviation(monkeypatch):
    # the shortcut needs min separation > 2 * step + _ROUNDING: it is taken
    # exactly there, and where it declines the block matches every image
    margins = {}
    for k in range(-16, 9):
        iso = turning(turning_by(k, False))
        shortcut, got = compare(monkeypatch, IDENTITY, iso, near_pair(), 0.5)
        assert got.passed
        st = _Verification(IDENTITY, iso, near_pair(), 0.5)
        check_induces(st)
        margins[k] = (st.min_sep - 2 * st.step) / _ROUNDING
        assert shortcut is (margins[k] > 1)
    assert margins[-16] > 1 >= margins[-8]  # both paths are taken
    assert min(map(abs, margins.values())) < 0.1  # 0.49 within a few ulps of 2 * step


@pytest.mark.parametrize("k", [-4, -1, 0, 1, 4])
def test_image_at_the_midpoint_of_the_closest_pair(monkeypatch, k):
    # from PHI / 2 on, M v1 is as near v2 as v1 or nearer, and the block
    # matches it to v2; the shortcut is far off either way
    shortcut, got = compare(monkeypatch, IDENTITY, turning(turning_by(k, True)), near_pair(), 0.5)
    assert not shortcut
    assert got.passed is (k < 0)
    if k >= 0:
        assert got.detail.startswith("M*v1 matched v2, wanted v1")


def test_tol_at_the_step_near_half_the_separation(monkeypatch):
    # the step is 0.247, just under half the separation 0.495: a tol one ulp
    # under it fails v1 on its distance, from the block; at the step and
    # above, and at half the separation, the shortcut passes
    iso = turning(turning_by(-64, False))
    st = _Verification(IDENTITY, iso, near_pair(), 0.5)
    check_induces(st)
    step, sep = st.step, st.min_sep
    tols = [np.nextafter(step, 0.0), step, np.nextafter(step, 1.0), sep / 2]
    results = [compare(monkeypatch, IDENTITY, iso, near_pair(), float(t)) for t in tols]
    assert [(shortcut, got.passed) for shortcut, got in results] == [
        (False, False), (True, True), (True, True), (True, True)
    ]
    assert results[0][1].detail.startswith("M*v1 matched v1, wanted v1")


def test_coincident_points(monkeypatch):
    # separation 0: the block matches w1's image to v3, the first of the two
    shortcut, got = compare(monkeypatch, IDENTITY, turning(0.1), near_pair(coincident=True), 0.5)
    assert not shortcut and not got.passed
    assert got.detail.startswith("min separation 0 < 1e-6; M*w1 matched v3, wanted w1")


def test_coincident_points_swapped(monkeypatch):
    # v1 and v2 at one point, which M = I fixes, and π swaps them: every
    # deviation is 0, but v1's image matches v1
    aut = parse_cycles(SHAPE, "(v1 v2)")
    emb = near_pair()
    emb.points[1] = emb.points[0]
    shortcut, got = compare(monkeypatch, aut, turning(0.0), emb, 1e-9)
    assert not shortcut and not got.passed
    assert "M*v1 matched v1, wanted v2 (dist 0)" in got.detail


@pytest.mark.parametrize("bounded", [None, True])
@pytest.mark.parametrize("where", ["point", "matrix"])
def test_nan_coordinates(monkeypatch, where, bounded):
    # a NaN in the points makes the separation and a deviation NaN, in the
    # matrix every deviation; either fails the shortcut's comparisons, even
    # when told that unit_norm and orthogonal passed
    emb, iso = near_pair(), turning(0.1)
    if where == "point":
        emb.points[4, 2] = math.nan
    else:
        M = np.array(iso.matrix)
        M[0, 0] = math.nan
        iso = Isometry4(M, 1, Orientation.OP)
    shortcut, got = compare(monkeypatch, IDENTITY, iso, emb, 1e-9, bounded)
    assert not shortcut and not got.passed


def test_subdivision_set_not_closed(monkeypatch):
    aut = parse_cycles(SHAPE, "(v1 w1 v2 w2 v3 w3)")
    iso, emb = realize(aut, "op", seed=1)
    shortcut, got = compare(monkeypatch, aut, iso, emb, 1e-9)
    assert shortcut and got.passed
    # move one subdivision vertex's edge to an edge with none
    edges = subdivision_edges_of(emb)
    z = sorted(edges)[0]
    v = edges[z][0]
    free = next(
        w for w in SHAPE.vertices() if w.part != v.part and (v, w) not in edges.values()
    )
    pairs = dict(zip(emb.subdivision_ids, emb.subdivision_pairs))
    pairs[z] = tuple(map(SHAPE.global_index, (v, free)))
    emb.subdivision_pairs = tuple(pairs.values())
    shortcut, got = compare(monkeypatch, aut, iso, emb, 1e-9)
    assert not shortcut and not got.passed
    assert "subdivision set not closed at " in got.detail


def test_unclosed_subdivision_vertex_that_m_fixes(monkeypatch):
    # M reflects v1 onto v2 in the mirror x1 = 0, which holds every other
    # point: every deviation is 0, also z's, whose target is missing and
    # read as the last point, z itself.  π sends z's edge (v1, w1) to (v2,
    # w1), which carries no subdivision vertex, so the block must fail it
    points = {
        "v1": [0.6, 0.8, 0.0, 0.0], "v2": [-0.6, 0.8, 0.0, 0.0], "v3": [0.0, 0.0, 1.0, 0.0],
        "w1": [0.0, 0.0, 0.0, 1.0], "w2": [0.0, 0.0, -1.0, 0.0], "w3": [0.0, 0.0, 0.0, -1.0],
    }
    emb = embedding_from_labels(
        SHAPE,
        {v: np.array(points[v.label]) for v in SHAPE.vertices()},
        {"z": np.array([0.0, 1.0, 0.0, 0.0])},
        {"z": (VertexId.from_label("v1"), VertexId.from_label("w1"))},
    )
    iso = Isometry4(np.diag([-1.0, 1.0, 1.0, 1.0]), 2, Orientation.OR)
    shortcut, got = compare(monkeypatch, parse_cycles(SHAPE, "(v1 v2)"), iso, emb, 1e-9)
    assert not shortcut and not got.passed
    assert got.detail == "subdivision set not closed at z"


def test_unbounded_points_take_the_block(monkeypatch):
    # v1 pushed off the sphere fails unit_norm: verify passes bounded False,
    # so the check builds the block although the deviations are all tiny
    emb = near_pair()
    emb.points[0] *= 1 + 1e-6
    shortcut, got = compare(monkeypatch, IDENTITY, turning(0.0), emb, 1e-9)
    assert not shortcut and got.passed


def test_verify_of_k600_peaks_below_20_k_squared_bytes():
    # a passing certificate holds one K x K distance block of the points and
    # its scratch array, 16 K^2 bytes; the image block is never built
    perm = "".join(
        "(" + " ".join(f"{p}{i}" for i in range(s, s + 10)) + ")"
        for p in "vw"
        for s in range(1, 601, 10)
    )
    aut = parse_cycles(BipartiteShape(600, 600), perm)
    iso, emb = realize(aut, "op", seed=1)
    K = 1200
    tracemalloc.start()
    try:
        cert = verify(aut, iso, emb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.overall
    assert peak < 20 * K**2, peak / K**2
