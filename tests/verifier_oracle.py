"""Per-power reference verifier, kept as a differential oracle.

This is the loop version of ``bipsym.verifier.verify``: it builds every power
of the matrix, one fixed subspace per power, and checks edges and powers in
Python loops.  Nothing under ``src/`` calls it; tests require that its
certificates serialize to the same bytes as the array version's.
"""

from __future__ import annotations

import math

import numpy as np

from bipsym.classifier import Orientation
from bipsym.core import BipartiteAutomorphism, Part, VertexId
from bipsym.errors import PreconditionError, ShapeMismatch
from bipsym.geometry import (
    IDENTITY_GAP,
    ORTHOGONALITY_TOL,
    SEPARATION,
    SUBSPACE_TOL,
    Isometry4,
    SpatialEmbedding,
)
from bipsym.verifier import (
    CheckResult,
    RealizationCertificate,
    fixed_subspace,
    subspace_distance,
)
from labelled import coordinates_of, subdivision_coordinates_of, subdivision_edges_of
from topology_checks import _KIND_BY_DIM, FixedSetKind


def _normalize_edge(a: VertexId, b: VertexId) -> tuple[VertexId, VertexId]:
    return (a, b) if a.part is Part.V else (b, a)


def _subdivided_edges(shape, subdivision_vertices):
    """Edges of K_{n,m} with the (V-endpoint, W-endpoint) edges of the
    ``(edge, id)`` records subdivided at their ids; ValueError when an edge
    carries two of them."""
    by_edge = {}
    for (a, b), z in subdivision_vertices:
        if (a, b) in by_edge:
            raise ValueError(f"edge ({a.label}, {b.label}) subdivided twice")
        by_edge[a, b] = z
    edges = []
    for i in range(1, shape.n + 1):
        for j in range(1, shape.m + 1):
            v, w = VertexId(Part.V, i), VertexId(Part.W, j)
            z = by_edge.get((v, w))
            edges += [(v, w)] if z is None else [(v, z), (z, w)]
    return edges


class _Verification:
    """Working state shared by the individual checks of verify()."""

    def __init__(self, aut, iso, emb, tol):
        self.aut = aut
        self.iso = iso
        self.tol = tol
        self.coordinates = coordinates_of(emb)
        self.subdivision_coordinates = subdivision_coordinates_of(emb)
        self.subdivision_edges = subdivision_edges_of(emb)
        self.names: list = [v for v in aut.shape.vertices()]
        self.zids = sorted(self.subdivision_coordinates)
        self.names += self.zids
        self.index = {k: i for i, k in enumerate(self.names)}
        self.n_graph = aut.shape.size  # indices below this are graph vertices
        self.P = np.array(
            [
                self.coordinates[k] if isinstance(k, VertexId)
                else self.subdivision_coordinates[k]
                for k in self.names
            ]
        )
        r = iso.claimed_order
        self.powers = [None]  # powers[i] = matrix^i
        A = np.eye(4)
        for _ in range(r):
            A = A @ iso.matrix
            self.powers.append(A)
        self.bases = {i: fixed_subspace(self.powers[i]) for i in range(1, r)}
        # point_fixed[i][k]: matrix^i fixes embedded point k within tol
        self.point_fixed = {
            i: np.linalg.norm(self.P @ self.powers[i].T - self.P, axis=1) <= tol
            for i in range(1, r)
        }
        self.adjacency = self._adjacency()

    def _adjacency(self) -> list[tuple[int, int]]:
        """Edges of the subdivided graph as index pairs."""
        records = sorted(self.subdivision_edges.items())
        edges = _subdivided_edges(
            self.aut.shape, [(_normalize_edge(*e), z) for z, e in records]
        )
        return [(self.index[a], self.index[b]) for a, b in edges]

    def image_index(self, k: int) -> int | None:
        """Index of the image of embedded point k under the automorphism,
        extended over subdivision vertices; None when the subdivision set is
        not closed under the automorphism."""
        key = self.names[k]
        if isinstance(key, VertexId):
            return self.index[self.aut(key)]
        v, w = self.subdivision_edges[key]
        img = _normalize_edge(self.aut(v), self.aut(w))
        for z, e in self.subdivision_edges.items():
            if _normalize_edge(*e) == img:
                return self.index[z]
        return None


def verify(
    aut: BipartiteAutomorphism,
    iso: Isometry4,
    emb: SpatialEmbedding,
    tol: float = 1e-9,
) -> RealizationCertificate:
    """Check that (iso, emb) realizes aut; returns a pass/fail certificate.

    The certificate always contains the checks: unit_norm, orthogonal,
    order, orientation, induces, eel1, eel2, eel3, eel4.
    """
    if aut.shape != emb.shape:
        raise ShapeMismatch(f"automorphism {aut.shape} vs embedding {emb.shape}")
    if iso.claimed_order < 1:
        raise PreconditionError(f"claimed order must be positive, got {iso.claimed_order}")
    missing = [v for v in aut.shape.vertices() if v not in coordinates_of(emb)]
    if missing:
        raise ShapeMismatch(f"embedding lacks coordinates for {missing[0].label}")
    for e in subdivision_edges_of(emb).values():
        if {e[0].part, e[1].part} != {Part.V, Part.W} or not all(
            aut.shape.contains(x) for x in e
        ):
            raise ShapeMismatch(f"subdivision edge {e} is not an edge of the graph")

    try:
        st = _Verification(aut, iso, emb, tol)
    except ValueError as exc:  # e.g. an edge subdivided twice
        raise ShapeMismatch(str(exc)) from exc
    M = iso.matrix
    r = iso.claimed_order
    checks = [
        _check_unit_norm(st),
        _check_orthogonal(M),
        _check_order(st, r),
        _check_orientation(M, iso.orientation),
        _check_induces(st),
        _check_eel1(st, r),
        _check_eel2(st, r),
        _check_eel3(st, r),
        _check_eel4(st, r),
    ]
    return RealizationCertificate(tuple(checks))


def _check_unit_norm(st) -> CheckResult:
    dev = float(np.abs(np.linalg.norm(st.P, axis=1) - 1.0).max())
    return CheckResult(
        "unit_norm",
        dev <= ORTHOGONALITY_TOL,
        f"max |norm - 1| = {dev:.3g}",
        dev,
    )


def _check_orthogonal(M: np.ndarray) -> CheckResult:
    dev = float(np.abs(M.T @ M - np.eye(4)).max())
    return CheckResult(
        "orthogonal", dev <= ORTHOGONALITY_TOL, f"max |M^T M - I| = {dev:.3g}", dev
    )


def _check_order(st, r: int) -> CheckResult:
    final = float(np.abs(st.powers[r] - np.eye(4)).max())
    ok = final <= st.tol
    early = None
    for i in range(1, r):
        dev = float(np.abs(st.powers[i] - np.eye(4)).max())
        if dev <= IDENTITY_GAP:
            early = i
            ok = False
            break
    detail = f"|M^{r} - I| = {final:.3g}"
    if early is not None:
        detail += f"; M^{early} is already the identity"
    return CheckResult("order", ok, detail, final)


def _check_orientation(M: np.ndarray, orientation: Orientation) -> CheckResult:
    det = float(np.linalg.det(M))
    want = 1.0 if orientation is Orientation.OP else -1.0
    ok = abs(det - want) <= 1e-9
    return CheckResult(
        "orientation", ok, f"det = {det:.17g}, expected {want:+.0f}", det
    )


def _check_induces(st) -> CheckResult:
    K = len(st.names)
    diff = st.P[:, None, :] - st.P[None, :, :]
    dists = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(dists, np.inf)
    min_sep = float(dists.min()) if K > 1 else math.inf
    Q = st.P @ st.iso.matrix.T
    move = np.linalg.norm(Q[:, None, :] - st.P[None, :, :], axis=2)
    nearest = move.argmin(axis=1)
    worst = 0.0
    ok = min_sep >= SEPARATION
    detail = []
    if not ok:
        detail.append(f"min separation {min_sep:.3g} < 1e-6")
    for k in range(K):
        target = st.image_index(k)
        if target is None:
            ok = False
            detail.append(f"subdivision set not closed at {st.names[k]}")
            continue
        d = float(move[k, target])
        worst = max(worst, d)
        if nearest[k] != target or d > st.tol:
            ok = False
            got = st.names[nearest[k]]
            want = st.names[target]
            detail.append(
                f"M*{_label(st.names[k])} matched {_label(got)}, wanted "
                f"{_label(want)} (dist {d:.3g})"
            )
    return CheckResult(
        "induces",
        ok,
        "; ".join(detail) if detail else
        f"max image deviation {worst:.3g}, min separation {min_sep:.3g}",
        worst,
    )


def _label(key) -> str:
    return key.label if isinstance(key, VertexId) else str(key)


def _check_eel1(st, r: int) -> CheckResult:
    worst = 0.0
    bad = []
    for a, b in st.adjacency:
        fixing = [i for i in range(1, r) if st.point_fixed[i][a] and st.point_fixed[i][b]]
        for i in fixing[1:]:
            b0, bi = st.bases[fixing[0]], st.bases[i]
            if b0.shape[1] != bi.shape[1]:
                bad.append((a, b, fixing[0], i))
                continue
            d = subspace_distance(b0, bi)
            worst = max(worst, d)
            if d > SUBSPACE_TOL:
                bad.append((a, b, fixing[0], i))
    ok = not bad
    detail = (
        f"{len(bad)} co-fixed adjacent pairs with different fixed sets"
        if bad
        else f"fixed-set agreement within {worst:.3g}"
    )
    return CheckResult("eel1", ok, detail, worst)


def _check_eel2(st, r: int) -> CheckResult:
    bad = []
    for i in range(1, r):
        Q = st.P @ st.powers[i].T
        for a, b in st.adjacency:
            if (
                np.linalg.norm(Q[a] - st.P[b]) <= st.tol
                and np.linalg.norm(Q[b] - st.P[a]) <= st.tol
            ):
                bad.append((i, a, b))
    detail = (
        "; ".join(
            f"M^{i} interchanges {_label(st.names[a])},{_label(st.names[b])}"
            for i, a, b in bad
        )
        if bad
        else "no adjacent pair interchanged by any power"
    )
    return CheckResult("eel2", not bad, detail, float(len(bad)))


def _part_counts(st, members) -> tuple[int, int, int]:
    nv = sum(
        1 for k in members
        if isinstance(st.names[k], VertexId) and st.names[k].part is Part.V
    )
    nw = sum(
        1 for k in members
        if isinstance(st.names[k], VertexId) and st.names[k].part is Part.W
    )
    nz = len(members) - nv - nw
    return nv, nw, nz


def _check_eel3(st, r: int) -> CheckResult:
    problems = []
    for i in range(1, r):
        basis = st.bases[i]
        kind = _KIND_BY_DIM[basis.shape[1]]
        on = [k for k in range(len(st.names)) if st.point_fixed[i][k]]
        on_set = set(on)
        pairs = [(a, b) for a, b in st.adjacency if a in on_set and b in on_set]
        if not pairs:
            continue
        if kind in (FixedSetKind.EMPTY, FixedSetKind.TWO_POINTS):
            # a discrete fixed set contains no arc between distinct points
            problems.append(
                f"power {i}: adjacent pair fixed by a power whose fixed set "
                "contains no arcs"
            )
        elif kind is FixedSetKind.CIRCLE:
            nv, nw, _ = _part_counts(st, on)
            if nv > 2 or nw > 2:
                problems.append(f"power {i}: {nv}+{nw} vertices of a part on circle")
                continue
            angles = {k: math.atan2(*(st.P[k] @ basis)[::-1]) for k in on}
            ring = sorted(on, key=lambda k: angles[k])
            pos = {k: t for t, k in enumerate(ring)}
            for a, b in pairs:
                gap = (pos[a] - pos[b]) % len(ring)
                if gap not in (1, len(ring) - 1):
                    problems.append(
                        f"power {i}: no free arc between "
                        f"{_label(st.names[a])} and {_label(st.names[b])}"
                    )
        elif kind is FixedSetKind.SPHERE:
            nv, nw, nz = _part_counts(st, on)
            if nz:
                problems.append(
                    f"power {i}: subdivision vertices on a fixed sphere, "
                    "arc pattern indeterminate"
                )
            elif min(nv, nw) > 2:
                problems.append(
                    f"power {i}: K_{{{nv},{nw}}} on a fixed sphere is non-planar"
                )
    ok = not problems
    return CheckResult(
        "eel3",
        ok,
        "; ".join(problems) if problems else "arc conditions satisfied on all fixed sets",
        float(len(problems)),
    )


def _check_eel4(st, r: int) -> CheckResult:
    problems = []
    v_idx = [st.index[v] for v in st.aut.shape.vertices() if v.part is Part.V]
    w_idx = [st.index[v] for v in st.aut.shape.vertices() if v.part is Part.W]
    for i in range(1, r):
        if st.bases[i].shape[1] != 3:
            continue
        fixed = st.point_fixed[i]
        if not (all(fixed[k] for k in v_idx) or all(fixed[k] for k in w_idx)):
            problems.append(f"power {i}: neither part lies in the fixed sphere")
    return CheckResult(
        "eel4",
        not problems,
        "; ".join(problems) if problems else "every fixed sphere contains a full part",
        float(len(problems)),
    )
