"""Independent certificate checks for (automorphism, isometry, embedding) triples.

verify() re-derives everything from the raw matrix and coordinates: matrix
invariants, the induced vertex permutation via nearest-neighbour matching,
the fixed-point sets of the powers of the matrix, and the hypotheses of the
edge-embedding conditions (named eel1-eel4 in the certificate).  Nothing is
trusted from the construction that produced the triple.

Each check runs on arrays stacked over the powers M^0..M^r of the matrix
(r the claimed order) and over the embedded points.  Fixed sets are worked
out once per proper divisor of r, not once per power: when M^r = I, the
powers M^i and M^g with g = gcd(i, r) generate the same cyclic group (g is
an integer combination of i and r, and i is a multiple of g), and a point is
fixed by a power exactly when the group that power generates fixes it.  So
M^i has the fixed subspace and the fixed points of M^g, and a finding about
M^g is reported for every power i with gcd(i, r) = g.  When M^r is not the
identity the order check fails, and the certificate with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import Orientation
from .core import BipartiteAutomorphism, Part
from .errors import PreconditionError, ShapeMismatch, TooLarge
from .geometry import (
    DET_TOL,
    IDENTITY_GAP,
    ORTHOGONALITY_TOL,
    SEPARATION,
    SUBSPACE_TOL,
    Isometry4,
    SpatialEmbedding,
)

_POWER_BLOCK = 1024  # powers per block of the eel2 comparison, bounding its memory


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    measured: float | None = None


@dataclass(frozen=True)
class RealizationCertificate:
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def fixed_subspace(A: np.ndarray, tol: float = SUBSPACE_TOL) -> np.ndarray:
    """Orthonormal basis (4 x d) of the +1-eigenspace of an orthogonal A.

    Its dimension d = 0, 1, 2, 3, 4 makes the fixed set in S^3 empty, two
    points, a circle, a sphere or all of S^3.
    """
    _, s, vh = np.linalg.svd(A - np.eye(4))
    d = int(np.sum(s <= tol))
    if d == 0:
        return np.zeros((4, 0))
    return vh[4 - d :].T


def subspace_distance(b1: np.ndarray, b2: np.ndarray) -> float:
    """sin of the largest principal angle (2-norm of projector difference)."""
    p1 = b1 @ b1.T
    p2 = b2 @ b2.T
    return float(np.linalg.norm(p1 - p2, 2))


def _proper_divisors(r: int) -> list[int]:
    """Divisors d < r of r, ascending."""
    small = [d for d in range(1, math.isqrt(r) + 1) if r % d == 0]
    return sorted({*small, *(r // d for d in small)} - {r})


class _Verification:
    """Working state shared by the individual checks of verify().

    Points are indexed by global index for graph vertices, then from
    ``n_graph`` on by subdivision id in sorted order (``zids``).  Rows of
    ``point_fixed``, ``edge_fixed`` and ``bases`` belong to the proper
    divisors of the claimed order.
    """

    def __init__(self, aut, iso, emb, tol):
        self.aut = aut
        self.iso = iso
        self.tol = tol
        self.n_graph = aut.shape.size  # indices below this are graph vertices
        self.zids = sorted(emb.subdivision_coordinates)
        self.P = np.array(
            [emb.coordinates[v] for v in aut.shape.vertices()]
            + [emb.subdivision_coordinates[z] for z in self.zids]
        )
        r = iso.claimed_order
        # powers[i] = matrix^i by repeated multiplication, whose exact bits
        # the order check reports
        self.powers = np.empty((r + 1, 4, 4))
        A = np.eye(4)
        self.powers[0] = A
        for i in range(1, r + 1):
            A = A @ iso.matrix
            self.powers[i] = A
        # images[i, k] = matrix^i applied to point k
        self.images = np.einsum("ikl,pl->ipk", self.powers, self.P)
        self.gcd = np.gcd(np.arange(r), r)  # gcd[i] = gcd(i, r) for powers i < r
        self.divisors = _proper_divisors(r)
        self.bases = [fixed_subspace(self.powers[d]) for d in self.divisors]
        # point_fixed[j, k]: the power divisors[j] fixes point k within tol
        self.point_fixed = (
            np.linalg.norm(self.images[self.divisors] - self.P, axis=2) <= tol
        )
        self.edge_a, self.edge_b = self._adjacency(emb.subdivision_edges)
        self.edge_fixed = (
            self.point_fixed[:, self.edge_a] & self.point_fixed[:, self.edge_b]
        )

    def _adjacency(self, subdivision_edges) -> np.ndarray:
        """Edges of the subdivided graph as two index arrays: (v, w) for v in
        V and w in W in index order, a subdivided edge as (v, z), (z, w).

        Raises ShapeMismatch when an edge carries two subdivision vertices.
        """
        shape = self.aut.shape
        # z_edges[i]: the edge of subdivision vertex zids[i] as (V, W) indices;
        # V indices precede W indices, so the sorted pair is that edge
        self.z_edges = []
        self.z_at = {}
        for k, z in enumerate(self.zids, self.n_graph):
            edge = tuple(sorted(map(shape.global_index, subdivision_edges[z])))
            if edge in self.z_at:
                a, b = map(self.name, edge)
                raise ShapeMismatch(f"edge ({a}, {b}) subdivided twice")
            self.z_edges.append(edge)
            self.z_at[edge] = k
        pairs = []
        for a in range(shape.n):
            for b in range(shape.n, self.n_graph):
                z = self.z_at.get((a, b))
                pairs += [(a, b)] if z is None else [(a, z), (z, b)]
        return np.array(pairs).T

    def name(self, k: int) -> str:
        """Label of embedded point k, for failure messages."""
        if k < self.n_graph:
            return self.aut.shape.vertex_at(k).label
        return self.zids[k - self.n_graph]

    def image_index(self, k: int) -> int | None:
        """Index of the image of embedded point k under the automorphism,
        extended over subdivision vertices; None when the subdivision set is
        not closed under the automorphism."""
        perm = self.aut.perm
        if k < self.n_graph:
            return perm[k]
        a, b = (perm[g] for g in self.z_edges[k - self.n_graph])
        return self.z_at.get((min(a, b), max(a, b)))

    def by_power(self, findings: dict[int, list[str]]) -> list[str]:
        """Findings keyed by divisor d, repeated in order for every power
        i < r with gcd(i, r) = d."""
        if not findings:
            return []
        powers = np.flatnonzero(np.isin(self.gcd, list(findings)))
        return [f"power {i}: {text}" for i in powers for text in findings[self.gcd[i]]]


def verify(
    aut: BipartiteAutomorphism,
    iso: Isometry4,
    emb: SpatialEmbedding,
    tol: float = 1e-9,
) -> RealizationCertificate:
    """Check that (iso, emb) realizes aut; returns a pass/fail certificate.

    The certificate always contains the checks: unit_norm, orthogonal,
    order, orientation, induces, eel1, eel2, eel3, eel4.  ``tol`` must be
    finite and positive.  Raises TooLarge when the stack of the claimed
    order's matrix powers does not fit in memory.
    """
    if aut.shape != emb.shape:
        raise ShapeMismatch(f"automorphism {aut.shape} vs embedding {emb.shape}")
    if iso.claimed_order < 1:
        raise PreconditionError(f"claimed order must be positive, got {iso.claimed_order}")
    if not (math.isfinite(tol) and tol > 0):
        raise PreconditionError(f"tolerance must be finite and positive, got {tol}")
    missing = [v for v in aut.shape.vertices() if v not in emb.coordinates]
    if missing:
        raise ShapeMismatch(f"embedding lacks coordinates for {missing[0].label}")
    for e in emb.subdivision_edges.values():
        if {e[0].part, e[1].part} != {Part.V, Part.W} or not all(
            aut.shape.contains(x) for x in e
        ):
            raise ShapeMismatch(f"subdivision edge {e} is not an edge of the graph")
    if emb.subdivision_edges.keys() != emb.subdivision_coordinates.keys():
        raise ShapeMismatch("subdivision vertices and their edges do not match")

    try:
        st = _Verification(aut, iso, emb, tol)
    except ValueError as exc:  # e.g. ragged coordinates
        raise ShapeMismatch(str(exc)) from exc
    except MemoryError as exc:  # the (r+1)-power stacks do not fit
        raise TooLarge(
            f"claimed order {iso.claimed_order} needs more memory than is available"
        ) from exc
    M = iso.matrix
    r = iso.claimed_order
    checks = [
        _check_unit_norm(st),
        _check_orthogonal(M),
        _check_order(st, r),
        _check_orientation(M, iso.orientation),
        _check_induces(st),
        _check_eel1(st),
        _check_eel2(st, r),
        _check_eel3(st),
        _check_eel4(st),
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
    detail = f"|M^{r} - I| = {final:.3g}"
    devs = np.abs(st.powers[1:r] - np.eye(4)).max(axis=(1, 2))
    early = np.flatnonzero(devs <= IDENTITY_GAP)
    if early.size:
        ok = False
        detail += f"; M^{early[0] + 1} is already the identity"
    return CheckResult("order", ok, detail, final)


def _check_orientation(M: np.ndarray, orientation: Orientation) -> CheckResult:
    det = float(np.linalg.det(M))
    want = 1.0 if orientation is Orientation.OP else -1.0
    ok = abs(det - want) <= DET_TOL
    return CheckResult(
        "orientation", ok, f"det = {det:.17g}, expected {want:+.0f}", det
    )


def _check_induces(st) -> CheckResult:
    K = len(st.P)
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
            detail.append(f"subdivision set not closed at {st.name(k)}")
            continue
        d = float(move[k, target])
        worst = max(worst, d)
        if nearest[k] != target or d > st.tol:
            ok = False
            detail.append(
                f"M*{st.name(k)} matched {st.name(nearest[k])}, wanted "
                f"{st.name(target)} (dist {d:.3g})"
            )
    return CheckResult(
        "induces",
        ok,
        "; ".join(detail) if detail else
        f"max image deviation {worst:.3g}, min separation {min_sep:.3g}",
        worst,
    )


def _check_eel1(st) -> CheckResult:
    # An adjacent pair fixed by several powers compares the fixed subspace of
    # the first of them, a divisor, with that of each later one.  A power i
    # has the subspace of gcd(i, r), so each later divisor is compared once
    # and counts for all of its powers; the powers sharing the first
    # divisor's gcd agree with it.
    powers_with_gcd = np.bincount(st.gcd[1:])
    distances: dict[tuple[int, int], float | None] = {}  # None: dimensions differ
    worst = 0.0
    bad = 0
    for e in np.flatnonzero(st.edge_fixed.sum(axis=0) >= 2):
        first, *later = np.flatnonzero(st.edge_fixed[:, e])
        for j in later:
            if (first, j) not in distances:
                b0, bj = st.bases[first], st.bases[j]
                distances[first, j] = (
                    subspace_distance(b0, bj) if b0.shape[1] == bj.shape[1] else None
                )
            d = distances[first, j]
            if d is not None:
                worst = max(worst, d)
            if d is None or d > SUBSPACE_TOL:
                bad += int(powers_with_gcd[st.divisors[j]])
    ok = not bad
    detail = (
        f"{bad} co-fixed adjacent pairs with different fixed sets"
        if bad
        else f"fixed-set agreement within {worst:.3g}"
    )
    return CheckResult("eel1", ok, detail, worst)


def _check_eel2(st, r: int) -> CheckResult:
    a, b = st.edge_a, st.edge_b
    bad = []
    for lo in range(1, r, _POWER_BLOCK):
        Q = st.images[lo : min(lo + _POWER_BLOCK, r)]
        swapped = (np.linalg.norm(Q[:, a] - st.P[b], axis=2) <= st.tol) & (
            np.linalg.norm(Q[:, b] - st.P[a], axis=2) <= st.tol
        )
        bad += [(lo + i, a[e], b[e]) for i, e in zip(*np.nonzero(swapped))]
    detail = (
        "; ".join(
            f"M^{i} interchanges {st.name(a)},{st.name(b)}"
            for i, a, b in bad
        )
        if bad
        else "no adjacent pair interchanged by any power"
    )
    return CheckResult("eel2", not bad, detail, float(len(bad)))


def _part_counts(st, members: np.ndarray) -> tuple[int, int, int]:
    nv = int(np.count_nonzero(members < st.aut.shape.n))
    nw = int(np.count_nonzero(members < st.n_graph)) - nv
    return nv, nw, len(members) - nv - nw


def _arc_findings(st, j: int) -> list[str]:
    """Arc conditions on the fixed set of the power st.divisors[j]."""
    pairs = np.flatnonzero(st.edge_fixed[j])
    if not pairs.size:
        return []
    basis = st.bases[j]
    dim = basis.shape[1]
    on = np.flatnonzero(st.point_fixed[j])
    if dim <= 1:  # empty or two points: no arc between distinct points
        return ["adjacent pair fixed by a power whose fixed set contains no arcs"]
    if dim == 2:  # a circle
        nv, nw, _ = _part_counts(st, on)
        if nv > 2 or nw > 2:
            return [f"{nv}+{nw} vertices of a part on circle"]
        xy = st.P[on] @ basis
        ring = on[np.argsort(np.arctan2(xy[:, 1], xy[:, 0]), kind="stable")]
        pos = np.empty(len(st.P), dtype=int)
        pos[ring] = np.arange(len(ring))
        a, b = st.edge_a[pairs], st.edge_b[pairs]
        gap = (pos[a] - pos[b]) % len(ring)
        apart = (gap != 1) & (gap != len(ring) - 1)
        return [
            f"no free arc between {st.name(x)} and {st.name(y)}"
            for x, y in zip(a[apart], b[apart])
        ]
    if dim == 3:  # a sphere; all of S^3 (dim 4) leaves nothing to check
        nv, nw, nz = _part_counts(st, on)
        if nz:
            return ["subdivision vertices on a fixed sphere, arc pattern indeterminate"]
        if min(nv, nw) > 2:
            return [f"K_{{{nv},{nw}}} on a fixed sphere is non-planar"]
    return []


def _check_eel3(st) -> CheckResult:
    findings = {}
    for j, d in enumerate(st.divisors):
        found = _arc_findings(st, j)
        if found:
            findings[d] = found
    problems = st.by_power(findings)
    return CheckResult(
        "eel3",
        not problems,
        "; ".join(problems) if problems else "arc conditions satisfied on all fixed sets",
        float(len(problems)),
    )


def _check_eel4(st) -> CheckResult:
    n = st.aut.shape.n
    findings = {
        d: ["neither part lies in the fixed sphere"]
        for j, d in enumerate(st.divisors)
        if st.bases[j].shape[1] == 3
        and not (st.point_fixed[j, :n].all() or st.point_fixed[j, n : st.n_graph].all())
    }
    problems = st.by_power(findings)
    return CheckResult(
        "eel4",
        not problems,
        "; ".join(problems) if problems else "every fixed sphere contains a full part",
        float(len(problems)),
    )
