"""Independent certificate checks for (automorphism, isometry, embedding) triples.

verify() re-derives everything from the raw matrix and coordinates: matrix
invariants, the induced vertex permutation via nearest-neighbour matching,
the fixed-point sets of the powers of the matrix, and the hypotheses of the
edge-embedding conditions (named eel1-eel4 in the certificate).  Nothing is
trusted from the construction that produced the triple.

The checks read M^r, for the order check, and M^d for each proper divisor d
of the claimed order r, found by trial division up to √r; each is made by
repeated squaring, so time grows with log r and with the number of r's
divisors, not with r.  MAX_CLAIMED_ORDER bounds the trial division.

The order check asks |M^r - I| to be within tol and within IDENTITY_GAP.
Then M = NE with N^r = I, its angles multiples of 2π/r, and E a small
rotation commuting with N, E^k - I ≈ (k/r)(M^r - I): where N^d = I for a
proper divisor d, M^d lies within IDENTITY_GAP / 2 of I, so the check passes
only when N has order r.  A looser bound would not: a rotation of order 13
claiming 14 at tol 0.5 has |M^14 - I| = |M - I| ≈ 0.46, and M^13 = I.  Where
2π/r is not well above IDENTITY_GAP, a proper power of an M of order r may
lie within IDENTITY_GAP of I, and the check fails.

Fixed sets are worked out once per proper divisor of r, not once per power:
when M^r = I, the powers M^i and M^g with g = gcd(i, r) generate the same
cyclic group (g is an integer combination of i and r, and i is a multiple of
g), and a point is fixed by a power exactly when the group that power
generates fixes it.  So M^i has the fixed subspace and the fixed points of
M^g.  A finding about M^d is reported once, with the number c_d = φ(r/d) of
powers i < r with gcd(i, r) = d, as in "400 powers i with gcd(i, 1000) = 1:
neither part lies in the fixed sphere", and counts c_d times in the check's
measured value.

eel2's hits fold too.  When M^r = I and g = gcd(i, r), M^i = (M^g)^s and
M^g = (M^i)^u with s and u coprime to r/g.  If either map interchanges two
points, r/g is even, as the map's (r/g)-th power is I while its odd powers
interchange them; so s and u are odd, and an odd power of an interchange is
that interchange.  So eel2 also tests M^d only, and reports once per d.  Let
π be the point permutation the automorphism prescribes.  π^i interchanges
an edge's ends only when both lie in one π-cycle of even length L, L/2
apart, and i ≡ L/2 (mod L); then gcd(i, r) ≡ L/2 (mod L) when L divides r,
and otherwise π^r is not the identity and the order check fails.  When the
induces check finds that π(k) is the point nearest M x_k for every point k,
within a step δ, and M and the points pass the orthogonality and unit-norm
checks, M^i x_k lies within about i·δ of x_{π^i(k)}; while tol plus that
drift for i = r stays below the minimum separation, M^d brings an edge's
ends within tol of each other's places only where π^d interchanges them, so
such an edge is tested only at the d ≡ L/2 (mod L).  Otherwise every edge is
tested at every d.

The induces check measures every distance between points, and from each
image M x_k to every point, with geometry's one pairwise-distance kernel,
_distances; a test pins its bits to np.linalg.norm's, and the verifier
oracle in the tests measures with np.linalg.norm itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import Orientation
from .core import BipartiteAutomorphism, SideAction, _index_cycles
from .errors import PreconditionError, ShapeMismatch, TooLarge
from .geometry import (
    DET_TOL,
    IDENTITY_GAP,
    ORTHOGONALITY_TOL,
    SEPARATION,
    SUBSPACE_TOL,
    Isometry4,
    SpatialEmbedding,
    _distances,
)

# r's proper divisors come from trial division up to √r: below this bound
# r has at most 1344 divisors, and _gcd_counts takes under 0.1 s on 2 CPUs
# (x86-64); a larger claim raises TooLarge before any product.
MAX_CLAIMED_ORDER = 10**9
# n*m edges plus the subdivision vertices: the edge arrays grow with them,
# and on balanced shapes the induces check's distance block of the points
# too.  At this bound, K_{1000,1000} in pure 10-cycles verifies in about
# 0.5 s at 170 MB peak RSS on 2 CPUs; larger graphs raise TooLarge before
# any array is built.
MAX_VERIFY_EDGES = 1_000_000
# run_powers holds about 3 bytes per (proper divisor of r, edge) pair, and
# eel2 makes at most one test per pair: this bound keeps that near 150 MB and
# admits K_{997,1000} OP6 (31 proper divisors, 3.1 * 10^7 pairs, none of
# them eel2 candidates) and K_{1000,1000} with a moved point claiming 2520
# (47 proper divisors, every pair tested, 3 s at 230 MB on 2 CPUs); more
# raise TooLarge before any array is built.
MAX_DIVISOR_EDGES = 50_000_000
# The induces check measures the K points and their images against the
# points in one distance block, two 2K x K float64 arrays, 32 K^2 bytes: 128
# MB at K_{1000,1000}.  A skinny shape within MAX_VERIFY_EDGES can still have
# many points (K_{3,10000}: 3.2 GB), so a block past this budget (K > 2896)
# raises TooLarge before any array is built.
MAX_INDUCES_BYTES = 2**28

# Drift of a computed image M^i x per power beyond the step δ of M: the
# rounding of one 4 x 4 product and of the image, with a wide margin
_ROUNDING = 1e-12
_I4 = np.eye(4)
_I4.setflags(write=False)


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


def fixed_subspace(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis (4 x d) of the +1-eigenspace of an orthogonal A.

    Its dimension d = 0, 1, 2, 3, 4 makes the fixed set in S^3 empty, two
    points, a circle, a sphere or all of S^3.  A matrix with an infinite
    or NaN entry, an overflowed power, has the empty fixed set.
    """
    if not np.isfinite(A).all():  # svd of an infinite entry may never return
        return np.empty((4, 0))
    _, s, vh = np.linalg.svd(A - _I4)
    d = int(np.count_nonzero(s <= SUBSPACE_TOL))
    return vh[4 - d :].T  # 4 x 0 when d = 0


def subspace_distance(b1: np.ndarray, b2: np.ndarray) -> float:
    """sin of the largest principal angle (2-norm of projector difference)."""
    p1 = b1 @ b1.T
    p2 = b2 @ b2.T
    return float(np.linalg.norm(p1 - p2, 2))


def _gcd_counts(r: int) -> dict[int, int]:
    """c_d = #{1 <= i < r : gcd(i, r) = d} = φ(r/d) for each proper divisor d
    of r, in ascending d."""
    small = [d for d in range(1, math.isqrt(r) + 1) if r % d == 0]
    phi: dict[int, int] = {}
    # k = Σ φ(e) over the divisors e of k, each smaller one already in phi
    for k in small + [r // d for d in reversed(small) if d * d != r]:
        phi[k] = k - sum(phi[e] for e in phi if k % e == 0)
    return {d: phi[r // d] for d in phi if d < r}


def _norms(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Euclidean norms along ``axis``, as np.linalg.norm computes them for
    floats, without its argument handling."""
    return np.sqrt(np.add.reduce(x * x, axis=axis))


class _Verification:
    """Working state shared by the individual checks of verify().

    Points are the rows of the embedding's array: graph vertices by global
    index, then from ``n_graph`` on the subdivision vertices, whose ids are
    ``zids``.  ``image`` is the point permutation π: image[k] is the index
    of the automorphism's image of point k, extended over subdivision
    vertices, and -1 where the subdivision set is not closed under the
    automorphism.  The induces check sets ``min_sep`` and ``step``;
    ``run_powers`` sets the rest: ``counts`` maps each proper divisor d of
    the claimed order r to the number of powers i < r with gcd(i, r) = d,
    and rows of ``point_fixed``, ``edge_fixed`` and ``bases`` belong to its
    keys, ``divisors``, in ascending order.
    """

    def __init__(self, aut, iso, emb, tol):
        self.aut = aut
        self.iso = iso
        self.tol = tol
        self.n_graph = aut.shape.size  # indices below this are graph vertices
        self.zids = emb.subdivision_ids
        if len(emb.subdivision_pairs) != len(self.zids):
            raise ValueError("subdivision vertices and their edges do not match")
        self.P = np.ascontiguousarray(emb.points, dtype=float)
        K = self.n_graph + len(self.zids)
        if self.P.shape != (K, 4) or np.shape(iso.matrix) != (4, 4):
            raise ValueError(f"the points must be {K} x 4 and the matrix 4 x 4")
        self.edge_a, self.edge_b = self._adjacency(emb.subdivision_pairs)
        self.image = self._point_image()

    def _adjacency(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Edges of the subdivided graph as two index arrays: (v, w) for v in
        V and w in W in index order, a subdivided edge as (v, z), (z, w).

        Raises ShapeMismatch when a pair is not (V index, W index) or an edge
        carries two subdivision vertices.
        """
        n, m = self.aut.shape.n, self.aut.shape.m
        # z_edges[i]: the (V, W) edge of subdivision vertex zids[i]
        self.z_edges = [tuple(edge) for edge in pairs]
        self.z_at = {}
        for k, edge in enumerate(self.z_edges, self.n_graph):
            if tuple(map(type, edge)) != (int, int) or not 0 <= edge[0] < n <= edge[1] < n + m:
                raise ShapeMismatch(f"subdivision {self.name(k)} edge {edge} is not (V, W)")
            if edge in self.z_at:
                a, b = map(self.name, edge)
                raise ShapeMismatch(f"edge ({a}, {b}) subdivided twice")
            self.z_at[edge] = k
        a, b = np.divmod(np.arange(n * m), m)
        b += n
        if self.z_edges:
            za, zb = np.array(self.z_edges).T
            at = za * m + zb - n  # position of each subdivided edge
            z = np.arange(self.n_graph, self.n_graph + len(self.zids))
            b[at] = z  # (v, z) in the edge's place, (z, w) right after it
            a, b = np.insert(a, at + 1, z), np.insert(b, at + 1, zb)
        return a, b

    def _point_image(self) -> np.ndarray:
        perm = self.aut.perm
        image = np.empty(len(self.P), dtype=np.int64)
        image[: self.n_graph] = perm
        for k, (a, b) in enumerate(self.z_edges, self.n_graph):
            a, b = perm[a], perm[b]
            image[k] = self.z_at.get((min(a, b), max(a, b)), -1)
        return image

    def name(self, k: int) -> str:
        """Label of embedded point k, for failure messages."""
        if k < self.n_graph:
            return self.aut.shape.vertex_at(k).label
        return self.zids[k - self.n_graph]

    def run_powers(self, r: int, counts: dict[int, int], groups) -> None:
        """Make M^r and M^d for each proper divisor d of r, the keys of
        ``counts = _gcd_counts(r)``, by repeated squaring, and take from them
        what the checks need.

        Sets ``order_dev`` (max |M^r - I|), the per-divisor rows, ``early``
        (the smallest proper divisor d with M^d within IDENTITY_GAP of I, or
        None) and ``swaps``, from the eel2 ``groups`` of ``_swap_groups``.
        """
        M = self.iso.matrix
        self.order_dev = float(np.abs(np.linalg.matrix_power(M, r) - _I4).max())
        self.counts = counts
        self.divisors = list(counts)
        at_divisors = np.array([np.linalg.matrix_power(M, d) for d in counts]).reshape(-1, 4, 4)
        near = np.abs(at_divisors - _I4).max(axis=(1, 2)) <= IDENTITY_GAP
        self.early = self.divisors[near.argmax()] if near.any() else None
        self.bases = [fixed_subspace(D) for D in at_divisors]
        # images[j, k] = M^divisors[j] applied to point k
        images = np.einsum("ikl,pl->ipk", at_divisors, self.P)
        # point_fixed[j, k]: the power divisors[j] fixes point k within tol
        self.point_fixed = _norms(images - self.P) <= self.tol
        self.edge_fixed = (
            self.point_fixed[:, self.edge_a] & self.point_fixed[:, self.edge_b]
        )
        # swaps[d][e]: M^d interchanges the ends of edge e, for the d with
        # any; a group (L, edges) is tested at the divisors d ≡ L // 2 (mod L)
        self.swaps = {}
        for L, edges in groups:
            ends_a = self.P[self.edge_a[edges]].T.copy()  # 4 x E
            ends_b = self.P[self.edge_b[edges]].T.copy()
            for j in np.flatnonzero(np.array(self.divisors) % L == L // 2):
                gap = at_divisors[j] @ ends_a - ends_b  # one matrix product
                close = np.flatnonzero(_norms(gap, axis=0) <= self.tol)
                back = at_divisors[j] @ ends_b[:, close] - ends_a[:, close]
                hit = edges[close[_norms(back, axis=0) <= self.tol]]
                if len(hit):
                    d = self.divisors[j]
                    self.swaps.setdefault(d, np.zeros(len(self.edge_a), bool))[hit] = True

    def _swap_groups(self, pi_exact: bool) -> list[tuple[int, np.ndarray]]:
        """(L, edges) groups: a power i can interchange the ends of those
        edges only when i ≡ L // 2 (mod L).  Every edge, with L = 1, unless
        ``pi_exact``; then the edges whose ends lie L/2 apart in a π-cycle
        of even length L."""
        if not pi_exact:
            return [(1, np.arange(len(self.edge_a)))]
        if self.aut.side_action is SideAction.PRESERVING:
            # π keeps V, W and the subdivision vertices, and no edge lies
            # within one of them
            return []
        partner = np.full(len(self.P), -1)  # partner[k] = π^(L/2)(k)
        period = np.zeros(len(self.P), dtype=np.int64)
        for cycle in _index_cycles(self.image.tolist()):
            half = len(cycle) // 2
            if 2 * half == len(cycle):
                partner[cycle] = cycle[half:] + cycle[:half]
                period[cycle] = len(cycle)
        edges = np.flatnonzero(partner[self.edge_a] == self.edge_b)
        lengths = period[self.edge_a[edges]]
        # sorted(set()), not np.unique, which imports numpy.ma on first use
        return [(L, edges[lengths == L]) for L in sorted(set(lengths.tolist()))]


# an overflow or invalid value shows in the measured value of the check it
# spoils, so numpy's RuntimeWarnings would only repeat it on stderr
@np.errstate(all="ignore")
def verify(
    aut: BipartiteAutomorphism,
    iso: Isometry4,
    emb: SpatialEmbedding,
    tol: float = 1e-9,
) -> RealizationCertificate:
    """Check that (iso, emb) realizes aut; returns a pass/fail certificate.

    The certificate always contains the checks: unit_norm, orthogonal,
    order, orientation, induces, eel1, eel2, eel3, eel4.  ``tol`` must be
    finite and positive; order also asks |M^r - I| <= IDENTITY_GAP.  Only
    M^r and the M^d of the proper divisors d of the claimed order r are made
    (module docstring).  eel2, eel3 and eel4 report a finding once per d,
    with the count of powers i < r with gcd(i, r) = d.  Raises TooLarge,
    before any array is built, when r exceeds MAX_CLAIMED_ORDER, the edges
    plus the subdivision vertices exceed MAX_VERIFY_EDGES, the induces
    check's distance block of the points MAX_INDUCES_BYTES, or the edges and
    subdivision vertices times r's proper divisors MAX_DIVISOR_EDGES; and
    when the checks' arrays do not fit in memory.  Raises ShapeMismatch
    unless ``emb.points`` is (n + m + S) x 4 for S subdivision ids, each with
    its own edge of the graph as a (V index, W index) pair.
    """
    shape = aut.shape
    if shape != emb.shape:
        raise ShapeMismatch(f"automorphism {shape} vs embedding {emb.shape}")
    r = iso.claimed_order
    if r < 1:
        raise PreconditionError(f"claimed order must be positive, got {r}")
    if r > MAX_CLAIMED_ORDER:
        raise TooLarge(f"claimed order {r} is more than {MAX_CLAIMED_ORDER}")
    if not (math.isfinite(tol) and tol > 0):
        raise PreconditionError(f"tolerance must be finite and positive, got {tol}")
    edges = shape.n * shape.m
    subdivisions = len(emb.subdivision_ids)
    if edges + subdivisions > MAX_VERIFY_EDGES:
        raise TooLarge(
            f"K_{{{shape.n},{shape.m}}} has {edges} edges and {subdivisions} "
            f"subdivision vertices, more than {MAX_VERIFY_EDGES} together"
        )
    points = shape.n + shape.m + subdivisions
    if 32 * points**2 > MAX_INDUCES_BYTES:
        raise TooLarge(
            f"K_{{{shape.n},{shape.m}}} has {points} points, whose induces distance "
            f"block takes {32 * points**2} bytes, more than {MAX_INDUCES_BYTES}"
        )
    counts = _gcd_counts(r)
    pairs = len(counts) * (edges + subdivisions)
    if pairs > MAX_DIVISOR_EDGES:
        raise TooLarge(
            f"claimed order {r} has {len(counts)} proper divisors, {pairs} "
            f"(divisor, edge) pairs, more than {MAX_DIVISOR_EDGES}"
        )
    try:
        st = _Verification(aut, iso, emb, tol)
    except ValueError as exc:  # ragged or mis-shaped points, or pairs without ids
        raise ShapeMismatch(str(exc)) from exc
    M = iso.matrix
    try:
        unit_norm = _check_unit_norm(st)
        orthogonal = _check_orthogonal(M)
        induces = _check_induces(st)
        # step is finite only when π(k) is the point nearest M x_k for every
        # k, so π is then a permutation.  With |M| within 1 + 2 *
        # ORTHOGONALITY_TOL of 1 and unit points, the computed M^i x_k lies
        # within i * (2 * step + rounding) of x_{π^i(k)}.
        drift = tol + r * (2 * st.step + _ROUNDING)
        pi_exact = unit_norm.passed and orthogonal.passed and drift < st.min_sep
        groups = st._swap_groups(pi_exact)
        st.run_powers(r, counts, groups)
    except MemoryError as exc:  # a memory limit below the budgets above
        raise TooLarge(
            f"verifying K_{{{shape.n},{shape.m}}} needs more memory than is available"
        ) from exc
    checks = [
        unit_norm,
        orthogonal,
        _check_order(st, r),
        _check_orientation(M, iso.orientation),
        induces,
        _check_eel1(st),
        _check_eel2(st),
        _check_eel3(st),
        _check_eel4(st),
    ]
    return RealizationCertificate(tuple(checks))


def _check_unit_norm(st) -> CheckResult:
    dev = float(np.abs(_norms(st.P) - 1.0).max())
    return CheckResult(
        "unit_norm",
        dev <= ORTHOGONALITY_TOL,
        f"max |norm - 1| = {dev:.3g}",
        dev,
    )


def _check_orthogonal(M: np.ndarray) -> CheckResult:
    dev = float(np.abs(M.T @ M - _I4).max())
    return CheckResult(
        "orthogonal", dev <= ORTHOGONALITY_TOL, f"max |M^T M - I| = {dev:.3g}", dev
    )


def _check_order(st, r: int) -> CheckResult:
    # within IDENTITY_GAP too, so that r's divisors see every early identity
    ok = st.order_dev <= min(st.tol, IDENTITY_GAP)
    detail = f"|M^{r} - I| = {st.order_dev:.3g}"
    if st.early is not None:
        ok = False
        detail += f"; M^{st.early} is already the identity"
    if IDENTITY_GAP < st.order_dev <= st.tol:
        detail += f"; more than the identity gap {IDENTITY_GAP:g}"
    return CheckResult("order", ok, detail, st.order_dev)


def _check_orientation(M: np.ndarray, orientation: Orientation) -> CheckResult:
    det = float(np.linalg.det(M))
    want = 1.0 if orientation is Orientation.OP else -1.0
    ok = abs(det - want) <= DET_TOL
    return CheckResult(
        "orientation", ok, f"det = {det:.17g}, expected {want:+.0f}", det
    )


def _check_induces(st) -> CheckResult:
    P = st.P
    K = len(P)
    # rows below K: distances between points; from K on: from M x_k to each
    # point.  The block is the largest array of verify.
    block = _distances(np.concatenate((P, P @ st.iso.matrix.T)), P)
    dists, move = block[:K], block[K:]
    dists.flat[:: K + 1] = np.inf
    min_sep = float(dists.min())
    nearest = move.argmin(axis=1)
    target = st.image
    matched = nearest == target  # never where target is -1
    dev = move[np.arange(K), target]  # d(M x_k, x_target); unused where not closed
    st.min_sep = min_sep
    st.step = float(dev.max()) if matched.all() else math.inf
    if st.step <= st.tol:  # every point matched within tol, no NaN
        worst, bad = st.step, ()
    else:
        # as Python's max over the points in order: a NaN deviation never wins
        worst = float(np.max(dev, where=(target >= 0) & (dev > 0), initial=0.0))
        bad = np.flatnonzero(~matched | (dev > st.tol))
    ok = min_sep >= SEPARATION
    detail = []
    if not ok:
        detail.append(f"min separation {min_sep:.3g} < 1e-6")
    for k in bad:
        ok = False
        if target[k] < 0:
            detail.append(f"subdivision set not closed at {st.name(k)}")
            continue
        detail.append(
            f"M*{st.name(k)} matched {st.name(int(nearest[k]))}, wanted "
            f"{st.name(int(target[k]))} (dist {float(dev[k]):.3g})"
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
    # the first of them with that of each later one.  A power i has the
    # subspace of gcd(i, r), so each (first divisor row, later row j) pair is
    # compared once, for the tally of its edges and each power of j.
    first = st.edge_fixed.argmax(axis=0) if len(st.divisors) > 1 else None
    worst, bad = 0.0, 0
    for j in range(1, len(st.divisors)):
        tally = np.bincount(first[st.edge_fixed[j]], minlength=j)[:j]
        for i in np.flatnonzero(tally):
            bi, bj = st.bases[i], st.bases[j]
            if bi.shape[1] == bj.shape[1]:
                d = subspace_distance(bi, bj)
                worst = max(worst, d)
            if bi.shape[1] != bj.shape[1] or d > SUBSPACE_TOL:
                bad += int(tally[i]) * st.counts[st.divisors[j]]
    detail = (
        f"{bad} co-fixed adjacent pairs with different fixed sets"
        if bad
        else f"fixed-set agreement within {worst:.3g}"
    )
    return CheckResult("eel1", not bad, detail, worst)


def _check_eel2(st) -> CheckResult:
    findings = {}
    for d in sorted(st.swaps):
        a, b = st.edge_a[st.swaps[d]].tolist(), st.edge_b[st.swaps[d]].tolist()
        findings[d] = [f"interchanges {st.name(x)},{st.name(y)}" for x, y in zip(a, b)]
    return _by_divisor(st, "eel2", findings, "no adjacent pair interchanged by any power")


def _part_counts(st, members: np.ndarray) -> tuple[int, int, int]:
    nv = int(np.count_nonzero(members < st.aut.shape.n))
    nw = int(np.count_nonzero(members < st.n_graph)) - nv
    return nv, nw, len(members) - nv - nw


def _arc_findings(st, j: int) -> list[str]:
    """Arc conditions on the fixed set of the power st.divisors[j], which
    fixes some edge."""
    pairs = np.flatnonzero(st.edge_fixed[j])
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


def _by_divisor(st, name: str, findings: dict[int, list[str]], ok_detail: str) -> CheckResult:
    """The check ``name`` failing on ``findings``, keyed by proper divisor d
    of r in ascending order: each is reported once, with the number of powers
    i < r with gcd(i, r) = d, and counts once for each of them."""
    r = st.iso.claimed_order
    problems = [
        f"{st.counts[d]} powers i with gcd(i, {r}) = {d}: {text}"
        for d, texts in findings.items() for text in texts
    ]
    count = sum(st.counts[d] * len(texts) for d, texts in findings.items())
    return CheckResult(name, not problems, "; ".join(problems) or ok_detail, float(count))


def _check_eel3(st) -> CheckResult:
    rows = np.flatnonzero(st.edge_fixed.any(axis=1))
    findings = {st.divisors[j]: _arc_findings(st, j) for j in rows}
    return _by_divisor(st, "eel3", findings, "arc conditions satisfied on all fixed sets")


def _check_eel4(st) -> CheckResult:
    n = st.aut.shape.n
    findings = {
        d: ["neither part lies in the fixed sphere"]
        for j, d in enumerate(st.divisors)
        if st.bases[j].shape[1] == 3
        and not (st.point_fixed[j, :n].all() or st.point_fixed[j, n : st.n_graph].all())
    }
    return _by_divisor(st, "eel4", findings, "every fixed sphere contains a full part")
