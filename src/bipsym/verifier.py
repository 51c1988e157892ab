"""Independent certificate checks for (automorphism, isometry, embedding) triples.

verify() re-derives everything from the raw matrix and coordinates: matrix
invariants, the induced vertex permutation via nearest-neighbour matching,
the fixed subspaces of the powers of the matrix, and the hypotheses of the
edge-embedding conditions (named eel1-eel4 in the certificate).  Nothing is
trusted from the construction that produced the triple.

The checks read M^r, for the order check, and M^d for each proper divisor d
of the claimed order r, found by trial division up to √r, in ascending d
up to the first within IDENTITY_GAP of I; each is made by repeated
squaring, so time grows with log r and with the number of r's divisors,
not with r.  MAX_CLAIMED_ORDER bounds the trial division.

The order check asks |M^r - I| to be within tol and within IDENTITY_GAP.
Then M = NE with N^r = I, its angles multiples of 2π/r, and E a small
rotation commuting with N, E^k - I ≈ (k/r)(M^r - I): where N^d = I for a
proper divisor d, M^d lies within IDENTITY_GAP / 2 of I, so the check passes
only when N has order r.  A looser bound would not: a rotation of order 13
claiming 14 at tol 0.5 has |M^14 - I| = |M - I| ≈ 0.46, and M^13 = I.  Where
2π/r is not well above IDENTITY_GAP, a proper power of an M of order r may
lie within IDENTITY_GAP of I, and the check fails.

Let π be the point permutation the automorphism prescribes, extended over
the subdivision vertices.  π is established when unit_norm, orthogonal,
order and induces pass, every π-cycle length divides r, and tol + drift < s,
the minimum separation of the points, with drift (below) a bound on
|M^i x_k - x_{π^i(k)}| for every point k and power i <= r.  Then M^i takes
each x_k within the drift of x_{π^i(k)}, so farther than s - drift > tol
from every other point: up to the drift, M^i fixes and interchanges points
exactly where π^i does.  So eel1-eel4 read their facts from π's cycle
lengths: M^d fixes a point when its length divides d, an edge when the lcm
of its ends' lengths does, a part when the lcm of the part's lengths does,
and interchanges an edge's ends when both lie in one π-cycle of even length
L, L/2 apart, and d ≡ L/2 (mod L).  The geometry is read only for the fixed
subspaces of the M^d.  When π is not established, eel1-eel4 read nothing,
and each fails with one detail naming why: the checks among unit_norm,
orthogonal, order and induces that failed, a cycle whose length does not
divide r, or tol + drift against s.

Drift.  induces measures the step δ' = max_k |M x_k - x_{π(k)}| in floating
point, with u = 2^-53: each coordinate of the computed M x_k is off by at
most 4u |M| |x_k|, the image by 8u, and the distance by a few u of itself,
so the exact step δ <= (1 + 5u) δ' + 8u.  orthogonal bounds |M^T M - I| by
ORTHOGONALITY_TOL entrywise, so |M| <= 1 + 2 ORTHOGONALITY_TOL, and
stepping |M^i x_k - x_{π^i(k)}| <= |M| |M^(i-1) x_k - x_{π^(i-1)(k)}| + δ
gives at most i (1 + 2 ORTHOGONALITY_TOL)^i δ < 1.003 i δ for i <= r <=
MAX_CLAIMED_ORDER.  So drift = r (2 δ' + _ROUNDING) bounds it: the 2 leaves
room for |M|^i and the relative rounding, and _ROUNDING = 2^-48 = 32u for
the 8u.  (M = NE bounds |M^i| near 1 as well; the cruder bound suffices.)
No computed M^i x_k enters, so no rounding accumulates per power.

Fixed sets are worked out once per proper divisor of r, not once per power:
when π^r and M^r are the identity, the powers i and g = gcd(i, r) generate
the same cyclic group (g is an integer combination of i and r, and divides
i), so M^i has the fixed subspace and the fixed points of M^g.  And π^i =
(π^g)^(i/g) with i/g coprime to r/g, which is even wherever π^g
interchanges two points, so π^i interchanges them too, and the other way
round.  A finding about M^d is reported once, with the number c_d = φ(r/d)
of powers i < r with gcd(i, r) = d, as in "400 powers i with gcd(i, 1000) =
1: neither part lies in the fixed sphere", and counts c_d times in the
check's measured value.

The induces check measures every distance between points, and from each
image M x_k to every point, with geometry's one pairwise-distance kernel,
_distances; a test pins its bits to np.linalg.norm's, and the verifier
oracle in the tests measures with np.linalg.norm itself.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .classifier import Orientation
from .core import BipartiteAutomorphism, _index_cycles
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
# n*m edges plus the subdivision vertices.  verify keeps no array over the
# edges, so on balanced shapes this bounds only the induces check's distance
# block of the points: at this bound, K_{1000,1000} in pure 10-cycles
# verifies in about 0.5 s at 155 MB peak RSS on 2 CPUs; larger graphs raise
# TooLarge before any array is built.
MAX_VERIFY_EDGES = 1_000_000
# The induces check measures the K points and their images against the
# points in one distance block, two 2K x K float64 arrays, 32 K^2 bytes: 128
# MB at K_{1000,1000}.  A skinny shape within MAX_VERIFY_EDGES can still have
# many points (K_{3,10000}: 3.2 GB), so a block past this budget (K > 2896)
# raises TooLarge before any array is built.
MAX_INDUCES_BYTES = 2**28

# The drift's allowance per power for rounding in the measured step: 32u,
# four times the 8u the module docstring derives
_ROUNDING = 2.0**-48
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
    divisors = small + [r // d for d in reversed(small) if d * d != r]
    primes: list[int] = []  # the divisors above 1 that no smaller prime divides
    for p in divisors[1:]:
        if all(p % q for q in primes):
            primes.append(p)
    counts = {}
    for d in divisors[:-1]:  # φ(k) = k Π (1 - 1/p) over the primes p of k = r/d
        ps = [p for p in primes if r // d % p == 0]
        counts[d] = r // d // math.prod(ps) * math.prod(p - 1 for p in ps)
    return counts


class _Verification:
    """Working state shared by the individual checks of verify().

    Points are the rows of the embedding's array: graph vertices by global
    index, then from ``n_graph`` on the subdivision vertices, whose ids are
    ``zids``.  ``image`` is the point permutation π: image[k] is the index
    of the automorphism's image of point k, extended over subdivision
    vertices, and -1 where the subdivision set is not closed under the
    automorphism.  The induces check sets ``min_sep`` and ``step``;
    ``run_powers`` sets ``order_dev``, ``early`` and ``counts``, which maps
    each proper divisor d of the claimed order r to the number of powers i
    < r with gcd(i, r) = d, and the entries of ``at_divisors`` and ``bases``
    belong to its keys, ``divisors``, in ascending order; ``establish`` sets
    the rest once π is established.
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
        self._read_pairs(emb.subdivision_pairs)
        self.image = self._point_image()

    def _read_pairs(self, pairs) -> None:
        """Set ``z_edges``, the (V, W) edge of each subdivision vertex, and
        ``z_at``, the subdivision vertex of each subdivided edge.

        Raises ShapeMismatch when a pair is not (V index, W index) or an edge
        carries two subdivision vertices.
        """
        n, m = self.aut.shape.n, self.aut.shape.m
        self.z_edges = [tuple(edge) for edge in pairs]
        self.z_at = {}
        for k, edge in enumerate(self.z_edges, self.n_graph):
            if tuple(map(type, edge)) != (int, int) or not 0 <= edge[0] < n <= edge[1] < n + m:
                raise ShapeMismatch(f"subdivision {self.name(k)} edge {edge} is not (V, W)")
            if edge in self.z_at:
                a, b = map(self.name, edge)
                raise ShapeMismatch(f"edge ({a}, {b}) subdivided twice")
            self.z_at[edge] = k

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

    def edge_key(self, a: int, b: int) -> tuple[int, int, int] | None:
        """The place (v, w, half) of the edge (a, b) of the subdivided graph
        in edge order, or None when (a, b) is no edge with a as its first
        end: (v, w) for v in V and w in W in index order, a subdivided edge
        as (v, z), (z, w) in its place."""
        n, g = self.aut.shape.n, self.n_graph
        if a < n <= b < g:
            return None if (a, b) in self.z_at else (a, b, 0)
        if a < n and b >= g and self.z_edges[b - g][0] == a:
            return (*self.z_edges[b - g], 0)
        if a >= g and self.z_edges[a - g][1] == b:
            return (*self.z_edges[a - g], 1)
        return None

    def edges_among(self, on: list[int]) -> list[tuple[int, int]]:
        """The edges of the subdivided graph with both ends among the points
        ``on``, in edge order."""
        keyed = sorted((key, a, b) for a in on for b in on if (key := self.edge_key(a, b)))
        return [(a, b) for _, a, b in keyed]

    def run_powers(self, r: int, counts: dict[int, int]) -> None:
        """Make M^r, and M^d for each proper divisor d of r, the keys of
        ``counts = _gcd_counts(r)``, in ascending d up to ``early``, the first
        within IDENTITY_GAP of I, if any, which fails the order check; each
        by repeated squaring.  Sets ``order_dev`` (max |M^r - I|),
        ``at_divisors`` (the M^d made) and ``early`` (or None)."""
        M = self.iso.matrix
        self.order_dev = float(np.abs(np.linalg.matrix_power(M, r) - _I4).max())
        self.counts = counts
        self.divisors = list(counts)
        self.at_divisors, self.early = [], None
        for d in counts:
            self.at_divisors.append(np.linalg.matrix_power(M, d))
            if np.abs(self.at_divisors[-1] - _I4).max() <= IDENTITY_GAP:
                self.early = d
                break

    def establish(self, r: int, prior: list[CheckResult]) -> str | None:
        """Why π is not established (module docstring), given the checks
        ``prior`` it rests on, or None when it is; then sets ``bases`` and
        what eel1-eel4 read of π's cycles."""
        failed = [c.name for c in prior if not c.passed]
        if failed:
            return f"{', '.join(failed)} failed"
        # length[k]: the length of point k's π-cycle; inverted: (edge key, L,
        # a, b) for each edge (a, b) whose ends lie L/2 apart in a π-cycle of
        # even length L, in edge order once sorted
        self.length = np.ones(len(self.P), dtype=np.int64)
        self.inverted = []
        for cycle in _index_cycles(self.image.tolist()):
            L, half = len(cycle), len(cycle) // 2
            self.length[cycle] = L
            if r % L:
                return f"pi^{r} moves {self.name(cycle[0])}, in a cycle of length {L}"
            if 2 * half == L:
                for a, b in zip(cycle, cycle[half:] + cycle[:half]):
                    if key := self.edge_key(a, b):
                        self.inverted.append((key, L, a, b))
        drift = self.tol + r * (2 * self.step + _ROUNDING)
        if not drift < self.min_sep:
            return f"tol + drift {drift:.3g} >= min separation {self.min_sep:.3g}"
        self.inverted.sort()
        # parts: the points of each cycle length in V, W and the subdivisions
        n, g = self.aut.shape.n, self.n_graph
        self.parts = [Counter(self.length[s].tolist()) for s in (slice(n), slice(n, g), slice(g, None))]
        # edge_lcms: the edges of each lcm of their ends' lengths, V x W, and
        # one more per subdivision vertex z of (v, w): a power fixes z and v,
        # or z and w, exactly when it fixes v and w
        self.edge_lcms = Counter()
        for a, ca in self.parts[0].items():
            for b, cb in self.parts[1].items():
                self.edge_lcms[math.lcm(a, b)] += ca * cb
        for v, w in self.z_edges:
            self.edge_lcms[math.lcm(self.length[v], self.length[w])] += 1
        self.bases = [fixed_subspace(D) for D in self.at_divisors]
        return None


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
    (module docstring).  eel1-eel4 read the fixed points and interchanges of
    each M^d from the lengths of the cycles of π, the point permutation the
    automorphism prescribes, once unit_norm, orthogonal, order and induces
    have established it; otherwise each fails, naming the reason.  eel2,
    eel3 and eel4 report a finding once per d, with the count of powers i <
    r with gcd(i, r) = d.  Raises TooLarge, before any array is built, when
    r exceeds MAX_CLAIMED_ORDER, the edges plus the subdivision vertices
    exceed MAX_VERIFY_EDGES, or the induces check's distance block of the
    points MAX_INDUCES_BYTES; and when the checks' arrays do not fit in
    memory.  Raises ShapeMismatch unless ``emb.points`` is (n + m + S) x 4
    for S subdivision ids, each with its own edge of the graph as a (V
    index, W index) pair.
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
    try:
        st = _Verification(aut, iso, emb, tol)
    except ValueError as exc:  # ragged or mis-shaped points, or pairs without ids
        raise ShapeMismatch(str(exc)) from exc
    M = iso.matrix
    try:
        unit_norm = _check_unit_norm(st)
        orthogonal = _check_orthogonal(M)
        induces = _check_induces(st)
        st.run_powers(r, _gcd_counts(r))
        order = _check_order(st, r)
        why = st.establish(r, [unit_norm, orthogonal, order, induces])
    except MemoryError as exc:  # a memory limit below the budgets above
        raise TooLarge(
            f"verifying K_{{{shape.n},{shape.m}}} needs more memory than is available"
        ) from exc
    eels = (_check_eel1, _check_eel2, _check_eel3, _check_eel4)
    checks = [
        unit_norm,
        orthogonal,
        order,
        _check_orientation(M, iso.orientation),
        induces,
        *(
            CheckResult(f"eel{i}", False, f"pi not established: {why}")
            if why else check(st) for i, check in enumerate(eels, 1)
        ),
    ]
    return RealizationCertificate(tuple(checks))


def _check_unit_norm(st) -> CheckResult:
    # the norms as np.linalg.norm computes them, without its argument handling
    dev = float(np.abs(np.sqrt(np.add.reduce(st.P * st.P, axis=-1)) - 1.0).max())
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
    # The edges whose ends' π-cycle lengths have lcm l are fixed by the
    # powers d that l divides, first by l itself.  A power i has the subspace
    # of gcd(i, r), so the subspace of l is compared with that of each later
    # multiple d once, for the tally of those edges and each power of d.
    worst, bad = 0.0, 0
    for l, tally in st.edge_lcms.items():
        if l not in st.counts:  # l = r: no proper power fixes them
            continue
        bi = st.bases[st.divisors.index(l)]
        for d, bj in zip(st.divisors, st.bases):
            if d <= l or d % l:
                continue
            if bi.shape[1] == bj.shape[1]:
                dist = subspace_distance(bi, bj)
                worst = max(worst, dist)
            if bi.shape[1] != bj.shape[1] or dist > SUBSPACE_TOL:
                bad += tally * st.counts[d]
    detail = (
        f"{bad} co-fixed adjacent pairs with different fixed sets"
        if bad
        else f"fixed-set agreement within {worst:.3g}"
    )
    return CheckResult("eel1", not bad, detail, worst)


def _check_eel2(st) -> CheckResult:
    findings = {
        d: [f"interchanges {st.name(a)},{st.name(b)}" for _, L, a, b in st.inverted if d % L == L // 2]
        for d in st.divisors
    }
    return _by_divisor(st, "eel2", findings, "no adjacent pair interchanged by any power")


def _arc_findings(st, d: int, basis: np.ndarray, nv: int, nw: int, nz: int) -> list[str]:
    """Arc conditions on the fixed set of M^d, of fixed subspace ``basis``,
    with nv V, nw W and nz subdivision vertices on it and some edge."""
    dim = basis.shape[1]
    if dim <= 1:  # empty or two points: no arc between distinct points
        return ["adjacent pair fixed by a power whose fixed set contains no arcs"]
    if dim == 2:  # a circle
        if nv > 2 or nw > 2:
            return [f"{nv}+{nw} vertices of a part on circle"]
        on = np.flatnonzero(d % st.length == 0)
        xy = st.P[on] @ basis
        ring = on[np.argsort(np.arctan2(xy[:, 1], xy[:, 0]), kind="stable")].tolist()
        pos = {k: t for t, k in enumerate(ring)}
        return [
            f"no free arc between {st.name(a)} and {st.name(b)}"
            for a, b in st.edges_among(ring)
            if (pos[a] - pos[b]) % len(ring) not in (1, len(ring) - 1)
        ]
    if dim == 3:  # a sphere; all of S^3 (dim 4) leaves nothing to check
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
    findings = {}
    for d, basis in zip(st.divisors, st.bases):
        nv, nw, nz = (sum(c for L, c in part.items() if d % L == 0) for part in st.parts)
        # M^d fixes an edge exactly when it fixes a vertex of each part: it
        # then fixes the edge between them, or both halves of it
        if nv and nw:
            findings[d] = _arc_findings(st, d, basis, nv, nw, nz)
    return _by_divisor(st, "eel3", findings, "arc conditions satisfied on all fixed sets")


def _check_eel4(st) -> CheckResult:
    v, w = (math.lcm(*part) for part in st.parts[:2])
    findings = {
        d: ["neither part lies in the fixed sphere"]
        for d, basis in zip(st.divisors, st.bases)
        if basis.shape[1] == 3 and d % v and d % w
    }
    return _by_divisor(st, "eel4", findings, "every fixed sphere contains a full part")
