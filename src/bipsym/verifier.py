"""Independent certificate checks for (automorphism, isometry, embedding) triples.

verify() re-derives everything from the raw matrix and coordinates: matrix
invariants, the induced vertex permutation via nearest-neighbour matching,
the fixed subspaces of the powers of the matrix, and the hypotheses of the
edge-embedding conditions (named eel1-eel4 in the certificate).  Nothing is
trusted from the construction that produced the triple.

The checks read M^r, for the order check, and M^d for each proper divisor d
of the claimed order r, from r's primes found by trial division, in
ascending d up to the first within IDENTITY_GAP of I.  All are made from
one chain of squarings M^(2^k), each multiplied in np.linalg.matrix_power's
order and so with its bits, so time grows with log r and with the number
of r's divisors, not with r.  MAX_CLAIMED_ORDER bounds the trial division.

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

Induces.  The check measures every distance between points with
geometry's one pairwise-distance kernel, _distances, and each deviation
|M x_k - x_{π(k)}| from the computed image q_k with _row_distances, which
has the kernel's bits; a test pins those bits to np.linalg.norm's, and the
verifier oracle in the tests measures with np.linalg.norm itself.  Whether
x_{π(k)} is the point nearest q_k needs the distances from every image to
every point, the image block, only where the shortcut below does not
apply; there the check builds the block and reads each nearest point with
argmin.

Shortcut.  Let s' be the measured minimum separation and D' the largest
measured deviation.  When unit_norm and orthogonal pass, every π(k) exists,
D' <= tol and s' > 2 D' + _ROUNDING, then for every k each point x_j, j !=
π(k), measures strictly farther from q_k than x_{π(k)}, so argmin would
find π(k), and the check passes as the block would pass it.  unit_norm and
orthogonal bound the norm of every point and image by 1 + 10^-11, so
every distance d measured is below 2.001.  _distances rounds each
difference, square, sum and the root once: a relative error of at most
4.01u, so the measured d' lies within 8.03u of d, plus at most 2^-536
where squares underflow, within 9u in all.  So the exact separation s >=
s' - 9u and each exact deviation δ_k <= D' + 9u, the triangle inequality
gives |q_k - x_j| >= s - δ_k >= s' - D' - 18u, measured as at least s' -
D' - 27u, and that exceeds D' whenever s' > 2 D' + 27u.  _ROUNDING = 32u
covers the 27u.  A NaN fails one of the comparisons, and takes the block.

Shared checks.  orthogonal, order and orientation, M^r and the M^d with
their count table and early identity, and the fixed subspaces of the M^d
read only the matrix M, the claimed order r, the orientation and tol:
_check_isometry makes them, and the first certificate that establishes π
adds the subspaces, which only eel1, eel3 and eel4 read.  The point checks
(unit_norm, induces, establishing π, eel1-eel4) read those results and
change none of them.  So every check's result, and the certificate's bits,
are a pure function of (M's bytes, r, orientation, tol) and the points,
and triples that agree on the first four may share one _check_isometry.
verify makes a fresh one per call; census(realize_all=True) keeps one per
key for the call in an _IsometryTable, since many of its classes share an
isometry (every case-2/3 class of order r gets the same rotation).
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
    _row_distances,
)

# r's primes come from trial division up to √r: below this bound r has at
# most 1344 divisors, and _gcd_counts takes under 5 ms on 2 CPUs (x86-64); a
# larger claim raises TooLarge before any product.  realize writes such
# orders: the OP6 glide of (v1 ... vn)(w1 ... wm) has order lcm(n, m), above
# this bound from K_{31623,31624} (order 1 000 045 752) on.  Those files are
# refused for their order, but with about 10^9 edges they are a thousand
# times past MAX_VERIFY_EDGES too, so raising this bound alone would not
# verify them.
MAX_CLAIMED_ORDER = 10**9
# n*m edges plus the subdivision vertices.  verify keeps no array over the
# edges, so on balanced shapes this bounds only the induces check's distance
# blocks of the points: at this bound, K_{1000,1000} in pure 10-cycles
# verifies in 0.3-0.45 s at 93 MB peak RSS on 2 CPUs; larger graphs raise
# TooLarge before any array is built.
MAX_VERIFY_EDGES = 1_000_000
# The induces check measures the K points against each other in one K x K
# float64 block and its scratch array, 16 K^2 bytes, 64 MB at K_{1000,1000};
# where its shortcut does not apply it frees them and measures the images
# against the points in a second pair as large.  The budget counts both
# pairs, 32 K^2 bytes.  A skinny shape within MAX_VERIFY_EDGES can still have
# many points (K_{3,10000}: 3.2 GB), so blocks past this budget (K > 2896)
# raise TooLarge before any array is built.
MAX_INDUCES_BYTES = 2**28

# 32u: the drift's allowance per power for rounding in the measured step,
# four times the 8u the module docstring derives, and the induces shortcut's
# margin for the rounding of its distances, above the 27u derived there
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
    factors = []  # (p, e) for each prime power p^e of r, by trial division
    rest, p = r, 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    # (d, φ(r/d)) for each divisor d = Π p^k: r/d = Π p^(e - k), and φ(p^j)
    # = p^(j - 1) (p - 1) for j >= 1
    table = [(1, 1)]
    for p, e in factors:
        table = [
            (d * p**k, phi * (p ** (e - k - 1) * (p - 1) if k < e else 1))
            for d, phi in table
            for k in range(e + 1)
        ]
    return dict(sorted(table)[:-1])  # the last is d = r


def _power(chain: list[np.ndarray], n: int) -> np.ndarray:
    """M^n for n >= 1 from ``chain``, the squarings M^(2^k) for k below
    n.bit_length() at least, multiplied in np.linalg.matrix_power's order,
    so with its bits: its shortcut (M M) M for n = 3, else the squarings of
    n's bits from the lowest, each product on the right."""
    if n == 3:
        return chain[1] @ chain[0]
    result = None
    for k, z in enumerate(chain[: n.bit_length()]):
        if n >> k & 1:
            result = z if result is None else result @ z
    return result


class _Verification:
    """Working state of the point checks of verify().

    Points are the rows of the embedding's array: graph vertices by global
    index, then from ``n_graph`` on the subdivision vertices, whose ids are
    ``zids``.  ``image`` is the point permutation π: image[k] is the index
    of the automorphism's image of point k, extended over subdivision
    vertices, and -1 where the subdivision set is not closed under the
    automorphism.  The induces check sets ``min_sep`` and ``step``;
    ``establish`` sets the rest once π is established, all of it Python
    lists and counters of ints but ``length``, each point's π-cycle length,
    one int array for eel3's circles.  What the checks read of the matrix
    alone is an _IsometryChecks.
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

    def establish(self, r: int, prior: list[CheckResult]) -> str | None:
        """Why π is not established (module docstring), given the checks
        ``prior`` it rests on, or None when it is; then sets what eel1-eel4
        read of π's cycles."""
        failed = [c.name for c in prior if not c.passed]
        if failed:
            return f"{', '.join(failed)} failed"
        # length[k]: the length of point k's π-cycle; inverted: (edge key, L,
        # a, b) for each edge (a, b) whose ends lie L/2 apart in a π-cycle of
        # even length L, in edge order once sorted
        length = [1] * len(self.P)
        self.inverted = []
        for cycle in _index_cycles(self.image.tolist()):
            L, half = len(cycle), len(cycle) // 2
            for k in cycle:
                length[k] = L
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
        self.parts = [Counter(length[:n]), Counter(length[n:g]), Counter(length[g:])]
        # edge_lcms: the edges of each lcm of their ends' lengths, V x W, and
        # one more per subdivision vertex z of (v, w): a power fixes z and v,
        # or z and w, exactly when it fixes v and w
        self.edge_lcms = Counter()
        for a, ca in self.parts[0].items():
            for b, cb in self.parts[1].items():
                self.edge_lcms[math.lcm(a, b)] += ca * cb
        for v, w in self.z_edges:
            self.edge_lcms[math.lcm(length[v], length[w])] += 1
        self.length = np.array(length)  # eel3 orders a circle's points by it
        return None


@dataclass
class _IsometryChecks:
    """The checks of verify() that read only the isometry and tol, and what
    establish and eel1-eel4 read of its powers (_check_isometry).

    ``counts`` maps each proper divisor d of the claimed order r to the
    number of powers i < r with gcd(i, r) = d; ``at_divisors`` holds the M^d
    made and ``bases`` their fixed subspaces, both in the ascending order of
    ``divisors``, the keys of ``counts``, up to ``early``, the first within
    IDENTITY_GAP of I, if any; ``order_dev`` is max |M^r - I|.  ``bases``
    is None until the first certificate that establishes π needs it.
    """

    orthogonal: CheckResult
    order: CheckResult
    orientation: CheckResult
    counts: dict[int, int]
    divisors: list[int]
    at_divisors: list[np.ndarray]
    early: int | None
    order_dev: float
    bases: list[np.ndarray] | None = None


def _check_isometry(iso: Isometry4, tol: float) -> _IsometryChecks:
    """orthogonal, order and orientation of ``iso`` at ``tol``, with M^r and
    M^d for each proper divisor d of r = iso.claimed_order, in ascending d
    up to the first within IDENTITY_GAP of I, if any, which fails the order
    check.  All powers come from one chain of squarings M^(2^k), each
    multiplied as np.linalg.matrix_power multiplies it, so with its bits
    (``_power``).  Reads nothing else (module docstring, Shared checks)."""
    M, r = iso.matrix, iso.claimed_order
    counts = _gcd_counts(r)
    chain = [M]  # M^(2^k) for each bit of r, shared by every power
    for _ in range(r.bit_length() - 1):
        chain.append(chain[-1] @ chain[-1])
    order_dev = float(np.abs(_power(chain, r) - _I4).max())
    at_divisors, early = [], None
    for d in counts:
        at_divisors.append(_power(chain, d))
        if np.abs(at_divisors[-1] - _I4).max() <= IDENTITY_GAP:
            early = d
            break
    return _IsometryChecks(
        _check_orthogonal(M),
        _check_order(r, tol, order_dev, early),
        _check_orientation(M, iso.orientation),
        counts,
        list(counts),
        at_divisors,
        early,
        order_dev,
    )


class _IsometryTable(dict):
    """(matrix bytes, claimed order, orientation, tol) -> _check_isometry of
    that isometry, made on first use and kept for one census: every result
    is a pure function of the key (module docstring, Shared checks).  The
    bytes name the matrix for float64 4 x 4 matrices, which realize makes.
    Called as _check_isometry is."""

    def __call__(self, iso: Isometry4, tol: float) -> _IsometryChecks:
        key = (iso.matrix.tobytes(), iso.claimed_order, iso.orientation, tol)
        checks = self.get(key)
        if checks is None:
            checks = self[key] = _check_isometry(iso, tol)
        return checks


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
    exceed MAX_VERIFY_EDGES, or the induces check's two distance blocks
    MAX_INDUCES_BYTES; and when the checks' arrays do not fit in
    memory.  Raises ShapeMismatch unless ``emb.points`` is (n + m + S) x 4
    for S subdivision ids, each with its own edge of the graph as a (V
    index, W index) pair.
    """
    return _certify(aut, iso, emb, tol, _check_isometry)


# an overflow or invalid value shows in the measured value of the check it
# spoils, so numpy's RuntimeWarnings would only repeat it on stderr
@np.errstate(all="ignore")
def _certify(aut, iso, emb, tol, isometry) -> RealizationCertificate:
    """verify(aut, iso, emb, tol), taking the checks of the isometry from
    ``isometry(iso, tol)``, _check_isometry or an _IsometryTable, once the
    preconditions hold."""
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
    try:
        unit_norm = _check_unit_norm(st)
        m = isometry(iso, tol)
        induces = _check_induces(st, unit_norm.passed and m.orthogonal.passed)
        why = st.establish(r, [unit_norm, m.orthogonal, m.order, induces])
        if why is None and m.bases is None:  # eel1, eel3 and eel4 read them
            m.bases = [fixed_subspace(D) for D in m.at_divisors]
    except MemoryError as exc:  # a memory limit below the budgets above
        raise TooLarge(
            f"verifying K_{{{shape.n},{shape.m}}} needs more memory than is available"
        ) from exc
    eels = (_check_eel1, _check_eel2, _check_eel3, _check_eel4)
    checks = [
        unit_norm,
        m.orthogonal,
        m.order,
        m.orientation,
        induces,
        *(
            CheckResult(f"eel{i}", False, f"pi not established: {why}")
            if why else check(st, m) for i, check in enumerate(eels, 1)
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


def _check_order(r: int, tol: float, order_dev: float, early: int | None) -> CheckResult:
    # within IDENTITY_GAP too, so that r's divisors see every early identity
    ok = order_dev <= min(tol, IDENTITY_GAP)
    detail = f"|M^{r} - I| = {order_dev:.3g}"
    if early is not None:
        ok = False
        detail += f"; M^{early} is already the identity"
    if IDENTITY_GAP < order_dev <= tol:
        detail += f"; more than the identity gap {IDENTITY_GAP:g}"
    return CheckResult("order", ok, detail, order_dev)


def _check_orientation(M: np.ndarray, orientation: Orientation) -> CheckResult:
    det = float(np.linalg.det(M))
    want = 1.0 if orientation is Orientation.OP else -1.0
    ok = abs(det - want) <= DET_TOL
    return CheckResult(
        "orientation", ok, f"det = {det:.17g}, expected {want:+.0f}", det
    )


def _check_induces(st, bounded: bool) -> CheckResult:
    """The induces check; ``bounded``: unit_norm and orthogonal passed, which
    bound the points and their images for the shortcut (module docstring)."""
    P = st.P
    K = len(P)
    # the distances between points, the largest array of a passing verify
    dists = _distances(P, P)
    dists.flat[:: K + 1] = np.inf
    st.min_sep = min_sep = float(dists.min())
    del dists
    Q = P @ st.iso.matrix.T
    target = st.image
    dev = _row_distances(Q, P[target])  # d(M x_k, x_target); unused where not closed
    step = float(dev.max())
    if bounded and target.min() >= 0 and step <= st.tol and min_sep > 2 * step + _ROUNDING:
        st.step = step  # each x_π(k) is the point nearest M x_k
        worst, bad = step, ()
    else:  # the nearest point to each image, from the image block
        nearest = _distances(Q, P).argmin(axis=1)
        matched = nearest == target  # never where target is -1
        st.step = step if matched.all() else math.inf
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


def _check_eel1(st, m: _IsometryChecks) -> CheckResult:
    # The edges whose ends' π-cycle lengths have lcm l are fixed by the
    # powers d that l divides, first by l itself.  A power i has the subspace
    # of gcd(i, r), so the subspace of l is compared with that of each later
    # multiple d once, for the tally of those edges and each power of d.
    worst, bad = 0.0, 0
    for l, tally in st.edge_lcms.items():
        if l not in m.counts:  # l = r: no proper power fixes them
            continue
        bi = m.bases[m.divisors.index(l)]
        for d, bj in zip(m.divisors, m.bases):
            if d <= l or d % l:
                continue
            if bi.shape[1] == bj.shape[1]:
                dist = subspace_distance(bi, bj)
                worst = max(worst, dist)
            if bi.shape[1] != bj.shape[1] or dist > SUBSPACE_TOL:
                bad += tally * m.counts[d]
    detail = (
        f"{bad} co-fixed adjacent pairs with different fixed sets"
        if bad
        else f"fixed-set agreement within {worst:.3g}"
    )
    return CheckResult("eel1", not bad, detail, worst)


def _check_eel2(st, m: _IsometryChecks) -> CheckResult:
    findings = {
        d: [f"interchanges {st.name(a)},{st.name(b)}" for _, L, a, b in st.inverted if d % L == L // 2]
        for d in m.divisors
    }
    return _by_divisor(st, m, "eel2", findings, "no adjacent pair interchanged by any power")


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


def _by_divisor(
    st, m: _IsometryChecks, name: str, findings: dict[int, list[str]], ok_detail: str
) -> CheckResult:
    """The check ``name`` failing on ``findings``, keyed by proper divisor d
    of r in ascending order: each is reported once, with the number of powers
    i < r with gcd(i, r) = d, and counts once for each of them."""
    r = st.iso.claimed_order
    problems = [
        f"{m.counts[d]} powers i with gcd(i, {r}) = {d}: {text}"
        for d, texts in findings.items() for text in texts
    ]
    count = sum(m.counts[d] * len(texts) for d, texts in findings.items())
    return CheckResult(name, not problems, "; ".join(problems) or ok_detail, float(count))


def _check_eel3(st, m: _IsometryChecks) -> CheckResult:
    findings = {}
    for d, basis in zip(m.divisors, m.bases):
        nv, nw, nz = (sum(c for L, c in part.items() if d % L == 0) for part in st.parts)
        # M^d fixes an edge exactly when it fixes a vertex of each part: it
        # then fixes the edge between them, or both halves of it
        if nv and nw:
            findings[d] = _arc_findings(st, d, basis, nv, nw, nz)
    return _by_divisor(st, m, "eel3", findings, "arc conditions satisfied on all fixed sets")


def _check_eel4(st, m: _IsometryChecks) -> CheckResult:
    v, w = (math.lcm(*part) for part in st.parts[:2])
    findings = {
        d: ["neither part lies in the fixed sphere"]
        for d, basis in zip(m.divisors, m.bases)
        if basis.shape[1] == 3 and d % v and d % w
    }
    return _by_divisor(st, m, "eel4", findings, "every fixed sphere contains a full part")
