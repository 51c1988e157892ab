"""Finite-order isometries of S^3 and explicit vertex placements.

Coordinate conventions, fixed once for the whole package:

* X = S^3 with {x1 = x2 = 0} and Y = S^3 with {x3 = x4 = 0} are linked
  geodesic circles; S = S^3 with {x4 = 0} is a geodesic 2-sphere;
  F = X meet S = {(0, 0, +-1, 0)}.
* A "rotation around X" acts on the (x1, x2) coordinates: it fixes X
  pointwise and rotates Y.  A rotation around Y acts on (x3, x4).

Angles are exact rationals: a ``Fraction`` f denotes rotation by 2*pi*f,
so ``Fraction(1, r)`` is the 2*pi/r rotation.  A constructed isometry takes
its order exactly from these fractions (``turn_order``, lcm).  Neither its
float64 matrix nor the placed points are checked here: ``verifier.verify``
is the one numerical check of both, by repeated multiplication against the
tolerances below, never by eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product, zip_longest

import numpy as np

from .classifier import Orientation, classify, dispatch_case
from .core import BipartiteAutomorphism, BipartiteShape, _index_cycles, signature
from .errors import OrderMismatch, PlacementFailure

ORTHOGONALITY_TOL = 1e-12
DET_TOL = 1e-9  # |det M - (+-1)| allowed for the claimed orientation
SUBSPACE_TOL = 1e-9
IDENTITY_GAP = 1e-6  # verify: bounds |M^r - I|, and a power this near I is the identity
SEPARATION = 1e-6  # minimum distance between embedded vertices / landmarks
MAX_PLACEMENT_ATTEMPTS = 1000


@dataclass(frozen=True, eq=False)
class Isometry4:
    """A 4x4 orthogonal matrix with its order and orientation class.

    The four constructors below build the matrix from exact turn fractions,
    take the order from those fractions and make the matrix read-only.  The
    verifier checks orthogonality, orientation and order numerically, for
    these and for instances deserialized from files alike.
    """

    matrix: np.ndarray
    claimed_order: int
    orientation: Orientation


def _turn(f: Fraction) -> tuple[float, float]:
    a = 2.0 * math.pi * float(f)
    return math.cos(a), math.sin(a)


def _matrix(rows) -> np.ndarray:
    M = np.array(rows)
    M.setflags(write=False)
    return M


def turn_order(f: Fraction) -> int:
    """Multiplicative order of the rotation by the turn fraction f."""
    return Fraction(f).denominator  # that of f % 1: whole turns change no denominator


def rotation_isometry(r: int) -> Isometry4:
    """Rotation of S^3 by 2*pi/r around the circle X (acting on (x1, x2))."""
    if r < 1:
        raise ValueError("order must be at least 1")
    c, s = _turn(Fraction(1, r))
    M = _matrix([[c, -s, 0.0, 0.0], [s, c, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    return Isometry4(M, r, Orientation.OP)


def glide_isometry(alpha: Fraction, beta: Fraction, claimed_order: int) -> Isometry4:
    """Composition of rotations by alpha around X and by beta around Y.

    alpha acts on (x1, x2) and rotates Y; beta acts on (x3, x4) and rotates
    X.  The order is the lcm of the two rotation orders; a different
    claimed_order raises OrderMismatch.
    """
    order = math.lcm(turn_order(alpha), turn_order(beta))
    if claimed_order != order:
        raise OrderMismatch(f"claimed order {claimed_order}, computed {order}")
    (c, s), (d, e) = _turn(alpha), _turn(beta)
    M = _matrix([[c, -s, 0.0, 0.0], [s, c, 0.0, 0.0], [0.0, 0.0, d, -e], [0.0, 0.0, e, d]])
    return Isometry4(M, order, Orientation.OP)


def reflection_isometry() -> Isometry4:
    """Reflection of S^3 through the sphere S = {x4 = 0}."""
    return Isometry4(_matrix(np.diag([1.0, 1.0, 1.0, -1.0])), 2, Orientation.OR)


def improper_isometry(theta: Fraction, claimed_order: int) -> Isometry4:
    """Reflection through S composed with rotation by theta around X.

    X meets S perpendicularly in the two points F; those are the fixed set
    whenever theta is not a whole turn.
    """
    order = math.lcm(turn_order(theta), 2)
    if claimed_order != order:
        raise OrderMismatch(f"claimed order {claimed_order}, computed {order}")
    c, s = _turn(theta)
    M = _matrix([[c, -s, 0.0, 0.0], [s, c, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0]])
    return Isometry4(M, order, Orientation.OR)


# --- landmark geometry -----------------------------------------------------

F_POINTS = (np.array([0.0, 0.0, 1.0, 0.0]), np.array([0.0, 0.0, -1.0, 0.0]))

LANDMARK_DESCRIPTIONS = {
    "X": "circle x1=x2=0",
    "Y": "circle x3=x4=0",
    "S": "sphere x4=0",
    "F": "points (0,0,+-1,0)",
}


def point_on_x(t: float) -> np.ndarray:
    return np.array([0.0, 0.0, math.cos(t), math.sin(t)])


def point_on_y(t: float) -> np.ndarray:
    return np.array([math.cos(t), math.sin(t), 0.0, 0.0])


def dist_to_x(p: np.ndarray) -> float:
    s = math.hypot(p[2], p[3])
    return math.sqrt(p[0] ** 2 + p[1] ** 2 + (s - 1.0) ** 2)


def dist_to_y(p: np.ndarray) -> float:
    s = math.hypot(p[0], p[1])
    return math.sqrt(p[2] ** 2 + p[3] ** 2 + (s - 1.0) ** 2)


def dist_to_sphere(p: np.ndarray) -> float:
    t = math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
    return math.sqrt((t - 1.0) ** 2 + p[3] ** 2)


def dist_to_f(p: np.ndarray) -> float:
    return min(_norm(p - f) for f in F_POINTS)


def _norm(d: np.ndarray) -> float:
    """The Euclidean norm of a 1-D array, bit for bit as ``np.linalg.norm``
    computes it, without its dispatch."""
    return math.sqrt(d.dot(d))


# distance to each landmark set a generic orbit avoids; F lies on X
LANDMARK_DISTANCES = {"X": dist_to_x, "Y": dist_to_y, "S": dist_to_sphere}


class SeededPoints:
    """Deterministic unit-point generator.

    64-bit linear congruential generator with Knuth's MMIX constants
    (a = 6364136223846793005, c = 1442695040888963407, modulus 2^64);
    uniform doubles take the top 53 bits.  Realizations are reproducible
    bit-for-bit from the seed.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = seed & self.MASK

    def uniform(self) -> float:
        self.state = (self.MULT * self.state + self.INC) & self.MASK
        return (self.state >> 11) / float(1 << 53)

    def angle(self) -> float:
        return 2.0 * math.pi * self.uniform()

    def unit_on_sphere(self) -> np.ndarray:
        return self.unit4(3)

    def unit4(self, gaussians: int = 4) -> np.ndarray:
        """A unit 4-vector: ``gaussians`` Box-Muller draws (u1 = 1 - uniform(),
        u2 = uniform()), then zeros, normalised and redrawn while the norm is
        at most 1e-3.  ``uniform``'s steps run inline, in one local loop."""
        a, c, mask, scale, x = self.MULT, self.INC, self.MASK, float(1 << 53), self.state
        log, sqrt, cos, tau = math.log, math.sqrt, math.cos, 2.0 * math.pi
        while True:
            p = [0.0] * 4
            for i in range(gaussians):
                x = (a * x + c) & mask
                u1 = 1.0 - (x >> 11) / scale
                x = (a * x + c) & mask
                p[i] = sqrt(-2.0 * log(u1)) * cos(tau * ((x >> 11) / scale))
            p = np.array(p)
            norm = _norm(p)
            if norm > 1e-3:
                self.state = x
                return p / norm


@dataclass(eq=False)
class SpatialEmbedding:
    """Unit-S^3 points of every (possibly subdivided) vertex, by index.

    ``points`` is an (n + m + S) x 4 array: the graph vertices by global
    index, then the S subdivision vertices in the order of their sorted
    ``subdivision_ids``, each subdividing the edge ``subdivision_pairs``
    holds for it as (V index, W index).  ``landmarks`` names the
    distinguished sets (X, Y, S, F) that the construction used.
    """

    shape: BipartiteShape
    points: np.ndarray
    subdivision_ids: tuple[str, ...] = ()
    subdivision_pairs: tuple[tuple[int, int], ...] = ()
    landmarks: dict[str, str] = field(default_factory=dict)


# width of the cells of _Placer's grid, a power of two so that scaling by it
# is exact; the cells are offset by half a width so that the exact 0 and +-1
# coordinates of landmark points lie mid-cell, not on four cell boundaries;
# _GRID: that exact scale, and a 2 * SEPARATION ball so offset, in widths
_CELL_WIDTH = 2.0**-10
_GRID = (2.0**10, 0.5 - 2.0 * SEPARATION / _CELL_WIDTH, 0.5 + 2.0 * SEPARATION / _CELL_WIDTH)


def _distances(new: np.ndarray, placed: np.ndarray) -> np.ndarray:
    """The len(new) x len(placed) matrix of Euclidean distances, with the
    bits of ``np.linalg.norm(new[:, None] - placed[None], axis=2)``: the
    squared differences are summed in coordinate order, like norm's reduce,
    but coordinate by coordinate, which is several times faster for 4-vectors
    and holds two pair-sized arrays instead of a 4-vector per pair.  Both
    are allocated before either is written, so a block too large for memory
    fails before it touches any."""
    d = np.empty((len(new), len(placed)))
    diff = np.empty_like(d)
    new, placed = new[:, None], placed[None]
    np.subtract(new[..., 0], placed[..., 0], out=diff)
    np.multiply(diff, diff, out=d)
    for c in (1, 2, 3):
        np.subtract(new[..., c], placed[..., c], out=diff)
        d += np.multiply(diff, diff, out=diff)
    return np.sqrt(d, out=d)


def _row_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_k - b_k| for each row k of two equal-length arrays of points (or of
    one point a and each row of b), with the bits of ``_distances``: the same
    squares summed in the same order, with no block and 5 ufunc calls."""
    diff = a - b
    diff *= diff
    return np.sqrt(((diff[:, 0] + diff[:, 1]) + diff[:, 2]) + diff[:, 3])


class _Placer:
    """Owns the points of an embedding while its orbits are placed.

    The points fill the rows of one array preallocated for the graph and
    ``subdivisions`` subdivision vertices; ``rows`` maps each placed key
    (graph vertices by global index, subdivision vertices by their str id)
    to its row.  ``place`` writes one orbit at a time after the placed rows,
    each row ``np.dot(M, previous row)`` (the bits of ``@``), and keeps it
    when ``_admit`` finds no point of it closer than SEPARATION to an
    earlier row.  ``cells`` files each placed row under every cell of width
    _CELL_WIDTH that its ball of radius 2 * SEPARATION meets, almost always
    one and at most 16.  A new point is measured (``_row_distances``) only
    against the rows filed under its own cell, so each pair is measured at
    most once and every pair closer than SEPARATION is measured.  Orbits
    average about 4 points, so each orbit costs few Python and numpy calls.
    The draws, points, rows, rng state and errors are those of the dense
    check (``tests/placement_oracle.py``); unit norm and closure under M are
    left to ``verifier.verify``.
    """

    def __init__(self, M: np.ndarray, shape: BipartiteShape, rng: SeededPoints, subdivisions=0):
        self.M, self.shape, self.rng = M, shape, rng
        self.points = np.empty((shape.size + subdivisions, 4))
        self.rows: dict[int | str, int] = {}
        self.cells: dict[tuple[int, ...], list[int]] = {}

    def _label(self, key) -> str:
        return key if isinstance(key, str) else self.shape.vertex_at(key).label

    def _admit(self, keys) -> bool:
        """Keep the orbit written after the placed rows, its keys given in
        row order, unless one of its points is closer than SEPARATION to an
        earlier row; return whether it was kept.

        If |q - o| < SEPARATION, every coordinate of q lies within
        SEPARATION of o's, so q's own cell is one that o was filed under:
        the radius 2 * SEPARATION covers the rounding of both cell indices.
        """
        points, cells, floor, (scale, low, high) = self.points, self.cells, math.floor, _GRID
        start, filed = len(self.rows), []
        for row, (a, b, c, d) in enumerate(points[start : start + len(keys)].tolist(), start):
            a, b, c, d = a * scale, b * scale, c * scale, d * scale
            # the cells of the ball's lowest and highest corners
            lo = (floor(a + low), floor(b + low), floor(c + low), floor(d + low))
            hi = (floor(a + high), floor(b + high), floor(c + high), floor(d + high))
            own, ball = lo, (lo,)
            if lo != hi:  # the ball meets more than one cell
                own = (floor(a + 0.5), floor(b + 0.5), floor(c + 0.5), floor(d + 0.5))
                ball = product(*map(range, lo, [i + 1 for i in hi]))
            near = cells.get(own)
            if near and (_row_distances(points[row], points[near]) < SEPARATION).any():
                for cell in filed:  # the orbit's rows are the last of their cells
                    cell.pop()
                return False
            for index in ball:
                cell = cells.setdefault(index, [])
                cell.append(row)
                filed.append(cell)
        self.rows.update(zip(keys, range(start, start + len(keys))))
        return True

    def place(self, steps) -> None:
        """Place each step ``(keys, seed[, avoid])`` as the orbit of ``seed``
        under M, in order.

        ``seed`` is a pinned point, placed as it is, or a draw function of
        the rng.  A drawn point is redrawn until each distance function in
        ``avoid`` puts it at least SEPARATION off its landmark set, and its
        orbit is redrawn until it is admitted, at most
        MAX_PLACEMENT_ATTEMPTS times.  A pinned orbit that comes too close
        raises PlacementFailure, as does a failed draw.
        """
        points, M, rng, dot = self.points, self.M, self.rng, np.dot
        for keys, seed, *avoid in steps:
            start, pinned, p = len(self.rows), not callable(seed), seed
            landmarks = avoid[0] if avoid else ()
            for _ in range(MAX_PLACEMENT_ATTEMPTS):
                for _ in range(0 if pinned else MAX_PLACEMENT_ATTEMPTS):
                    p = seed(rng)
                    q = p.tolist()  # the landmark distances read Python floats
                    if all(d(q) >= SEPARATION for d in landmarks):
                        break
                else:
                    if not pinned:
                        raise PlacementFailure("could not sample a point off the landmark sets")
                points[start] = p
                for row in range(start + 1, start + len(keys)):
                    dot(M, points[row - 1], out=points[row])  # M @ points[row - 1]
                if self._admit(keys):
                    break
                if pinned:
                    raise PlacementFailure(f"pinned orbit through {self._label(keys[0])} collides")
            else:
                raise PlacementFailure(
                    f"no admissible orbit through {self._label(keys[0])} "
                    f"after {MAX_PLACEMENT_ATTEMPTS} attempts"
                )


def _on_circle(point_at):
    """Draw function for a point of a landmark circle at a random angle."""
    return lambda rng: point_at(rng.angle())


# --- realization -----------------------------------------------------------
#
# The constructions work on global indices: a cycle is a tuple of indices
# starting at its smallest one, so a mixed cycle starts in V.  The returned
# SpatialEmbedding is keyed by index as well; labels are made only where
# files and failure messages are written.
#
# A construction places nothing: it returns (isometry, plan, subdivision
# edges, landmark names), the plan listing its special orbits in placement
# order as steps (keys, seed[, avoid]) of ``_Placer.place``.  ``_realize``
# groups the cycles once for the construction it picks, appends a
# generic-orbit step for every other cycle and places them all, one orbit
# at a time.


def _grouped_cycles(perm: tuple[int, ...], n: int, interchanged: bool):
    """The non-trivial cycles of ``perm`` in the order of their smallest
    index, and every cycle, fixed vertices as 1-cycles, grouped into (pure
    v-role, pure w-role, mixed), keyed by length; the v-role part is W when
    the case matched interchanged."""
    cycles = [tuple(cyc) for cyc in _index_cycles(perm)]
    groups: tuple[dict[int, list], ...] = ({}, {}, {})
    for cyc in [(g,) for g, p in enumerate(perm) if p == g] + cycles:
        # cyc[0] is the smallest index of its cycle; role 0 is v-role, 1 w-role
        role = 2 if cyc[0] < n <= perm[cyc[0]] else int((cyc[0] < n) == interchanged)
        groups[role].setdefault(len(cyc), []).append(cyc)
    return cycles, groups


def _interleave_fixed(groups, interchanged: bool) -> list[int]:
    """Fixed vertices ordered so the two parts alternate while both last,
    the part with more of them first, V on a tie."""
    fv, fw = ([g for g, in group.get(1, ())] for group in groups[:2])
    if interchanged:
        fv, fw = fw, fv
    first, second = (fv, fw) if len(fv) >= len(fw) else (fw, fv)
    return [g for pair in zip_longest(first, second) for g in pair if g is not None]


def _realize_rotation(r, groups, case):
    """Cases 1 (part-preserving), 2, 3 and the identity: a single rotation.

    Fixed vertices go on X at equally spaced angles, parts alternating when
    both are present; every cycle is a generic r-orbit off X.
    """
    fixed = _interleave_fixed(groups, case.interchanged)
    plan = [((g,), point_on_x(2.0 * math.pi * t / len(fixed))) for t, g in enumerate(fixed)]
    return rotation_isometry(r), plan, {}, ("X",)


def _subdivide_half_turn(cycles, r: int):
    """Subdivision vertices for the edges that the half-order power inverts,
    with their cycles under the induced action, given the cycles of a
    part-swapping automorphism of order r, odd r/2, all mixed r-cycles.

    In a cycle (c0 ... c_{r-1}), c0 in V, the half-order power maps c_i to
    c_{i+r/2}, so it inverts the edge (c_i, c_{i+r/2}) for each even i, and
    the automorphism maps that edge to (c_{i+r/2+1}, c_{i+1}), the edge at
    i + r/2 + 1.  As gcd(r/2 + 1, r) = 2, the r/2 edges of a cycle form one
    cycle of the induced action, listed from the edge at c0.  The edge at the
    V vertex of global index g gets the id z{g+1}.  Returns the edges by id
    and the id cycles.
    """
    half = r // 2
    sub_edges: dict[str, tuple[int, int]] = {}
    z_cycles = []
    for cyc in cycles:
        z_cycle = []
        for t in range(half):
            i = t * (half + 1) % r
            z = f"z{cyc[i] + 1}"
            sub_edges[z] = (cyc[i], cyc[(i + half) % r])
            z_cycle.append(z)
        z_cycles.append(z_cycle)
    return sub_edges, z_cycles


def _realize_glide(r, groups, case):
    """Cases 1 (part-swapping) and 4-9: a glide rotation R(alpha) + R(beta).

    Each case picks the exceptional cycles that go on Y and those that go on
    X, following the construction proofs; the turns follow from them:
    alpha = 1/j for the j-cycles on Y (1/4 when there are none) and beta =
    1/k for the k-cycles on X (1/r when there are none).  Everything else
    is a generic r-orbit off both circles.
    """
    pure_v, pure_w, mixed = groups
    on_y, on_x = _on_circle(point_on_y), _on_circle(point_on_x)
    sub_edges: dict[str, tuple[int, int]] = {}
    y_plan, x_cycles = [], []  # the steps on Y, the cycles on X

    if case.number == 1:  # part-swapping; all cycles are mixed r-cycles
        if (r // 2) % 2 == 1:
            sub_edges, z_cycles = _subdivide_half_turn(mixed[r], r)
            y_plan = [(z_cycle, on_y) for z_cycle in z_cycles]
    elif case.number < 7:  # V's j-cycles on Y; case 5 V's, case 6 W's k-cycles on X
        j, *k = sorted(L for L in pure_v if L != r)
        y_plan = [(c, on_y) for c in pure_v[j]]
        if case.number > 4:
            x_cycles = pure_v[k[0]] if k else next(c for L, c in pure_w.items() if L != r)
    elif case.number < 9:  # the 2-cycles pinned on Y; case 8 V's r/2-cycles on X
        y_plan = [(pure_v[2][0], point_on_y(0.0)), (pure_w[2][0], point_on_y(math.pi / 2))]
        if case.number == 8:
            x_cycles = pure_v[r // 2]
    else:  # case 9: one mixed 4-cycle on Y
        y_plan = [(mixed[4][0], on_y)]

    alpha = Fraction(1, len(y_plan[0][0])) if y_plan else Fraction(1, 4)
    beta = Fraction(1, len(x_cycles[0])) if x_cycles else Fraction(1, r)
    plan = y_plan + [(c, on_x) for c in x_cycles]
    return glide_isometry(alpha, beta, r), plan, sub_edges, ("X", "Y")


def _realize_reflection(groups):
    """Case 11: a reflection through S.

    All fixed vertices go on S (the full v-role part on a circle of S, the
    at most two fixed vertices of the other part at the poles of that circle
    within S, giving the planar K_{2,n} pattern); 2-cycles become mirror
    pairs.
    """
    full, rest = (group.get(1, []) for group in groups[:2])
    plan = [(g, point_on_y(2.0 * math.pi * t / len(full))) for t, g in enumerate(full)]
    plan += list(zip(rest, F_POINTS))
    return reflection_isometry(), plan, {}, ("S",)


def _realize_improper(r, groups, case):
    """Cases 10, 12, 13: an improper rotation R(theta) + diag(1, -1).

    Fixed vertices sit at the two points of F; 2-cycles lie on X - F
    (alternating around X with the F vertices, and with parts alternating
    in case 13 where the 2-cycle edges carry subdivision vertices placed at
    F); half-order cycles of cases 12c/12d lie on S - F; everything else is
    a generic r-orbit off S and X.
    """
    theta = Fraction(2, r) if case.sub in ("c", "d") else Fraction(1, r)
    iso = improper_isometry(theta, r)
    pure_v, pure_w, mixed = groups
    # case 13 (4 | r) has at most two mixed 2-cycles; each edge gets a
    # subdivision vertex at a point of F
    two_cycles = mixed.get(2, []) if case.number == 13 else []
    sub_edges = {f"z{i}": cyc for i, cyc in enumerate(two_cycles, 1)}
    plan = [((g,), p) for g, p in zip(_interleave_fixed(groups, case.interchanged), F_POINTS)]

    # for r = 2 every non-fixed vertex is in a 2-cycle, embedded off S and X;
    # case 13 has 4 | r
    if case.number == 13:
        angles = [math.pi / 2] if len(two_cycles) == 1 else [math.pi / 3, 4 * math.pi / 3]
        for (z, cyc), t, f_point in zip(sub_edges.items(), angles, F_POINTS):
            # a mixed cycle starts at its V vertex, so cyc = (v, phi(v))
            plan += [(cyc, point_on_x(t)), ((z,), f_point)]
    elif r > 2:
        if case.sub in ("a", "d"):
            plan += [(cyc, point_on_x(math.pi / 2)) for cyc in pure_w.get(2, [])]
        if case.sub in ("b", "c"):
            plan += [(cyc, _on_circle(point_on_x), (dist_to_f,)) for cyc in pure_v.get(2, [])]
        if case.sub in ("c", "d"):
            half_cycles = (pure_w if case.sub == "c" else pure_v).get(r // 2, [])
            plan += [(cyc, SeededPoints.unit_on_sphere, (dist_to_x,)) for cyc in half_cycles]

    return iso, plan, sub_edges, ("X", "S", "F")


def realize(
    aut: BipartiteAutomorphism, orientation, seed: int = 1
) -> tuple[Isometry4, SpatialEmbedding]:
    """Construct an isometry of S^3 and the points, by index, inducing ``aut``.

    ``orientation`` selects the realization class (an ``Orientation``, or
    its value "op" preserving, "or" reversing); ``aut``'s signature is
    classified, NotRealizable is raised when the classifier reports none,
    and ``_realize`` builds from the order and the case ``dispatch_case``
    picks.  The construction is deterministic in ``seed``.  The result
    satisfies verifier.verify at the default tolerance wherever verify
    accepts its size: the OP6 realization of K_{997,1000} (order 997000)
    is certified, and K_{1499,1500} is built but not certified, its
    2 248 500 edges being more than verifier.MAX_VERIFY_EDGES.
    """
    sig = signature(aut)
    case = dispatch_case(classify(sig), Orientation(orientation))
    return _realize(aut, sig.r, case, seed)


def _realize(aut, r, case, seed):
    """``realize`` of ``aut``, whose order is ``r``, by the construction of
    ``case``, for a caller that has classified ``aut`` already.

    The cycles are grouped once by role and handed to the construction.
    Its plan and then one generic orbit per remaining cycle, in the order
    of their smallest index (drawn with ``SeededPoints.unit4`` off the
    landmark sets), go to ``_Placer.place``.  It places one orbit at a time
    and checks each of its points only against the earlier points filed
    under the point's cell of a grid, so its time and memory grow linearly
    with the points.
    """
    cycles, groups = _grouped_cycles(aut.perm, aut.shape.n, case.interchanged)
    if case.number in (2, 3) or (case.number == 1 and not groups[2]):
        construction = _realize_rotation(r, groups, case)
    elif case.number < 10:
        construction = _realize_glide(r, groups, case)
    elif case.number == 11:
        construction = _realize_reflection(groups)
    else:
        construction = _realize_improper(r, groups, case)
    iso, plan, sub_edges, landmark_names = construction

    planned = {k for keys, *_ in plan for k in keys}
    avoid = [LANDMARK_DISTANCES[k] for k in landmark_names if k in LANDMARK_DISTANCES]
    generic = [(cyc, SeededPoints.unit4, avoid) for cyc in cycles if cyc[0] not in planned]
    placer = _Placer(iso.matrix, aut.shape, SeededPoints(seed), len(sub_edges))
    placer.place(plan + generic)

    zids = tuple(sorted(sub_edges))
    rows = placer.rows
    return iso, SpatialEmbedding(
        shape=aut.shape,
        points=placer.points[[rows[k] for k in (*range(aut.shape.size), *zids)]],
        subdivision_ids=zids,
        subdivision_pairs=tuple(sub_edges[z] for z in zids),
        landmarks={k: LANDMARK_DESCRIPTIONS[k] for k in landmark_names},
    )
