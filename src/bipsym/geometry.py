"""Finite-order isometries of S^3 and explicit vertex placements.

Coordinate conventions, fixed once for the whole package:

* X = S^3 with {x1 = x2 = 0} and Y = S^3 with {x3 = x4 = 0} are linked
  geodesic circles; S = S^3 with {x4 = 0} is a geodesic 2-sphere;
  F = X meet S = {(0, 0, +-1, 0)}.
* A "rotation around X" acts on the (x1, x2) coordinates: it fixes X
  pointwise and rotates Y.  A rotation around Y acts on (x3, x4).

Angles are exact rationals: a ``Fraction`` f denotes rotation by 2*pi*f,
so ``Fraction(1, r)`` is the 2*pi/r rotation.  Matrices are float64; all
order checks are done by repeated multiplication against the tolerances
below, never by eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .classifier import Orientation, classify_aut, dispatch_case
from .core import (
    BipartiteAutomorphism,
    BipartiteShape,
    Part,
    SideAction,
    VertexId,
    power,
    signature,
)
from .errors import (
    NotRealizable,
    OrderMismatch,
    PlacementFailure,
    PreconditionError,
)

ORTHOGONALITY_TOL = 1e-12
ORDER_TOL = 1e-9
SUBSPACE_TOL = 1e-9
IDENTITY_GAP = 1e-6  # a proper power must differ from I by more than this
SEPARATION = 1e-6  # minimum distance between embedded vertices / landmarks
MAX_PLACEMENT_ATTEMPTS = 1000


class IsometryOrientation(Enum):
    PRESERVING = "preserving"
    REVERSING = "reversing"


class FixedSetKind(Enum):
    EMPTY = "empty"
    TWO_POINTS = "two_points"
    CIRCLE = "circle"
    SPHERE = "sphere"
    ALL = "all"


_KIND_BY_DIM = {
    0: FixedSetKind.EMPTY,
    1: FixedSetKind.TWO_POINTS,
    2: FixedSetKind.CIRCLE,
    3: FixedSetKind.SPHERE,
    4: FixedSetKind.ALL,
}


@dataclass(frozen=True, eq=False)
class Isometry4:
    """A 4x4 orthogonal matrix with its order and orientation sign.

    Instances from the four constructors below always satisfy the invariants
    (checked at construction); instances deserialized from files are checked
    by the verifier instead.
    """

    matrix: np.ndarray
    claimed_order: int
    orientation: IsometryOrientation


def _validate_isometry(iso: Isometry4) -> Isometry4:
    M = iso.matrix
    M.setflags(write=False)
    if np.abs(M.T @ M - np.eye(4)).max() > ORTHOGONALITY_TOL:
        raise ValueError("matrix is not orthogonal within 1e-12")
    det = float(np.linalg.det(M))
    want = 1.0 if iso.orientation is IsometryOrientation.PRESERVING else -1.0
    if abs(det - want) > 1e-9:
        raise ValueError(f"determinant {det} does not match {iso.orientation}")
    A = np.eye(4)
    for k in range(1, iso.claimed_order + 1):
        A = A @ M
        dev = np.abs(A - np.eye(4)).max()
        if k < iso.claimed_order:
            if dev <= IDENTITY_GAP:
                raise OrderMismatch(
                    f"matrix power {k} is already the identity (order < {iso.claimed_order})"
                )
        elif dev > ORDER_TOL:
            raise OrderMismatch(
                f"matrix^{iso.claimed_order} deviates from identity by {dev:.3g}"
            )
    return iso


def _rot2(f: Fraction) -> np.ndarray:
    a = 2.0 * math.pi * float(f)
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s], [s, c]])


def _block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    M = np.zeros((4, 4))
    M[:2, :2] = a
    M[2:, 2:] = b
    return M


def turn_order(f: Fraction) -> int:
    """Multiplicative order of the rotation by the turn fraction f."""
    return (Fraction(f) % 1).denominator


def rotation_isometry(r: int) -> Isometry4:
    """Rotation of S^3 by 2*pi/r around the circle X (acting on (x1, x2))."""
    if r < 1:
        raise ValueError("order must be at least 1")
    M = _block(_rot2(Fraction(1, r)), np.eye(2))
    return _validate_isometry(Isometry4(M, r, IsometryOrientation.PRESERVING))


def glide_isometry(alpha: Fraction, beta: Fraction, claimed_order: int) -> Isometry4:
    """Composition of rotations by alpha around X and by beta around Y.

    alpha acts on (x1, x2) and rotates Y; beta acts on (x3, x4) and rotates
    X.  The order is the lcm of the two rotation orders; a different
    claimed_order raises OrderMismatch.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    order = math.lcm(turn_order(alpha), turn_order(beta))
    if claimed_order != order:
        raise OrderMismatch(f"claimed order {claimed_order}, computed {order}")
    M = _block(_rot2(alpha), _rot2(beta))
    return _validate_isometry(Isometry4(M, order, IsometryOrientation.PRESERVING))


def reflection_isometry() -> Isometry4:
    """Reflection of S^3 through the sphere S = {x4 = 0}."""
    M = np.diag([1.0, 1.0, 1.0, -1.0])
    return _validate_isometry(Isometry4(M, 2, IsometryOrientation.REVERSING))


def improper_isometry(theta: Fraction, claimed_order: int) -> Isometry4:
    """Reflection through S composed with rotation by theta around X.

    X meets S perpendicularly in the two points F; those are the fixed set
    whenever theta is not a whole turn.
    """
    theta = Fraction(theta)
    order = math.lcm(turn_order(theta), 2)
    if claimed_order != order:
        raise OrderMismatch(f"claimed order {claimed_order}, computed {order}")
    M = _block(_rot2(theta), np.diag([1.0, -1.0]))
    return _validate_isometry(Isometry4(M, order, IsometryOrientation.REVERSING))


@dataclass(frozen=True, eq=False)
class FixedSetDescriptor:
    kind: FixedSetKind
    basis: np.ndarray  # 4 x d, orthonormal columns spanning the +1-eigenspace


def fixed_subspace(A: np.ndarray, tol: float = SUBSPACE_TOL) -> np.ndarray:
    """Orthonormal basis (4 x d) of the +1-eigenspace of an orthogonal A."""
    _, s, vh = np.linalg.svd(A - np.eye(4))
    d = int(np.sum(s <= tol))
    if d == 0:
        return np.zeros((4, 0))
    return vh[4 - d :].T


def fixed_set(iso: Isometry4, pw: int = 1) -> FixedSetDescriptor:
    """Structure of the fixed-point set of the pw-th power of the isometry."""
    if not 1 <= pw <= iso.claimed_order:
        raise ValueError(f"power must lie in [1, {iso.claimed_order}]")
    A = np.linalg.matrix_power(iso.matrix, pw)
    basis = fixed_subspace(A)
    return FixedSetDescriptor(_KIND_BY_DIM[basis.shape[1]], basis)


def subspace_distance(b1: np.ndarray, b2: np.ndarray) -> float:
    """sin of the largest principal angle (2-norm of projector difference)."""
    p1 = b1 @ b1.T
    p2 = b2 @ b2.T
    return float(np.linalg.norm(p1 - p2, 2))


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
    return min(float(np.linalg.norm(p - f)) for f in F_POINTS)


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

    def gaussian(self) -> float:
        u1 = 1.0 - self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def unit4(self) -> np.ndarray:
        while True:
            p = np.array([self.gaussian() for _ in range(4)])
            norm = np.linalg.norm(p)
            if norm > 1e-3:
                return p / norm

    def unit_on_sphere(self) -> np.ndarray:
        while True:
            p = np.array([self.gaussian(), self.gaussian(), self.gaussian(), 0.0])
            norm = np.linalg.norm(p)
            if norm > 1e-3:
                return p / norm


def _too_close(pts: np.ndarray, others: np.ndarray) -> bool:
    """Whether some point of ``pts`` (k x 4) lies closer than SEPARATION to
    another row of ``others``, whose first k rows are ``pts`` themselves."""
    d = np.linalg.norm(pts[:, None, :] - others[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)  # each point against itself
    return bool((d < SEPARATION).any())


@dataclass(eq=False)
class SpatialEmbedding:
    """Unit-S^3 coordinates for every (possibly subdivided) vertex.

    landmarks names the distinguished sets (X, Y, S, F) that the
    construction used; subdivision vertices are keyed by opaque ids with
    their underlying edge recorded as (V-endpoint, W-endpoint).
    """

    shape: BipartiteShape
    coordinates: dict[VertexId, np.ndarray]
    subdivision_coordinates: dict[str, np.ndarray] = field(default_factory=dict)
    subdivision_edges: dict[str, tuple[VertexId, VertexId]] = field(default_factory=dict)
    landmarks: dict[str, str] = field(default_factory=dict)

    def all_points(self) -> list[np.ndarray]:
        return list(self.coordinates.values()) + list(
            self.subdivision_coordinates.values()
        )

    def validate(self) -> None:
        arr = np.array(self.all_points()).reshape(-1, 4)
        if (np.abs(np.linalg.norm(arr, axis=1) - 1.0) > ORTHOGONALITY_TOL).any():
            raise ValueError("embedded point is not on the unit sphere")
        if _too_close(arr, arr):
            raise ValueError("two embedded vertices are closer than 1e-6")


class _Placer:
    """Collects orbit placements, enforcing the 1e-6 separation floor."""

    def __init__(self, M: np.ndarray, rng: SeededPoints) -> None:
        self.M = M
        self.rng = rng
        self.points: list[np.ndarray] = []
        # keys are VertexId for graph vertices, str ids for subdivision ones
        self.coords: dict = {}

    def _orbit(self, p: np.ndarray, length: int) -> list[np.ndarray]:
        pts = [p]
        q = p
        for _ in range(length - 1):
            q = self.M @ q
            pts.append(q)
        closure = np.linalg.norm(self.M @ q - p)
        if closure > ORDER_TOL:
            raise PlacementFailure(
                f"orbit of length {length} does not close (deviation {closure:.3g})"
            )
        return pts

    def _clear(self, pts: list[np.ndarray]) -> bool:
        others = np.array([*pts, *self.points])
        return not _too_close(others[: len(pts)], others)

    def put_point(self, key, p: np.ndarray) -> None:
        if not self._clear([p]):
            raise PlacementFailure(f"fixed position for {key} collides")
        self.points.append(p)
        self.coords[key] = p

    def put_orbit_at(self, keys, p: np.ndarray) -> None:
        """Place an orbit at a pinned seed point (no resampling)."""
        pts = self._orbit(p, len(keys))
        if not self._clear(pts):
            raise PlacementFailure(f"pinned orbit through {keys[0]} collides")
        self.points.extend(pts)
        for k, q in zip(keys, pts):
            self.coords[k] = q

    def put_orbit(self, keys, sample) -> None:
        """Place an orbit at a sampled seed point, resampling on collision."""
        for _ in range(MAX_PLACEMENT_ATTEMPTS):
            pts = self._orbit(sample(), len(keys))
            if self._clear(pts):
                self.points.extend(pts)
                for k, q in zip(keys, pts):
                    self.coords[k] = q
                return
        raise PlacementFailure(
            f"no admissible orbit through {keys[0]} "
            f"after {MAX_PLACEMENT_ATTEMPTS} attempts"
        )

    def sampler_generic(self, avoid):
        def sample() -> np.ndarray:
            for _ in range(MAX_PLACEMENT_ATTEMPTS):
                p = self.rng.unit4()
                if all(d(p) >= SEPARATION for d in avoid):
                    return p
            raise PlacementFailure("could not sample a point off the landmark sets")

        return sample

    def sampler_circle(self, point_at, avoid=()):
        def sample() -> np.ndarray:
            for _ in range(MAX_PLACEMENT_ATTEMPTS):
                p = point_at(self.rng.angle())
                if all(d(p) >= SEPARATION for d in avoid):
                    return p
            raise PlacementFailure("could not sample an admissible circle point")

        return sample

    def sampler_sphere(self) -> "callable":
        def sample() -> np.ndarray:
            for _ in range(MAX_PLACEMENT_ATTEMPTS):
                p = self.rng.unit_on_sphere()
                if dist_to_x(p) >= SEPARATION:
                    return p
            raise PlacementFailure("could not sample a point on S off X")

        return sample


# --- realization -----------------------------------------------------------


def _as_orientation(orientation) -> Orientation:
    if isinstance(orientation, Orientation):
        return orientation
    return Orientation(str(orientation).lower())


def _grouped_cycles(aut: BipartiteAutomorphism, vrole: Part):
    """Cycles of the automorphism grouped into (pure v-role, pure w-role,
    mixed), keyed by length."""
    pure_v: dict[int, list] = {}
    pure_w: dict[int, list] = {}
    mixed: dict[int, list] = {}
    for cyc in aut.cycles():
        parts = {v.part for v in cyc}
        if len(parts) == 2:
            mixed.setdefault(len(cyc), []).append(cyc)
        elif parts == {vrole}:
            pure_v.setdefault(len(cyc), []).append(cyc)
        else:
            pure_w.setdefault(len(cyc), []).append(cyc)
    return pure_v, pure_w, mixed


def _interleave_fixed(aut: BipartiteAutomorphism) -> list[VertexId]:
    """Fixed vertices ordered so the two parts alternate while both last."""
    fv = [v for v in aut.fixed_vertices() if v.part is Part.V]
    fw = [v for v in aut.fixed_vertices() if v.part is Part.W]
    first, second = (fv, fw) if len(fv) >= len(fw) else (fw, fv)
    out = []
    for i in range(max(len(first), len(second))):
        if i < len(first):
            out.append(first[i])
        if i < len(second):
            out.append(second[i])
    return out


def _split_embedding(
    shape: BipartiteShape,
    placer: "_Placer",
    sub_edges: dict[str, tuple[VertexId, VertexId]],
    landmark_names: tuple[str, ...],
) -> SpatialEmbedding:
    return SpatialEmbedding(
        shape=shape,
        coordinates={k: p for k, p in placer.coords.items() if isinstance(k, VertexId)},
        subdivision_coordinates={
            k: p for k, p in placer.coords.items() if isinstance(k, str)
        },
        subdivision_edges=sub_edges,
        landmarks={k: LANDMARK_DESCRIPTIONS[k] for k in landmark_names},
    )


def _realize_rotation(aut, sig, rng) -> tuple[Isometry4, SpatialEmbedding]:
    """Cases 1 (part-preserving), 2, 3 and the identity: a single rotation.

    Fixed vertices go on X at equally spaced angles, parts alternating when
    both are present; every cycle is a generic r-orbit off X.
    """
    iso = rotation_isometry(sig.r)
    placer = _Placer(iso.matrix, rng)
    fixed = _interleave_fixed(aut)
    for t, v in enumerate(fixed):
        placer.put_point(v, point_on_x(2.0 * math.pi * t / len(fixed)))
    sample = placer.sampler_generic([dist_to_x])
    for cyc in aut.cycles():
        placer.put_orbit(cyc, sample)
    return iso, _split_embedding(aut.shape, placer, {}, ("X",))


def _subdivide_half_turn(aut: BipartiteAutomorphism):
    """Subdivision vertices for the edges inverted by the half-order power
    of a part-swapping automorphism, together with their cycles under the
    induced action (each cycle has length r/2)."""
    r = signature(aut).r
    half = power(aut, r // 2)
    edges = []
    for i in range(1, aut.shape.n + 1):
        v = VertexId(Part.V, i)
        w = half(v)
        edges.append((v, w))
    # induced permutation on inverted edges: (v, w) -> (phi(w), phi(v))
    succ = {}
    keyset = set(edges)
    for v, w in edges:
        img_v, img_w = aut(w), aut(v)  # phi(v) lies in W, phi(w) in V
        if (img_v, img_w) not in keyset:
            raise PreconditionError(
                f"edge ({v.label}, {w.label}) maps to ({img_v.label}, {img_w.label}),"
                " which the half-order power does not invert"
            )
        succ[(v, w)] = (img_v, img_w)
    cycles = []
    seen = set()
    for e in edges:
        if e in seen:
            continue
        cyc = [e]
        seen.add(e)
        nxt = succ[e]
        while nxt != e:
            seen.add(nxt)
            cyc.append(nxt)
            nxt = succ[nxt]
        cycles.append(cyc)
    return edges, cycles


def _realize_glide(aut, sig, case, vrole, rng) -> tuple[Isometry4, SpatialEmbedding]:
    """Cases 1 (part-swapping) and 4-9: a glide rotation R(alpha) + R(beta).

    The angle table follows the construction proofs; exceptional cycles go
    on Y (or X), everything else in generic r-orbits off both circles.
    """
    r = sig.r
    pure_v, pure_w, mixed = _grouped_cycles(aut, vrole)
    on_y: list[tuple] = []  # (cycle, pinned angle or None)
    on_x: list[tuple] = []
    subdivision_plan = None

    if case.number == 1:  # part-swapping; all cycles are mixed r-cycles
        if (r // 2) % 2 == 1:
            alpha, beta = Fraction(2, r), Fraction(1, r)
            subdivision_plan = _subdivide_half_turn(aut)
        else:
            alpha, beta = Fraction(1, 4), Fraction(1, r)
    elif case.number == 4:
        j = next(L for L in pure_v if L != r)
        alpha, beta = Fraction(1, j), Fraction(1, r)
        on_y = [(c, None) for c in pure_v[j]]
    elif case.number in (5, 6):
        if case.number == 5:
            j, k = sorted(L for L in pure_v if L != r)
            k_cycles = pure_v[k]
        else:
            j = next(L for L in pure_v if L != r)
            k = next(L for L in pure_w if L != r)
            k_cycles = pure_w[k]
        alpha, beta = Fraction(1, j), Fraction(1, k)
        on_y = [(c, None) for c in pure_v[j]]
        on_x = [(c, None) for c in k_cycles]
    elif case.number == 7:
        alpha, beta = Fraction(1, 2), Fraction(1, r)
        on_y = [(pure_v[2][0], 0.0), (pure_w[2][0], math.pi / 2)]
    elif case.number == 8:
        alpha, beta = Fraction(1, 2), Fraction(2, r)
        on_y = [(pure_v[2][0], 0.0), (pure_w[2][0], math.pi / 2)]
        on_x = [(c, None) for c in pure_v[r // 2]]
    elif case.number == 9:
        alpha, beta = Fraction(1, 4), Fraction(1, r)
        on_y = [(mixed[4][0], None)]
    else:
        raise NotRealizable(f"case {case.label} is not a glide construction")

    iso = glide_isometry(alpha, beta, r)
    placer = _Placer(iso.matrix, rng)

    placed = set()
    for cyc, angle in on_y:
        if angle is None:
            placer.put_orbit(cyc, placer.sampler_circle(point_on_y))
        else:
            placer.put_orbit_at(cyc, point_on_y(angle))
        placed.add(cyc)
    for cyc, angle in on_x:
        if angle is None:
            placer.put_orbit(cyc, placer.sampler_circle(point_on_x))
        else:
            placer.put_orbit_at(cyc, point_on_x(angle))
        placed.add(cyc)

    sub_edges: dict[str, tuple[VertexId, VertexId]] = {}
    if subdivision_plan is not None:
        edges, z_cycles = subdivision_plan
        zid = {e: f"z{i + 1}" for i, e in enumerate(sorted(edges))}
        sub_edges = {zid[e]: e for e in edges}
        for cyc in z_cycles:
            placer.put_orbit([zid[e] for e in cyc], placer.sampler_circle(point_on_y))

    sample = placer.sampler_generic([dist_to_x, dist_to_y])
    for cyc in aut.cycles():
        if cyc not in placed:
            placer.put_orbit(cyc, sample)

    return iso, _split_embedding(aut.shape, placer, sub_edges, ("X", "Y"))


def _realize_reflection(aut, sig, vrole, rng) -> tuple[Isometry4, SpatialEmbedding]:
    """Case 11: a reflection through S.

    All fixed vertices go on S (the full part on a circle of S, the at most
    two fixed vertices of the other part at the poles of that circle within
    S, giving the planar K_{2,n} pattern); 2-cycles become mirror pairs.
    """
    iso = reflection_isometry()
    placer = _Placer(iso.matrix, rng)
    full = [v for v in aut.fixed_vertices() if v.part is vrole]
    rest = [v for v in aut.fixed_vertices() if v.part is not vrole]
    for t, v in enumerate(full):
        placer.put_point(v, point_on_y(2.0 * math.pi * t / len(full)))
    for v, p in zip(rest, F_POINTS):
        placer.put_point(v, p)
    sample = placer.sampler_generic([dist_to_sphere])
    for cyc in aut.cycles():
        placer.put_orbit(cyc, sample)
    return iso, _split_embedding(aut.shape, placer, {}, ("S",))


def _realize_improper(aut, sig, case, vrole, rng) -> tuple[Isometry4, SpatialEmbedding]:
    """Cases 10, 12, 13: an improper rotation R(theta) + diag(1, -1).

    Fixed vertices sit at the two points of F; 2-cycles lie on X - F
    (alternating around X with the F vertices, and with parts alternating
    in case 13 where the 2-cycle edges carry subdivision vertices placed at
    F); half-order cycles of cases 12c/12d lie on S - F; everything else is
    a generic r-orbit off S and X.
    """
    r = sig.r
    theta = Fraction(2, r) if case.sub in ("c", "d") else Fraction(1, r)
    iso = improper_isometry(theta, r)
    placer = _Placer(iso.matrix, rng)
    pure_v, pure_w, mixed = _grouped_cycles(aut, vrole)

    for v, p in zip(_interleave_fixed(aut), F_POINTS):
        placer.put_point(v, p)

    placed = set()
    sub_edges: dict[str, tuple[VertexId, VertexId]] = {}

    if r == 2:
        # every non-fixed vertex is in a 2-cycle; embed them all off S and X
        pass
    elif case.number == 13:
        two_cycles = sorted(mixed.get(2, []))
        angles = [math.pi / 2] if len(two_cycles) == 1 else [math.pi / 3, 4 * math.pi / 3]
        for cyc, t, f_point in zip(two_cycles, angles, F_POINTS):
            # canonical cycles start at their V vertex, so cyc = (v, phi(v))
            placer.put_orbit_at(cyc, point_on_x(t))
            placed.add(cyc)
            zname = f"z{len(sub_edges) + 1}"
            placer.put_point(zname, f_point)
            sub_edges[zname] = (cyc[0], cyc[1])
    else:
        if case.sub in ("a", "d"):
            for cyc in pure_w.get(2, []):
                placer.put_orbit_at(cyc, point_on_x(math.pi / 2))
                placed.add(cyc)
        if case.sub in ("b", "c"):
            for cyc in pure_v.get(2, []):
                placer.put_orbit(cyc, placer.sampler_circle(point_on_x, [dist_to_f]))
                placed.add(cyc)
        if case.sub in ("c", "d"):
            half_cycles = pure_w if case.sub == "c" else pure_v
            for cyc in half_cycles.get(r // 2, []):
                placer.put_orbit(cyc, placer.sampler_sphere())
                placed.add(cyc)

    sample = placer.sampler_generic([dist_to_sphere, dist_to_x])
    for cyc in aut.cycles():
        if cyc not in placed:
            placer.put_orbit(cyc, sample)

    return iso, _split_embedding(aut.shape, placer, sub_edges, ("X", "S", "F"))


def realize(
    aut: BipartiteAutomorphism, orientation, seed: int = 1
) -> tuple[Isometry4, SpatialEmbedding]:
    """Construct an isometry of S^3 with vertex coordinates inducing ``aut``.

    ``orientation`` selects the realization class ("op" preserving, "or"
    reversing); NotRealizable is raised when the classifier reports none.
    The construction is deterministic in ``seed``; the result satisfies
    verifier.verify at the default tolerance.
    """
    orientation = _as_orientation(orientation)
    verdict = classify_aut(aut)
    case = dispatch_case(verdict, orientation)
    sig = signature(aut)
    vrole = Part.W if case.interchanged else Part.V
    rng = SeededPoints(seed)

    if orientation is Orientation.OP:
        preserving = sig.side_action is SideAction.PRESERVING
        if case.number in (2, 3) or (case.number == 1 and preserving):
            iso, emb = _realize_rotation(aut, sig, rng)
        else:
            iso, emb = _realize_glide(aut, sig, case, vrole, rng)
    else:
        if case.number == 11:
            iso, emb = _realize_reflection(aut, sig, vrole, rng)
        else:
            iso, emb = _realize_improper(aut, sig, case, vrole, rng)
    emb.validate()
    return iso, emb
