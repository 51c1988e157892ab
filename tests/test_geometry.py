import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipsym import (
    BipartiteShape,
    NotRealizable,
    OrderMismatch,
    classify_aut,
    glide_isometry,
    improper_isometry,
    parse_cycles,
    realize,
    reflection_isometry,
    rotation_isometry,
)
from bipsym.classifier import CASES, CaseId, Orientation
from bipsym.geometry import (
    DET_TOL,
    F_POINTS,
    IDENTITY_GAP,
    ORTHOGONALITY_TOL,
    SeededPoints,
    _norm,
    dispatch_case,
    dist_to_sphere,
    dist_to_x,
    dist_to_y,
)
from bipsym.verifier import subspace_distance

from labelled import coordinates_of, subdivision_coordinates_of
from topology_checks import FixedSetKind, fixed_set

ORDER_TOL = 1e-9  # |M^r - I| allowed in the constructed-invariant sweeps
XBASIS = np.eye(4)[:, 2:]  # span(e3, e4): the circle x1 = x2 = 0
YBASIS = np.eye(4)[:, :2]
SBASIS = np.eye(4)[:, :3]


def orbit_size(M, p, bound=64):
    q = np.array(p, dtype=float)
    start = q.copy()
    for k in range(1, bound + 1):
        q = M @ q
        if np.linalg.norm(q - start) < 1e-9:
            return k
    raise AssertionError("orbit did not close")


class TestRotation:
    def test_order_one_is_identity_fixing_everything(self):
        iso = rotation_isometry(1)
        assert np.allclose(iso.matrix, np.eye(4), atol=1e-15)
        assert fixed_set(iso, 1).kind is FixedSetKind.ALL

    def test_order_two_is_half_turn(self):
        iso = rotation_isometry(2)
        assert np.allclose(iso.matrix, np.diag([-1.0, -1.0, 1.0, 1.0]), atol=1e-12)

    def test_order_four_block(self):
        iso = rotation_isometry(4)
        assert np.allclose(iso.matrix[:2, :2], [[0, -1], [1, 0]], atol=1e-12)
        desc = fixed_set(iso, 1)
        assert desc.kind is FixedSetKind.CIRCLE
        assert subspace_distance(desc.basis, XBASIS) <= 1e-9

    @pytest.mark.parametrize("r", range(1, 25))
    def test_type_invariants(self, r):
        iso = rotation_isometry(r)
        M = iso.matrix
        assert np.abs(M.T @ M - np.eye(4)).max() <= 1e-12
        assert abs(np.linalg.det(M) - 1.0) <= 1e-9
        A = np.eye(4)
        for k in range(1, r):
            A = A @ M
            assert np.abs(A - np.eye(4)).max() > 1e-6
        assert np.abs(A @ M - np.eye(4)).max() <= 1e-9


class TestGlide:
    def test_two_three_gives_order_six_and_free_action(self):
        iso = glide_isometry(Fraction(1, 2), Fraction(1, 3), 6)
        assert fixed_set(iso, 1).kind is FixedSetKind.EMPTY

    def test_case_1a_angles(self):
        # rotation by 4*pi/6 around X with 2*pi/6 around Y: order 6,
        # restriction to Y has order 3
        iso = glide_isometry(Fraction(2, 6), Fraction(1, 6), 6)
        assert orbit_size(iso.matrix, [1, 0, 0, 0]) == 3

    def test_case_8_angles(self):
        # half-turn around X with 4*pi/6 around Y: order 6 = lcm(2, 3)
        iso = glide_isometry(Fraction(1, 2), Fraction(2, 6), 6)
        assert orbit_size(iso.matrix, [1, 0, 0, 0]) == 2
        assert orbit_size(iso.matrix, [0, 0, 1, 0]) == 3

    def test_power_fixed_sets(self):
        iso = glide_isometry(Fraction(1, 2), Fraction(1, 3), 6)
        one = fixed_set(iso, 1)
        two = fixed_set(iso, 2)
        three = fixed_set(iso, 3)
        assert one.kind is FixedSetKind.EMPTY
        assert two.kind is FixedSetKind.CIRCLE
        assert subspace_distance(two.basis, YBASIS) <= 1e-9
        assert three.kind is FixedSetKind.CIRCLE
        assert subspace_distance(three.basis, XBASIS) <= 1e-9

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            glide_isometry(Fraction(1, 2), Fraction(1, 3), 12)

    @pytest.mark.parametrize("j,k", [(2, 3), (3, 4), (2, 5), (4, 6)])
    def test_orbit_structure(self, j, k):
        # points of Y move in j-orbits, points of X in k-orbits, generic
        # points in r-orbits, r = lcm(j, k)
        r = math.lcm(j, k)
        iso = glide_isometry(Fraction(1, j), Fraction(1, k), r)
        assert orbit_size(iso.matrix, [1, 0, 0, 0]) == j
        assert orbit_size(iso.matrix, [0, 0, 1, 0]) == k
        generic = np.array([0.3, 0.4, 0.5, math.sqrt(1 - 0.5)])
        assert orbit_size(iso.matrix, generic) == r


class TestReflection:
    def test_matrix_and_fixed_sphere(self):
        iso = reflection_isometry()
        assert np.allclose(iso.matrix, np.diag([1.0, 1.0, 1.0, -1.0]))
        desc = fixed_set(iso, 1)
        assert desc.kind is FixedSetKind.SPHERE
        assert subspace_distance(desc.basis, SBASIS) <= 1e-9

    def test_square_is_identity(self):
        iso = reflection_isometry()
        assert np.allclose(iso.matrix @ iso.matrix, np.eye(4), atol=1e-12)

    def test_determinant(self):
        assert abs(np.linalg.det(reflection_isometry().matrix) + 1.0) <= 1e-12


class TestImproper:
    def test_quarter_turn(self):
        iso = improper_isometry(Fraction(1, 4), 4)
        assert fixed_set(iso, 1).kind is FixedSetKind.TWO_POINTS
        sq = fixed_set(iso, 2)
        assert sq.kind is FixedSetKind.CIRCLE
        assert subspace_distance(sq.basis, XBASIS) <= 1e-9

    def test_double_angle_order_six(self):
        iso = improper_isometry(Fraction(2, 6), 6)
        assert iso.claimed_order == 6
        # restriction to the sphere S has order 3
        assert orbit_size(iso.matrix, [1, 0, 0, 0]) == 3
        assert fixed_set(iso, 3).kind is FixedSetKind.SPHERE

    def test_half_turn(self):
        iso = improper_isometry(Fraction(1, 2), 2)
        assert np.allclose(iso.matrix, np.diag([-1.0, -1.0, 1.0, -1.0]), atol=1e-12)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            improper_isometry(Fraction(1, 4), 8)


# -- constructed isometries: the invariants verify checks at run time ---------
#
# The constructors take the order from exact turn fractions and do not check
# the float matrix; these sweeps check, for every turn fraction with
# denominator at most 24, what the verifier would: orthogonality, the
# determinant of the orientation, M^r = I by repeated product and no earlier
# power within IDENTITY_GAP of I; and that the matrices are read-only.

DENOMINATORS = range(1, 25)


def turn_fractions(d):
    """The turn fractions in [0, 1) with denominator exactly d."""
    return [Fraction(a, d) for a in range(d) if math.gcd(a, d) == 1]


def assert_constructed_invariants(isos):
    """Check isometries of one claimed order and orientation together, the
    repeated product taken over the stack of their matrices."""
    (r,) = {iso.claimed_order for iso in isos}
    (orientation,) = {iso.orientation for iso in isos}
    assert not any(iso.matrix.flags.writeable for iso in isos)
    M = np.stack([iso.matrix for iso in isos])
    eye = np.eye(4)
    assert np.abs(M.transpose(0, 2, 1) @ M - eye).max() <= ORTHOGONALITY_TOL
    want = 1.0 if orientation is Orientation.OP else -1.0
    assert np.abs(np.linalg.det(M) - want).max() <= DET_TOL
    A = np.broadcast_to(eye, M.shape)
    for k in range(1, r):
        A = A @ M
        assert np.abs(A - eye).max(axis=(1, 2)).min() > IDENTITY_GAP, f"M^{k} = I"
    assert np.abs(A @ M - eye).max() <= ORDER_TOL


class TestConstructedInvariants:
    @pytest.mark.parametrize("r", DENOMINATORS)
    def test_rotation(self, r):
        assert_constructed_invariants([rotation_isometry(r)])

    @pytest.mark.parametrize("j", DENOMINATORS)
    def test_glide(self, j):
        for k in DENOMINATORS:
            r = math.lcm(j, k)
            assert_constructed_invariants(
                [
                    glide_isometry(alpha, beta, r)
                    for alpha in turn_fractions(j)
                    for beta in turn_fractions(k)
                ]
            )

    def test_reflection(self):
        assert_constructed_invariants([reflection_isometry()])

    @pytest.mark.parametrize("d", DENOMINATORS)
    def test_improper(self, d):
        r = math.lcm(d, 2)
        assert_constructed_invariants(
            [improper_isometry(theta, r) for theta in turn_fractions(d)]
        )

    def test_order_below_identity_gap(self):
        # 2*pi/r < IDENTITY_GAP: M is within the gap of I, but the order is
        # exact, and only the verifier measures M
        iso = rotation_isometry(7_000_000)
        assert iso.claimed_order == 7_000_000
        assert np.abs(iso.matrix - np.eye(4)).max() <= IDENTITY_GAP


class TestSeededPoints:
    def test_reproducible(self):
        a = SeededPoints(7)
        b = SeededPoints(7)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_seed_changes_stream(self):
        assert SeededPoints(1).uniform() != SeededPoints(2).uniform()

    def test_unit_points(self):
        rng = SeededPoints(3)
        for _ in range(50):
            assert abs(np.linalg.norm(rng.unit4()) - 1.0) < 1e-12


@given(st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=4))
@settings(max_examples=500, deadline=None)
def test_norm_is_numpy_norm_bitwise(xs):
    # unit4, unit_on_sphere and dist_to_f normalize with _norm; a different
    # bit would move every realization
    p = np.array(xs)
    want = np.linalg.norm(p)
    assert np.float64(_norm(p)).tobytes() == want.tobytes()


# -- realize: at least one automorphism per construction family --------------

REALIZE_CASES = [
    # (shape, cycles, orientation, expected dispatch case)
    ((3, 3), "()", "op", "OP2"),
    ((3, 3), "(v1 v2 v3)(w1 w2 w3)", "op", "OP1"),
    ((4, 3), "(w1 w2 w3)", "op", "OP2"),  # all of V fixed
    ((3, 3), "(v2 v3)(w2 w3)", "op", "OP3"),
    ((3, 3), "(v1 w1)(v2 w2)(v3 w3)", "op", "OP1"),  # glide 1a (r/2 = 1 odd: z1-z3)
    ((3, 3), "(v1 w1 v2 w2 v3 w3)", "op", "OP1"),  # glide 1a (r/2 odd)
    ((4, 4), "(v1 w1 v2 w2)(v3 w3 v4 w4)", "op", "OP1"),  # glide 1b (4 | r)
    ((4, 4), "(v1 v2)(v3 v4)(w1 w2 w3 w4)", "op", "OP4"),
    ((5, 6), "(v1 v2)(v3 v4 v5)(w1 w2 w3 w4 w5 w6)", "op", "OP5"),
    ((4, 3), "(v1 v2 v3 v4)(w1 w2 w3)", "op", "OP6"),
    ((6, 6), "(v1 v2)(w1 w2)(v3 v4 v5 v6)(w3 w4 w5 w6)", "op", "OP7"),
    ((5, 8), "(v1 v2)(v3 v4 v5)(w1 w2)(w3 w4 w5 w6 w7 w8)", "op", "OP8"),
    ((6, 6), "(v1 w1 v2 w2)(v3 w3 v4 w4 v5 w5 v6 w6)", "op", "OP9"),
    ((4, 4), "(v1 v2)(v3 v4)(w1 w2)(w3 w4)", "or", "OR10"),
    ((3, 4), "(w3 w4)", "or", "OR11"),
    ((5, 6), "(w1 w2)(v1 v2 v3 v4)(w3 w4 w5 w6)", "or", "OR12a"),
    ((3, 4), "(v1 v2)(w1 w2 w3 w4)", "or", "OR12b"),
    ((3, 3), "(v1 v2)(w1 w2 w3)", "or", "OR12c"),
    ((4, 8), "(v1 v2 v3)(w1 w2)(w3 w4 w5 w6 w7 w8)", "or", "OR12d"),
    ((4, 4), "(v1 w1)(v2 w2)(v3 w3 v4 w4)", "or", "OR13"),
    ((4, 4), "(v1 w1 v2 w2)(v3 w3 v4 w4)", "or", "OR13"),
]


def test_realize_cases_cover_the_case_table():
    # with BRANCH_SHA256 pinning each construction, a key added to CASES
    # without one fails here
    labels = {
        CaseId(Orientation.OP if k < 10 else Orientation.OR, k, sub).label for k, sub in CASES
    }
    assert len(labels) == 16
    assert {expected for *_, expected in REALIZE_CASES} == labels


@pytest.mark.parametrize("nm,text,orientation,expected", REALIZE_CASES)
def test_realize_constructions(nm, text, orientation, expected):
    from bipsym import verify

    aut = parse_cycles(BipartiteShape(*nm), text)
    verdict = classify_aut(aut)
    case = dispatch_case(verdict, Orientation(orientation))
    assert case.label == expected
    iso, emb = realize(aut, orientation, seed=1)
    assert iso.orientation is Orientation(orientation)
    cert = verify(aut, iso, emb, tol=1e-9)
    failed = [c.name for c in cert.checks if not c.passed]
    assert cert.overall, f"{text} {orientation}: failed {failed}"


class TestRealizeDetails:
    def test_case_6_angle_table(self):
        # glide with 2*pi/4 around X and 2*pi/3 around Y: V 4-cycle on Y,
        # W 3-cycle on X, order 12
        aut = parse_cycles(BipartiteShape(4, 3), "(v1 v2 v3 v4)(w1 w2 w3)")
        iso, emb = realize(aut, "op", seed=1)
        assert iso.claimed_order == 12
        assert orbit_size(iso.matrix, [1, 0, 0, 0]) == 4
        assert orbit_size(iso.matrix, [0, 0, 1, 0]) == 3
        for i in (1, 2, 3, 4):
            assert dist_to_y(coordinates_of(emb)[parse_vertex(f"v{i}")]) <= 1e-12
        for i in (1, 2, 3):
            assert dist_to_x(coordinates_of(emb)[parse_vertex(f"w{i}")]) <= 1e-12

    def test_reflection_matrix_pinned(self):
        aut = parse_cycles(BipartiteShape(3, 4), "(w3 w4)")
        iso, emb = realize(aut, "or", seed=1)
        assert np.allclose(iso.matrix, np.diag([1.0, 1.0, 1.0, -1.0]))
        for i in (1, 2, 3):
            assert dist_to_sphere(coordinates_of(emb)[parse_vertex(f"v{i}")]) <= 1e-12
        pair = [coordinates_of(emb)[parse_vertex("w3")], coordinates_of(emb)[parse_vertex("w4")]]
        assert np.allclose(iso.matrix @ pair[0], pair[1], atol=1e-12)

    def test_glide_1b_quarter_turns(self):
        aut = parse_cycles(BipartiteShape(4, 4), "(v1 w1 v2 w2)(v3 w3 v4 w4)")
        iso, emb = realize(aut, "op", seed=1)
        assert iso.claimed_order == 4
        assert np.allclose(iso.matrix[:2, :2], [[0, -1], [1, 0]], atol=1e-12)
        for p in coordinates_of(emb).values():
            assert dist_to_x(p) > 1e-6 and dist_to_y(p) > 1e-6

    def test_case_13_subdivision_at_f(self):
        aut = parse_cycles(BipartiteShape(4, 4), "(v1 w1)(v2 w2)(v3 w3 v4 w4)")
        iso, emb = realize(aut, "or", seed=1)
        assert len(subdivision_coordinates_of(emb)) == 2
        placed = sorted(
            tuple(np.round(p, 12)) for p in subdivision_coordinates_of(emb).values()
        )
        expected = sorted(tuple(np.round(f, 12)) for f in F_POINTS)
        assert placed == expected

    def test_case_1a_subdivision_count(self):
        aut = parse_cycles(BipartiteShape(3, 3), "(v1 w1 v2 w2 v3 w3)")
        iso, emb = realize(aut, "op", seed=1)
        assert len(subdivision_coordinates_of(emb)) == 3  # n midpoints
        for p in subdivision_coordinates_of(emb).values():
            assert dist_to_y(p) <= 1e-12  # they live on Y

    def test_deterministic_in_seed(self):
        aut = parse_cycles(BipartiteShape(3, 3), "(v1 v2 v3)(w1 w2 w3)")
        _, emb1 = realize(aut, "op", seed=5)
        _, emb2 = realize(aut, "op", seed=5)
        _, emb3 = realize(aut, "op", seed=6)
        for v in coordinates_of(emb1):
            assert np.array_equal(coordinates_of(emb1)[v], coordinates_of(emb2)[v])
        assert any(
            not np.array_equal(coordinates_of(emb1)[v], coordinates_of(emb3)[v])
            for v in coordinates_of(emb1)
        )

    def test_not_realizable(self):
        aut = parse_cycles(BipartiteShape(4, 3), "(v1 v2 v3)(w1 w2)")
        with pytest.raises(NotRealizable):
            realize(aut, "op", seed=1)
        with pytest.raises(NotRealizable):
            realize(aut, "or", seed=1)

    def test_induced_permutation_matches(self):
        aut = parse_cycles(BipartiteShape(3, 3), "(v1 v2)(w1 w2 w3)")
        iso, emb = realize(aut, "or", seed=2)
        for v, p in coordinates_of(emb).items():
            image = coordinates_of(emb)[aut(v)]
            assert np.linalg.norm(iso.matrix @ p - image) <= 1e-9


def test_realize_sampled_larger_shapes():
    """Beyond desk scale the richer cases (OP5/7/9, OR12a-d) actually occur;
    a deterministic sample keeps every construction family honest."""
    import random

    from bipsym import classify_aut, verify

    rng = random.Random(7)
    from bipsym import enumerate_automorphisms

    checked = 0
    for n, m in [(5, 5), (5, 6)]:
        auts = list(enumerate_automorphisms(BipartiteShape(n, m)))
        rng.shuffle(auts)
        done = 0
        for aut in auts:
            if done >= 40:
                break
            verdict = classify_aut(aut)
            for orientation, ok in (
                ("op", verdict.op_realizable),
                ("or", verdict.or_realizable),
            ):
                if not ok:
                    continue
                done += 1
                iso, emb = realize(aut, orientation, seed=1)
                cert = verify(aut, iso, emb, tol=1e-9)
                failed = [c.name for c in cert.checks if not c.passed]
                assert cert.overall, f"{aut} {orientation}: {failed}"
                checked += 1
    assert checked >= 80


def parse_vertex(label):
    from bipsym import VertexId

    return VertexId.from_label(label)
