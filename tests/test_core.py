import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipsym import (
    BipartiteShape,
    CycleSignature,
    DuplicateVertex,
    MixedParts,
    ParseError,
    Part,
    ShapeMismatch,
    SideAction,
    SwapOnUnequalParts,
    TooLarge,
    VertexId,
    automorphism_count,
    enumerate_automorphisms,
    parse_cycles,
    signature,
)

from automorphism_ops import (
    NotBijective,
    compose,
    identity_automorphism,
    interchange_parts,
    inverse,
    make_automorphism,
    power,
)

S33 = BipartiteShape(3, 3)
S34 = BipartiteShape(3, 4)


def v(i):
    return VertexId(Part.V, i)


def w(i):
    return VertexId(Part.W, i)


class TestMakeAutomorphism:
    def test_identity_is_preserving_order_one(self):
        aut = make_automorphism(S33, {x: x for x in S33.vertices()})
        assert aut.side_action is SideAction.PRESERVING
        assert aut.order() == 1
        assert aut.is_identity()

    def test_full_part_swap(self):
        image = {v(i): w(i) for i in range(1, 4)}
        image.update({w(i): v(i) for i in range(1, 4)})
        aut = make_automorphism(S33, image)
        assert aut.side_action is SideAction.SWAPPING
        assert aut.order() == 2

    def test_mixed_parts_rejected(self):
        image = {x: x for x in S34.vertices()}
        image[v(1)] = w(1)
        image[w(1)] = v(1)
        with pytest.raises(MixedParts):
            make_automorphism(S34, image)

    def test_swap_on_unequal_parts_rejected(self):
        image = {v(i): w(i) for i in range(1, 4)}
        image.update({w(i): v(i) for i in range(1, 4)})
        image[w(4)] = w(4)
        with pytest.raises(SwapOnUnequalParts):
            make_automorphism(S34, image)

    def test_non_bijective_rejected(self):
        image = {x: x for x in S33.vertices()}
        image[v(1)] = v(2)
        with pytest.raises(NotBijective):
            make_automorphism(S33, image)

    def test_missing_vertex_rejected(self):
        image = {x: x for x in S33.vertices()}
        del image[w(3)]
        with pytest.raises(NotBijective):
            make_automorphism(S33, image)


class TestParseCycles:
    def test_two_three_cycles(self):
        aut = parse_cycles(S33, "(v1 v2 v3)(w1 w2 w3)")
        assert aut(v(1)) == v(2)
        assert aut(v(3)) == v(1)
        assert aut(w(2)) == w(3)
        assert aut.order() == 3

    def test_three_mixed_two_cycles(self):
        aut = parse_cycles(S33, "(v1 w1)(v2 w2)(v3 w3)")
        sig = signature(aut)
        assert sig.side_action is SideAction.SWAPPING
        assert sig.mixed_cycles == (2, 2, 2)

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertex):
            parse_cycles(S33, "(v1 v2 v1)")

    def test_unlisted_vertices_fixed(self):
        aut = parse_cycles(S34, "(w3 w4)")
        assert aut(v(1)) == v(1)
        assert aut(w(1)) == w(1)
        assert aut(w(3)) == w(4)

    @pytest.mark.parametrize(
        "text", ["(v1 v2", "v1 v2)", "(v1 x2)", "(v9 v1)", "((v1 v2))", "(v1)(w5)"]
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_cycles(S33, text)

    def test_round_trip_through_cycle_string(self):
        for text in ["(v1 v2 v3)(w1 w2 w3)", "(v1 w1 v2 w2)(v3 w3)", "()"]:
            aut = parse_cycles(S33, text)
            again = parse_cycles(S33, aut.cycle_string())
            assert again == aut


class TestSignature:
    def test_identity(self):
        sig = signature(identity_automorphism(S33))
        assert (sig.r, sig.fixed_v, sig.fixed_w) == (1, 3, 3)
        assert sig.pure_v_cycles == sig.pure_w_cycles == sig.mixed_cycles == ()

    def test_pure_three_cycles(self):
        sig = signature(parse_cycles(S33, "(v1 v2 v3)(w1 w2 w3)"))
        assert sig.r == 3
        assert sig.pure_v_cycles == (3,)
        assert sig.pure_w_cycles == (3,)
        assert sig.fixed_v == sig.fixed_w == 0

    def test_mixed_four_and_two(self):
        sig = signature(parse_cycles(S33, "(v1 w1 v2 w2)(v3 w3)"))
        assert sig.r == 4
        assert sig.side_action is SideAction.SWAPPING
        assert sig.mixed_cycles == (2, 4)

    def test_part_count_identity_holds(self):
        for aut in enumerate_automorphisms(S34):
            sig = signature(aut)
            assert sig.fixed_v + sum(sig.pure_v_cycles) + sum(sig.mixed_cycles) // 2 == 3
            assert sig.fixed_w + sum(sig.pure_w_cycles) + sum(sig.mixed_cycles) // 2 == 4
            assert all(length % 2 == 0 for length in sig.mixed_cycles)

    def test_inconsistent_signature_rejected(self):
        # r must be the lcm of the cycle lengths (here 3), and the fixed
        # vertices and cycles must cover each part, half a mixed cycle in each
        with pytest.raises(ValueError, match="lcm"):
            CycleSignature(S33, SideAction.PRESERVING, 7, 0, 0, (3,), (3,), ())
        preserving, swapping = SideAction.PRESERVING, SideAction.SWAPPING
        for args in [
            (preserving, 2, 1, 0, (2,), (2,), ()),  # a vertex of W uncounted
            (preserving, 6, 0, 0, (2,), (3,), ()),  # a vertex of V uncounted
            (preserving, 3, 0, 1, (3,), (3,), ()),
            (preserving, 2, 1, 1, (2,), (2, 2), ()),
            (swapping, 4, 0, 0, (), (), (4,)),
            (swapping, 6, 0, 0, (), (), (2, 3)),
            (swapping, 2, 0, 0, (), (), (2, 2, 2, 2)),
        ]:
            with pytest.raises(ValueError, match="cover"):
                CycleSignature(S33, *args)


class TestGroupOperations:
    def test_square_of_swap_preserves_parts(self):
        aut = parse_cycles(S33, "(v1 w1 v2 w2)(v3 w3)")
        sq = power(aut, 2)
        assert sq.side_action is SideAction.PRESERVING
        assert sq(v(1)) == v(2)
        assert sq(w(1)) == w(2)
        assert sq(v(3)) == v(3)

    def test_compose_with_inverse_is_identity(self):
        aut = parse_cycles(S33, "(v1 v2)(w1 w3)")
        assert compose(aut, inverse(aut)).is_identity()

    def test_cube_of_three_cycle_is_identity(self):
        aut = parse_cycles(S33, "(v1 v2 v3)")
        assert power(aut, 3).is_identity()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            compose(identity_automorphism(S33), identity_automorphism(S34))

    def test_power_accepts_negative_exponents(self):
        aut = parse_cycles(S33, "(v1 v2 v3)")
        assert power(aut, -1) == inverse(aut)


class TestEnumeration:
    def test_count_3_3(self):
        auts = list(enumerate_automorphisms(S33))
        assert len(auts) == 72 == automorphism_count(S33)
        assert len(set(auts)) == 72

    def test_count_3_4(self):
        auts = list(enumerate_automorphisms(S34))
        assert len(auts) == 144 == automorphism_count(S34)
        assert len(set(auts)) == 144

    def test_count_1_1(self):
        auts = list(enumerate_automorphisms(BipartiteShape(1, 1)))
        assert len(auts) == 2
        assert auts[0].is_identity()
        assert auts[1].side_action is SideAction.SWAPPING

    def test_every_element_passes_validation(self):
        for aut in enumerate_automorphisms(S34):
            image = {x: aut(x) for x in S34.vertices()}
            assert make_automorphism(S34, image) == aut

    def test_cap_is_enforced_eagerly(self):
        with pytest.raises(TooLarge):
            enumerate_automorphisms(BipartiteShape(5, 5), cap=1000)

    def test_lexicographic_order(self):
        auts = list(enumerate_automorphisms(S33))
        assert auts[0].is_identity()
        assert auts[1].side_action is SideAction.SWAPPING
        # second pair: identity on V, (w2 w3) on W
        assert auts[2](w(2)) == w(3) and auts[2](v(1)) == v(1)


class TestInterchange:
    def test_swaps_fixed_counts(self):
        sig = signature(parse_cycles(S34, "(w3 w4)"))
        flipped = interchange_parts(sig)
        assert (flipped.fixed_v, flipped.fixed_w) == (sig.fixed_w, sig.fixed_v)
        assert flipped.pure_v_cycles == sig.pure_w_cycles
        assert flipped.shape == BipartiteShape(4, 3)

    def test_involution(self):
        for text in ["(v1 v2 v3)(w1 w2 w3)", "(v1 w1)(v2 w2)(v3 w3)", "()"]:
            sig = signature(parse_cycles(S33, text))
            assert interchange_parts(interchange_parts(sig)) == sig

    def test_swap_signature_only_relabels(self):
        sig = signature(parse_cycles(S33, "(v1 w1 v2 w2 v3 w3)"))
        flipped = interchange_parts(sig)
        assert flipped.mixed_cycles == sig.mixed_cycles
        assert flipped.r == sig.r


# -- module invariants, checked exhaustively at desk scale --------------------


class TestInvariants:
    def test_signature_invariant_under_inverse(self):
        for aut in enumerate_automorphisms(S34):
            assert signature(inverse(aut)) == signature(aut)

    def test_signature_invariant_under_conjugation(self):
        preserving = [
            b for b in enumerate_automorphisms(S33)
            if b.side_action is SideAction.PRESERVING
        ]
        probes = [
            parse_cycles(S33, "(v1 v2 v3)(w1 w2)"),
            parse_cycles(S33, "(v1 w1 v2 w2 v3 w3)"),
            parse_cycles(S33, "(v1 v2)(w1 w2 w3)"),
        ]
        for a in probes:
            for b in preserving:
                conj = compose(compose(b, a), inverse(b))
                assert signature(conj) == signature(a)

    def test_power_order_formula(self):
        for aut in enumerate_automorphisms(S33):
            r = signature(aut).r
            for k in range(1, r + 1):
                assert signature(power(aut, k)).r == r // math.gcd(r, k)

    def test_swap_square_splits_mixed_cycles(self):
        for aut in enumerate_automorphisms(S33):
            sig = signature(aut)
            if sig.side_action is not SideAction.SWAPPING:
                continue
            sq_sig = signature(power(aut, 2))
            assert sq_sig.side_action is SideAction.PRESERVING
            expected_v = sorted(
                (d for length in sig.mixed_cycles if (d := length // 2) > 1)
            )
            assert list(sq_sig.pure_v_cycles) == expected_v
            assert sq_sig.pure_v_cycles == sq_sig.pure_w_cycles


@st.composite
def automorphisms(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=5))
    shape = BipartiteShape(n, m)
    vperm = draw(st.permutations(range(n)))
    wperm = draw(st.permutations(range(m)))
    swap = n == m and draw(st.booleans())
    if swap:
        perm = tuple(n + i for i in vperm) + tuple(wperm)
    else:
        perm = tuple(vperm) + tuple(n + j for j in wperm)
    image = {x: shape.vertex_at(perm[shape.global_index(x)]) for x in shape.vertices()}
    return make_automorphism(shape, image)


@given(automorphisms())
@settings(max_examples=200, deadline=None)
def test_inverse_round_trip(aut):
    assert compose(inverse(aut), aut).is_identity()
    assert signature(inverse(aut)) == signature(aut)


@given(automorphisms(), st.integers(min_value=0, max_value=40))
@settings(max_examples=200, deadline=None)
def test_power_order_divides(aut, k):
    r = signature(aut).r
    assert signature(power(aut, k)).r == r // math.gcd(r, k if k else r)
    assert power(aut, r).is_identity()
