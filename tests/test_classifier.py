from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipsym import (
    BipartiteShape,
    OutOfTheoremScope,
    SideAction,
    classify,
    classify_aut,
    enumerate_automorphisms,
    parse_cycles,
    signature,
)
from bipsym.classifier import CaseId, Orientation

from automorphism_ops import (
    compose,
    identity_automorphism,
    interchange_parts,
    inverse,
    make_automorphism,
    power,
)

S33 = BipartiteShape(3, 3)
S34 = BipartiteShape(3, 4)
S43 = BipartiteShape(4, 3)
S44 = BipartiteShape(4, 4)


def labels(verdict):
    return (
        [c.label for c in verdict.op_cases],
        [c.label for c in verdict.or_cases],
    )


class TestPinnedExamples:
    def test_three_cycles_both_parts(self):
        op, orr = labels(classify_aut(parse_cycles(S33, "(v1 v2 v3)(w1 w2 w3)")))
        assert op == ["OP1"]
        assert orr == []

    def test_all_v_fixed_one_w_two_cycle(self):
        op, orr = labels(classify_aut(parse_cycles(S34, "(w3 w4)")))
        assert op == []
        assert orr == ["OR11"]

    def test_fixed_vertices_in_both_parts_unrealizable(self):
        op, orr = labels(classify_aut(parse_cycles(S43, "(v1 v2 v3)(w1 w2)")))
        assert op == [] and orr == []

    def test_two_mixed_two_cycles_and_four_cycle(self):
        op, orr = labels(
            classify_aut(parse_cycles(S44, "(v1 w1)(v2 w2)(v3 w3 v4 w4)"))
        )
        assert op == []
        assert orr == ["OR13"]

    def test_three_mixed_two_cycles(self):
        op, orr = labels(classify_aut(parse_cycles(S33, "(v1 w1)(v2 w2)(v3 w3)")))
        assert op == ["OP1"]
        assert orr == []

    def test_identity(self):
        verdict = classify_aut(identity_automorphism(S33))
        assert labels(verdict) == (["OP2"], [])

    def test_12c(self):
        op, orr = labels(classify_aut(parse_cycles(S33, "(v1 v2)(w1 w2 w3)")))
        assert op == [] and orr == ["OR12c"]

    def test_12b(self):
        op, orr = labels(classify_aut(parse_cycles(S34, "(v1 v2)(w1 w2 w3 w4)")))
        assert op == [] and orr == ["OR12b"]


class TestScope:
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (1, 1), (2, 2)])
    def test_small_parts_rejected(self, n, m):
        shape = BipartiteShape(n, m)
        with pytest.raises(OutOfTheoremScope):
            classify_aut(identity_automorphism(shape))


class TestCaseId:
    def test_label_formats(self):
        assert CaseId(Orientation.OP, 1).label == "OP1"
        assert CaseId(Orientation.OR, 12, "c").label == "OR12c"

    def test_or_numbers_validated(self):
        with pytest.raises(ValueError):
            CaseId(Orientation.OP, 10)
        with pytest.raises(ValueError):
            CaseId(Orientation.OR, 9)
        with pytest.raises(ValueError):
            CaseId(Orientation.OR, 13, "a")

    def test_only_the_table_keys_construct(self):
        # the paper's thirteen cases, 12 split into 12a-12d: OR12 is refused
        # like OR14, and OP10 like OR9
        want = {f"OP{k}" for k in range(1, 10)} | {"OR10", "OR11", "OR13"}
        want |= {f"OR12{sub}" for sub in "abcd"}
        built = set()
        for orientation, number, sub in product(Orientation, range(15), (None, *"abcde")):
            try:
                built.add(CaseId(orientation, number, sub).label)
            except ValueError:
                pass
        assert built == want


class TestInclusiveMatching:
    def test_cases_2_and_3_overlap(self):
        # one fixed V vertex, everything else in 2-cycles
        op, orr = labels(classify_aut(parse_cycles(S34, "(v2 v3)(w1 w2)(w3 w4)")))
        assert "OP2" in op and "OP3" in op

    def test_op9_reported_alongside_op1_when_r_is_4(self):
        op, orr = labels(
            classify_aut(parse_cycles(S44, "(v1 w1 v2 w2)(v3 w3 v4 w4)"))
        )
        assert op == ["OP1", "OP9"]
        assert orr == ["OR13"]

    def test_interchanged_flag(self):
        verdict = classify_aut(parse_cycles(S34, "(v1 v2 v3)"))  # all W fixed
        assert [c.label for c in verdict.op_cases] == ["OP2"]
        assert verdict.op_cases[0].interchanged

    def test_direct_match_preferred_over_interchanged(self):
        # (3,3) with one fixed vertex in each part matches OP3 both ways
        verdict = classify_aut(parse_cycles(S33, "(v2 v3)(w2 w3)"))
        case = next(c for c in verdict.op_cases if c.label == "OP3")
        assert not case.interchanged


class TestVerdictStructure:
    def test_realizable_iff_cases_nonempty(self):
        for aut in enumerate_automorphisms(S34):
            verdict = classify_aut(aut)
            assert verdict.op_realizable == bool(verdict.op_cases)
            assert verdict.or_realizable == bool(verdict.or_cases)

    def test_or_requires_even_order(self):
        for aut in enumerate_automorphisms(S34):
            verdict = classify_aut(aut)
            if verdict.or_realizable:
                assert signature(aut).r % 2 == 0

    def test_verdict_function_of_signature_alone(self):
        # two conjugate automorphisms: equal signatures, equal verdicts
        sig = signature(parse_cycles(S33, "(v1 v2)(w1 w2 w3)"))
        other = signature(parse_cycles(S33, "(v2 v3)(w3 w2 w1)"))
        assert sig == other and sig is not other
        assert classify(sig) == classify(other) == classify(sig)

    def test_interchange_toggles_flags_only(self):
        for text in ["(w3 w4)", "(v1 v2)(w1 w2 w3 w4)", "(v1 v2 v3)"]:
            sig = signature(parse_cycles(S34, text))
            direct = classify(sig)
            flipped = classify(interchange_parts(sig))
            assert [(c.orientation, c.number, c.sub) for c in direct.op_cases] == [
                (c.orientation, c.number, c.sub) for c in flipped.op_cases
            ]
            assert [(c.orientation, c.number, c.sub) for c in direct.or_cases] == [
                (c.orientation, c.number, c.sub) for c in flipped.or_cases
            ]
            for a, b in zip(
                direct.op_cases + direct.or_cases,
                flipped.op_cases + flipped.or_cases,
            ):
                assert a.interchanged != b.interchanged


class TestSwappingFamilies:
    def test_swapping_two_cycle_with_larger_cycles_never_op(self):
        # a mixed 2-cycle plus mixed r-cycles with r > 2 fails every OP case
        for shape, text in [
            (S44, "(v1 w1)(v2 w2 v3 w3 v4 w4)"),
            (BipartiteShape(5, 5), "(v1 w1)(v2 w2 v3 w3 v4 w4 v5 w5)"),
        ]:
            verdict = classify_aut(parse_cycles(shape, text))
            assert not verdict.op_realizable

    def test_single_four_cycle_with_r_cycles(self):
        shape = BipartiteShape(6, 6)
        aut = parse_cycles(shape, "(v1 w1 v2 w2)(v3 w3 v4 w4 v5 w5 v6 w6)")
        op, orr = labels(classify_aut(aut))
        assert op == ["OP9"]


class TestClosureSpotChecks:
    """Theorem-implied closure over K_{3,3}; the full four-shape sweep is in
    the acceptance suite."""

    def test_closure_k33(self):
        for aut in enumerate_automorphisms(S33):
            verdict = classify_aut(aut)
            r = signature(aut).r
            if verdict.or_realizable:
                assert r % 2 == 0
                assert classify_aut(power(aut, 2)).op_realizable
                # odd powers are induced by odd powers of the same reversing
                # homeomorphism, and keep even order
                for k in range(1, r, 2):
                    assert signature(power(aut, k)).r % 2 == 0
                    assert classify_aut(power(aut, k)).or_realizable
            if verdict.op_realizable:
                for k in range(1, r + 1):
                    assert classify_aut(power(aut, k)).op_realizable

    def test_verdict_invariant_under_inversion_and_conjugation(self):
        probes = [
            parse_cycles(S33, "(v1 v2)(w1 w2 w3)"),
            parse_cycles(S33, "(v1 w1 v2 w2 v3 w3)"),
        ]
        preserving = [
            b for b in enumerate_automorphisms(S33)
            if b.side_action is SideAction.PRESERVING
        ]
        for a in probes:
            assert classify_aut(inverse(a)) == classify_aut(a)
            for b in preserving[:30]:
                conj = compose(compose(b, a), inverse(b))
                assert classify_aut(conj) == classify_aut(a)


@st.composite
def theorem_scope_automorphisms(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    m = draw(st.integers(min_value=3, max_value=6))
    shape = BipartiteShape(n, m)
    vperm = draw(st.permutations(range(n)))
    wperm = draw(st.permutations(range(m)))
    if n == m and draw(st.booleans()):
        perm = tuple(n + i for i in vperm) + tuple(wperm)
    else:
        perm = tuple(vperm) + tuple(n + j for j in wperm)
    image = {x: shape.vertex_at(perm[shape.global_index(x)]) for x in shape.vertices()}
    return make_automorphism(shape, image)


@given(theorem_scope_automorphisms())
@settings(max_examples=300, deadline=None)
def test_interchange_invariance_property(aut):
    sig = signature(aut)
    direct = classify(sig)
    flipped = classify(interchange_parts(sig))
    strip = lambda cases: [(c.orientation, c.number, c.sub) for c in cases]
    assert strip(direct.op_cases) == strip(flipped.op_cases)
    assert strip(direct.or_cases) == strip(flipped.or_cases)


@given(theorem_scope_automorphisms())
@settings(max_examples=300, deadline=None)
def test_swapping_verdicts_property(aut):
    verdict = classify_aut(aut)
    if aut.side_action is SideAction.SWAPPING:
        assert {c.number for c in verdict.op_cases} <= {1, 9}
        assert {c.number for c in verdict.or_cases} <= {13}
    if verdict.or_realizable:
        assert aut.order() % 2 == 0


@given(theorem_scope_automorphisms())
@settings(max_examples=150, deadline=None)
def test_closure_property(aut):
    verdict = classify_aut(aut)
    if verdict.or_realizable:
        assert classify_aut(power(aut, 2)).op_realizable
    if verdict.op_realizable:
        assert classify_aut(power(aut, 2)).op_realizable
