import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipsym import (
    BipartiteShape,
    PreconditionError,
    ShapeMismatch,
    VertexId,
    glide_isometry,
    improper_isometry,
    parse_cycles,
    realize,
    reflection_isometry,
    rotation_isometry,
    verify,
)
from bipsym.classifier import Orientation
from bipsym.cli import cli_main
from bipsym.geometry import Isometry4
from bipsym.verifier import CheckResult, _Verification

from labelled import coordinates_of, embedding_from_labels, subdivision_edges_of
from topology_checks import smith_check, two_circle_check
import verifier_oracle

S33 = BipartiteShape(3, 3)
S34 = BipartiteShape(3, 4)


def vid(label):
    return VertexId.from_label(label)


def verify_against_oracle(aut, iso, emb, tol=1e-9):
    """verify's certificate; where it finds π not established, the per-power
    oracle's certificate fails too."""
    cert = verify(aut, iso, emb, tol=tol)
    if cert.check("eel1").detail.startswith("pi not established: "):
        assert not verifier_oracle.verify(aut, iso, emb, tol=tol).overall
    return cert


def realize_and_verify(shape, text, orientation, seed=1, tol=1e-9):
    aut = parse_cycles(shape, text)
    iso, emb = realize(aut, orientation, seed=seed)
    return aut, iso, emb, verify(aut, iso, emb, tol=tol)


class TestVerifyPasses:
    def test_reflection_example(self):
        _, _, _, cert = realize_and_verify(S34, "(w3 w4)", "or")
        assert cert.overall
        names = [c.name for c in cert.checks]
        for required in (
            "orthogonal",
            "order",
            "orientation",
            "induces",
            "eel1",
            "eel2",
            "eel3",
            "eel4",
        ):
            assert required in names

    def test_subdivided_realizations(self):
        for shape, text, orientation in [
            (S33, "(v1 w1 v2 w2 v3 w3)", "op"),
            (BipartiteShape(4, 4), "(v1 w1)(v2 w2)(v3 w3 v4 w4)", "or"),
        ]:
            _, _, _, cert = realize_and_verify(shape, text, orientation)
            assert cert.overall

    def test_certificate_overall_is_conjunction(self):
        _, _, _, cert = realize_and_verify(S33, "(v1 v2 v3)(w1 w2 w3)", "op")
        assert cert.overall == all(c.passed for c in cert.checks)


class TestNegativeControls:
    def test_swapped_pair_fails_induces(self):
        aut, iso, emb, cert = realize_and_verify(S33, "(v1 v2 v3)(w1 w2 w3)", "op")
        assert cert.overall
        a, b = S33.global_index(vid("v1")), S33.global_index(vid("v2"))
        emb.points[[a, b]] = emb.points[[b, a]]
        tampered = verify_against_oracle(aut, iso, emb, tol=1e-9)
        assert not tampered.check("induces").passed
        assert not tampered.overall

    def test_off_sphere_vertices_fail_eel4(self):
        aut, iso, emb, cert = realize_and_verify(S34, "(w3 w4)", "or")
        assert cert.overall
        # push a V vertex off the fixed sphere; W is already partly off it
        p = coordinates_of(emb)[vid("v1")] + np.array([0.0, 0.0, 0.0, 0.4])
        emb.points[S34.global_index(vid("v1"))] = p / np.linalg.norm(p)
        tampered = verify_against_oracle(aut, iso, emb, tol=1e-9)
        assert not tampered.check("eel4").passed
        assert not tampered.overall

    def test_parts_off_an_established_mirror_fail_eel4(self):
        # the reflection swaps v1, v2 and w1, w2 across its mirror sphere and
        # fixes v3 and w3 on it: π is established, and M, the one proper
        # power, fixes a sphere that holds neither part
        aut = parse_cycles(S33, "(v1 v2)(w1 w2)")
        iso = reflection_isometry()
        coords = {vid("v3"): np.array([0.0, 0.6, 0.8, 0.0]), vid("w3"): np.array([0.0, -0.6, 0.8, 0.0])}
        for a, b, p in (("v1", "v2", [0.6, 0.0, 0.0, 0.8]), ("w1", "w2", [-0.6, 0.0, 0.48, 0.64])):
            coords[vid(a)] = np.array(p)
            coords[vid(b)] = iso.matrix @ coords[vid(a)]
        cert = verify(aut, iso, embedding_from_labels(S33, coords), tol=1e-9)
        assert [c.name for c in cert.checks if not c.passed] == ["eel4"]
        eel4 = cert.check("eel4")
        assert eel4.detail == "1 powers i with gcd(i, 2) = 1: neither part lies in the fixed sphere"
        assert eel4.measured == 1.0

    def test_coordinate_perturbation_fails(self):
        aut, iso, emb, cert = realize_and_verify(S33, "(v1 v2 v3)(w1 w2 w3)", "op")
        assert cert.overall
        tol = 1e-9
        p = coordinates_of(emb)[vid("v1")].copy()
        p[0] += 10 * tol
        emb.points[S33.global_index(vid("v1"))] = p
        tampered = verify_against_oracle(aut, iso, emb, tol=tol)
        assert not tampered.check("induces").passed
        assert not tampered.overall

    def test_radial_perturbation_fails_unit_norm(self):
        aut, iso, emb, cert = realize_and_verify(S33, "(v1 v2 v3)(w1 w2 w3)", "op")
        emb.points[S33.global_index(vid("w1"))] = coordinates_of(emb)[vid("w1")] * (1 + 1e-8)
        tampered = verify_against_oracle(aut, iso, emb, tol=1e-9)
        assert not tampered.check("unit_norm").passed

    @pytest.mark.parametrize("claimed", [3, 5])
    def test_orbit_that_does_not_close_fails(self, claimed):
        # each 3-cycle sits on three points of one orbit of the 2*pi/5
        # rotation, which has 5 points off X: M maps v3 to a fourth point,
        # not back to v1
        aut = parse_cycles(S33, "(v1 v2 v3)(w1 w2 w3)")
        M = rotation_isometry(5).matrix
        coords = {}
        seeds = {"v": np.array([0.6, 0.0, 0.8, 0.0]), "w": np.array([0.0, 0.6, 0.0, 0.8])}
        for part, p in seeds.items():
            for i in (1, 2, 3):
                coords[vid(f"{part}{i}")] = p
                p = M @ p
        iso = Isometry4(M, claimed, Orientation.OP)
        cert = verify_against_oracle(aut, iso, embedding_from_labels(S33, coords), tol=1e-9)
        assert cert.check("unit_norm").passed
        assert not cert.check("induces").passed
        assert cert.check("order").passed == (claimed == 5)
        assert not cert.overall

    def test_near_coincident_vertices_fail_separation(self):
        aut, iso, emb, cert = realize_and_verify(S33, "(v1 v2 v3)(w1 w2 w3)", "op")
        emb.points[S33.global_index(vid("w1"))] = coordinates_of(emb)[vid("v1")] + 1e-8
        tampered = verify_against_oracle(aut, iso, emb, tol=1e-9)
        assert not tampered.check("induces").passed

    def test_adjacent_pair_on_two_point_fixed_set_fails_eel3(self):
        # v1 and w1 are fixed by the automorphism; placing them at the two
        # fixed points of an improper half-turn leaves no arc between them
        # inside any fixed set, although the permutation is still induced
        aut = parse_cycles(S33, "(v2 v3)(w2 w3)")
        iso = improper_isometry(Fraction(1, 2), 2)
        placer_points = {
            "v1": np.array([0.0, 0.0, 1.0, 0.0]),
            "w1": np.array([0.0, 0.0, -1.0, 0.0]),
        }
        rng_points = iter(
            [
                np.array([0.6, 0.0, 0.48, 0.64]),
                np.array([0.0, 0.6, -0.48, 0.64]),
            ]
        )
        coords = {vid(k): p for k, p in placer_points.items()}
        for label in ("v2", "w2"):
            seed = next(rng_points)
            coords[vid(label)] = seed
            partner = {"v2": "v3", "w2": "w3"}[label]
            coords[vid(partner)] = iso.matrix @ seed
        emb = embedding_from_labels(S33, coords)
        cert = verify_against_oracle(aut, iso, emb, tol=1e-9)
        assert cert.check("induces").passed
        assert not cert.check("eel3").passed
        assert "no arcs" in cert.check("eel3").detail

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_unusable_tolerance_rejected(self, tol):
        aut = parse_cycles(S34, "(w3 w4)")
        iso, emb = realize(aut, "or", seed=1)
        with pytest.raises(PreconditionError):
            verify(aut, iso, emb, tol=tol)

    def test_shape_mismatch(self):
        aut34 = parse_cycles(S34, "(w3 w4)")
        iso, emb = realize(aut34, "or", seed=1)
        aut33 = parse_cycles(S33, "(w1 w2)")
        with pytest.raises(ShapeMismatch):
            verify(aut33, iso, emb)
        # a subdivision vertex needs both a point and an edge
        emb.subdivision_pairs = ((0, 3),)
        with pytest.raises(ShapeMismatch, match="do not match"):
            verify(aut34, iso, emb)


class TestIndexChecks:
    # verify reads the points and pairs as they are, trusting no maker
    TEXT = "(v1 w1)(v2 w2)(v3 w3 v4 w4)"

    def realization(self):
        aut = parse_cycles(BipartiteShape(4, 4), self.TEXT)
        return (aut, *realize(aut, "or", seed=1))

    @pytest.mark.parametrize("rows", [9, 11])
    def test_points_not_one_row_per_vertex(self, rows):
        aut, iso, emb = self.realization()
        emb.points = np.resize(emb.points, (rows, 4))
        with pytest.raises(ShapeMismatch, match="the points must be 10 x 4"):
            verify(aut, iso, emb)

    def test_points_not_four_coordinates(self):
        aut, iso, emb = self.realization()
        emb.points = emb.points[:, :3]
        with pytest.raises(ShapeMismatch, match="the points must be 10 x 4"):
            verify(aut, iso, emb)

    @pytest.mark.parametrize("pair", [(4, 0), (0, 1), (4, 5), (0, 8), (-1, 4), (0, 4.0)])
    def test_pair_not_a_v_w_edge(self, pair):
        aut, iso, emb = self.realization()
        emb.subdivision_pairs = (emb.subdivision_pairs[0], pair)
        with pytest.raises(ShapeMismatch, match=r"subdivision z2 edge .* is not \(V, W\)"):
            verify(aut, iso, emb)

    def test_more_pairs_than_ids(self):
        aut, iso, emb = self.realization()
        emb.subdivision_pairs += ((2, 6),)
        with pytest.raises(ShapeMismatch, match="do not match"):
            verify(aut, iso, emb)


class TestSubdividedTwice:
    # OR13 subdivides the edges of the 2-cycles (v1 w1) and (v2 w2) at z1 and
    # z2; moving z2 onto (v1, w1), as the index pair (0, 4) or in a file with
    # the endpoints given the other way round, puts two subdivision vertices
    # on one edge, which no graph here allows
    TEXT = "(v1 w1)(v2 w2)(v3 w3 v4 w4)"

    def realization(self):
        aut = parse_cycles(BipartiteShape(4, 4), self.TEXT)
        iso, emb = realize(aut, "or", seed=1)
        assert subdivision_edges_of(emb) == {
            "z1": (vid("v1"), vid("w1")),
            "z2": (vid("v2"), vid("w2")),
        }
        return aut, iso, emb

    def test_verify_raises_shape_mismatch(self):
        aut, iso, emb = self.realization()
        emb.subdivision_pairs = ((0, 4), (0, 4))  # z2 on (v1, w1)
        with pytest.raises(ShapeMismatch, match=r"edge \(v1, w1\) subdivided twice"):
            verify(aut, iso, emb)

    def test_cli_verify_exit_2(self, tmp_path, capsys):
        path = tmp_path / "realization.json"
        args = ["realize", "--graph", "4,4", "--perm", self.TEXT, "--orientation", "or"]
        assert cli_main(args + ["-o", str(path)]) == 0
        obj = json.loads(path.read_text())
        obj["subdivision"]["z2"]["edge"] = ["w1", "v1"]
        path.write_text(json.dumps(obj))
        assert cli_main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: edge (v1, w1) subdivided twice\n"


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_subdivided_edge_list_matches_plain_lists(data):
    """The edges of the subdivided graph among all its points, in edge
    order, equal a plain-list walk over the edges in position order, each
    subdivided (v, w) becoming (v, z), (z, w) in its place, with ids whose
    sorted order is not position order and edges given either way round."""
    n = data.draw(st.integers(1, 9), label="n")
    m = data.draw(st.integers(1, 9), label="m")
    shape = BipartiteShape(n, m)
    at = data.draw(st.lists(st.integers(0, n * m - 1), unique=True), label="edges")
    ids = data.draw(
        st.lists(st.integers(0, 99), min_size=len(at), max_size=len(at), unique=True),
        label="ids",
    )
    flips = data.draw(st.lists(st.booleans(), min_size=len(at), max_size=len(at)))
    ids = [f"z{i}" for i in ids]
    edges = {}  # (v, w) global indices -> id
    subdivision_edges = {}
    for e, z, flip in zip(at, ids, flips):
        v, w = divmod(e, m)
        edges[v, n + w] = z
        ends = (shape.vertex_at(v), shape.vertex_at(n + w))
        subdivision_edges[z] = ends[::-1] if flip else ends
    emb = embedding_from_labels(
        shape,
        dict.fromkeys(shape.vertices(), np.zeros(4)),
        subdivision_coordinates={z: np.zeros(4) for z in ids},
        subdivision_edges=subdivision_edges,
    )
    aut = parse_cycles(shape, "")
    state = _Verification(aut, rotation_isometry(1), emb, 1e-9)

    point = {z: shape.size + k for k, z in enumerate(sorted(ids))}
    want_a, want_b = [], []
    for v in range(n):
        for w in range(n, n + m):
            z = edges.get((v, w))
            if z is None:
                want_a.append(v)
                want_b.append(w)
            else:
                want_a += [v, point[z]]
                want_b += [point[z], w]
    assert state.edges_among(list(range(len(point) + shape.size))) == list(zip(want_a, want_b))


def test_a_cycle_that_does_not_divide_the_order_is_not_established():
    # the facts read per divisor hold for every power only when π^r is the
    # identity: with the checks π rests on taken as passed, a 2-cycle under a
    # claimed order 3 is named
    aut = parse_cycles(S33, "(v1 v2)")
    iso, emb = realize(aut, "or", seed=1)
    st = _Verification(aut, Isometry4(iso.matrix, 3, iso.orientation), emb, 1e-9)
    prior = [CheckResult(name, True, "") for name in ("unit_norm", "orthogonal", "order", "induces")]
    assert st.establish(3, prior) == "pi^3 moves v1, in a cycle of length 2"


class TestSmith:
    def test_improper_quarter_turn(self):
        cert = smith_check(improper_isometry(Fraction(1, 4), 4))
        assert cert.overall
        assert "two_points" in cert.check("power_1").detail
        assert "circle" in cert.check("power_2").detail

    def test_glide(self):
        cert = smith_check(glide_isometry(Fraction(1, 2), Fraction(1, 3), 6))
        assert cert.overall
        for c in cert.checks:
            assert ("empty" in c.detail) or ("circle" in c.detail)

    def test_reflection(self):
        cert = smith_check(reflection_isometry())
        assert cert.overall
        assert "sphere" in cert.check("power_1").detail

    @pytest.mark.parametrize("r", range(1, 25))
    def test_rotations(self, r):
        assert smith_check(rotation_isometry(r)).overall


class TestTwoCircle:
    def test_two_distinct_circles(self):
        cert = two_circle_check(glide_isometry(Fraction(1, 2), Fraction(1, 3), 6))
        assert cert.overall
        assert cert.check("at_most_two_circles").measured == 2
        assert cert.check("order_lcm").passed
        assert "lcm(2, 3) = 6" in cert.check("order_lcm").detail

    def test_single_circle_when_one_order_divides(self):
        cert = two_circle_check(glide_isometry(Fraction(1, 4), Fraction(1, 2), 4))
        assert cert.overall
        assert cert.check("at_most_two_circles").measured == 1

    def test_no_circles_for_equal_angles(self):
        cert = two_circle_check(glide_isometry(Fraction(1, 3), Fraction(1, 3), 3))
        assert cert.overall
        assert cert.check("at_most_two_circles").measured == 0

    def test_precondition_rejects_pointwise_fixing(self):
        with pytest.raises(PreconditionError):
            two_circle_check(rotation_isometry(5))
