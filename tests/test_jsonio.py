import json

import numpy as np
import pytest

import bipsym.jsonio
from bipsym import (
    BipartiteShape,
    ParseError,
    Part,
    SubdividedGraph,
    VertexId,
    parse_cycles,
    realize,
    verify,
)
from bipsym.cli import cli_main
from bipsym.jsonio import (
    automorphism_from_obj,
    automorphism_to_obj,
    canonical_json,
    certificate_to_obj,
    realization_from_obj,
    realization_to_obj,
)

S33 = BipartiteShape(3, 3)


class TestCanonicalJson:
    def test_keys_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'

    def test_floats_have_17_significant_digits(self):
        assert canonical_json(0.1) == "0.10000000000000001"
        assert canonical_json(1.0) == "1"
        assert canonical_json(-0.5) == "-0.5"

    def test_round_trips_through_stdlib(self):
        obj = {"x": [0.1, 2, "s"], "y": {"z": False}}
        assert json.loads(canonical_json(obj)) == obj

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))

    def test_numpy_scalars_and_arrays(self):
        assert canonical_json(np.float64(0.25)) == "0.25"
        assert canonical_json(np.arange(3)) == "[0,1,2]"


class TestAutomorphismJson:
    def test_round_trip(self):
        aut = parse_cycles(S33, "(v1 v2)(w1 w3)")
        obj = automorphism_to_obj(aut)
        assert obj == {"n": 3, "m": 3, "perm": "(v1 v2)(w1 w3)"}
        assert automorphism_from_obj(json.loads(canonical_json(obj))) == aut

    def test_bad_object(self):
        with pytest.raises(ParseError):
            automorphism_from_obj({"n": 3, "m": 3})


class TestRealizationJson:
    def test_round_trip_and_verify(self):
        aut = parse_cycles(BipartiteShape(4, 4), "(v1 w1)(v2 w2)(v3 w3 v4 w4)")
        iso, emb = realize(aut, "or", seed=3)
        obj = realization_to_obj(aut, iso, emb, "OR13", 3)
        text = canonical_json(obj)
        aut2, iso2, emb2 = realization_from_obj(json.loads(text))
        assert aut2 == aut
        assert np.array_equal(iso2.matrix, iso.matrix)
        assert emb2.subdivision_edges == emb.subdivision_edges
        assert verify(aut2, iso2, emb2, tol=1e-9).overall

    def test_serialization_is_deterministic(self):
        aut = parse_cycles(S33, "(v1 v2 v3)")
        iso, emb = realize(aut, "op", seed=1)
        one = canonical_json(realization_to_obj(aut, iso, emb, "OP2", 1))
        iso2, emb2 = realize(aut, "op", seed=1)
        two = canonical_json(realization_to_obj(aut, iso2, emb2, "OP2", 1))
        assert one == two

    def test_bad_matrix_shape(self):
        aut = parse_cycles(S33, "(v1 v2 v3)")
        iso, emb = realize(aut, "op", seed=1)
        obj = realization_to_obj(aut, iso, emb, "OP2", 1)
        obj["matrix"] = [[1, 0], [0, 1]]
        with pytest.raises(ParseError):
            realization_from_obj(obj)


def _set(key, value):
    def mutate(obj):
        obj[key] = value

    return mutate


def _set_vertex(value):
    def mutate(obj):
        obj["vertices"]["v1"] = value

    return mutate


def _set_matrix_entry(value):
    def mutate(obj):
        obj["matrix"][2][1] = value

    return mutate


# each malformed realization file that bipsym verify must reject with exit 2
MALFORMED = {
    "vertices_list": _set("vertices", []),
    "subdivision_list": _set("subdivision", []),
    "landmarks_list": _set("landmarks", []),
    "subdivision_record_list": lambda obj: obj["subdivision"].update(z9=[]),
    "subdivision_edge_numbers": lambda obj: next(
        iter(obj["subdivision"].values())
    ).update(edge=[1, 2]),
    "order_float": _set("order", 2.5),
    "order_bool": _set("order", True),
    "order_zero": _set("order", 0),
    "n_float": _set("n", 4.0),
    "m_bool": _set("m", True),
    "perm_number": _set("perm", 12),
    "orientation_list": _set("orientation", ["or"]),
    "vertex_three_entries": _set_vertex([1.0, 0.0, 0.0]),
    "vertex_five_entries": _set_vertex([1.0, 0.0, 0.0, 0.0, 0.0]),
    "vertex_nan": _set_vertex([float("nan"), 0.0, 0.0, 1.0]),
    "vertex_inf": _set_vertex([float("inf"), 0.0, 0.0, 1.0]),
    "vertex_huge_int": _set_vertex([10**400, 0, 0, 1]),
    "vertex_string_entry": _set_vertex(["1", 0.0, 0.0, 0.0]),
    "vertex_bool_entry": _set_vertex([True, 0.0, 0.0, 0.0]),
    "subdivision_point_nan": lambda obj: next(
        iter(obj["subdivision"].values())
    ).update(point=[0.0, float("nan"), 0.0, 1.0]),
    "matrix_three_rows": lambda obj: obj["matrix"].pop(),
    "matrix_short_row": lambda obj: obj["matrix"][0].pop(),
    "matrix_nan": _set_matrix_entry(float("nan")),
    "matrix_inf": _set_matrix_entry(float("-inf")),
    "matrix_not_list": _set("matrix", {"0": 1}),
    "duplicate_vertex_label": lambda obj: obj["vertices"].update(
        v01=obj["vertices"].pop("v2")
    ),
    "not_an_object": lambda obj: [obj],
}


@pytest.fixture(scope="module")
def realization_obj():
    # an OR13 realization: every top-level field, including subdivision
    aut = parse_cycles(BipartiteShape(4, 4), "(v1 w1)(v2 w2)(v3 w3 v4 w4)")
    iso, emb = realize(aut, "or", seed=3)
    obj = json.loads(canonical_json(realization_to_obj(aut, iso, emb, "OR13", 3)))
    assert obj["subdivision"] and obj["landmarks"]
    return obj


class TestMalformedRealization:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_parse_error_and_exit_2(self, realization_obj, case, tmp_path, capsys):
        obj = json.loads(json.dumps(realization_obj))
        obj = MALFORMED[case](obj) or obj
        with pytest.raises(ParseError):
            realization_from_obj(obj)
        path = tmp_path / "realization.json"
        path.write_text(json.dumps(obj))
        assert cli_main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_vertex_count_checked_before_parsing(self, realization_obj, monkeypatch):
        # parsing walks all n + m vertices, so a huge claimed part size must
        # be rejected without it
        def must_not_parse(shape, text):
            raise AssertionError(f"parsed {shape}")

        monkeypatch.setattr(bipsym.jsonio, "parse_cycles", must_not_parse)
        obj = json.loads(json.dumps(realization_obj))
        obj["n"] = 10**12
        with pytest.raises(ParseError, match="cover the graph"):
            realization_from_obj(obj)


class TestCertificateJson:
    def test_schema(self):
        aut = parse_cycles(S33, "(v1 v2 v3)")
        iso, emb = realize(aut, "op", seed=1)
        cert = verify(aut, iso, emb)
        obj = certificate_to_obj(cert)
        assert obj["overall"] is True
        assert {"name", "pass", "detail", "measured"} <= set(obj["checks"][0])


class TestSubdividedGraph:
    def v(self, i):
        return VertexId(Part.V, i)

    def w(self, i):
        return VertexId(Part.W, i)

    def test_edges_with_subdivision(self):
        g = SubdividedGraph(S33, (((self.v(1), self.w(1)), "z1"),))
        edges = set(g.edges())
        assert (self.v(1), "z1") in edges and ("z1", self.w(1)) in edges
        assert (self.v(1), self.w(1)) not in edges
        assert (self.v(2), self.w(1)) in edges
        assert len(edges) == 9 + 1

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            SubdividedGraph(
                S33,
                (
                    ((self.v(1), self.w(1)), "z1"),
                    ((self.v(1), self.w(1)), "z2"),
                ),
            )

    def test_wrong_part_order_rejected(self):
        with pytest.raises(ValueError):
            SubdividedGraph(S33, (((self.w(1), self.v(1)), "z1"),))
