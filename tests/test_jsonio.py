import json

import numpy as np
import pytest

import bipsym.jsonio
from bipsym import (
    BipartiteShape,
    ParseError,
    ShapeMismatch,
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

from labelled import subdivision_edges_of

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
        assert subdivision_edges_of(emb2) == subdivision_edges_of(emb)
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


# (shape, permutation, orientation, subdivision vertices): OR11 has none;
# OP1 of a part swap with odd r/2 has r/2, whose ids z1, z10, z11, z2, ...
# sort as strings at K_{11,11}; OR13 has one per mixed 2-cycle
ROUND_TRIPS = [
    ((3, 4), "(w3 w4)", "or", 0),
    ((3, 3), "(v1 w1 v2 w2 v3 w3)", "op", 3),
    ((11, 11), "(" + " ".join(f"v{i} w{i}" for i in range(1, 12)) + ")", "op", 11),
    ((4, 4), "(v1 w1)(v2 w2)(v3 w3 v4 w4)", "or", 2),
]


@pytest.mark.parametrize("shape, text, orientation, subdivisions", ROUND_TRIPS)
@pytest.mark.parametrize("through_text", [False, True])
def test_round_trip_keeps_the_bits(shape, text, orientation, subdivisions, through_text):
    aut = parse_cycles(BipartiteShape(*shape), text)
    iso, emb = realize(aut, orientation, seed=5)
    obj = realization_to_obj(aut, iso, emb, "label", 5)
    if through_text:
        obj = json.loads(canonical_json(obj))
    aut2, iso2, emb2 = realization_from_obj(obj)
    assert aut2 == aut
    assert iso2.matrix.tobytes() == iso.matrix.tobytes()
    assert emb2.points.dtype == emb.points.dtype
    assert emb2.points.shape == emb.points.shape
    assert emb2.points.tobytes() == emb.points.tobytes()
    assert emb2.subdivision_ids == emb.subdivision_ids == tuple(sorted(emb.subdivision_ids))
    assert emb2.subdivision_pairs == emb.subdivision_pairs
    assert emb2.landmarks == emb.landmarks
    assert len(emb.subdivision_ids) == subdivisions
    again = realization_to_obj(aut2, iso2, emb2, "label", 5)
    assert canonical_json(again) == canonical_json(obj)


def test_subdivision_edges_given_w_first_are_read_as_v_w(realization_obj):
    obj = json.loads(json.dumps(realization_obj))
    for rec in obj["subdivision"].values():
        rec["edge"].reverse()
    _, _, emb = realization_from_obj(obj)
    _, _, want = realization_from_obj(realization_obj)
    assert emb.subdivision_pairs == want.subdivision_pairs == ((0, 4), (1, 5))


@pytest.mark.parametrize("edge", [["v1", "v2"], ["w1", "w2"], ["v1", "w9"], ["v9", "w1"]])
def test_subdivision_off_the_graph_is_a_shape_mismatch(realization_obj, edge, tmp_path, capsys):
    obj = json.loads(json.dumps(realization_obj))
    obj["subdivision"]["z1"]["edge"] = edge
    message = f"subdivision edge ({edge[0]}, {edge[1]}) is not an edge of the graph"
    with pytest.raises(ShapeMismatch) as refused:
        realization_from_obj(obj)
    assert str(refused.value) == message
    path = tmp_path / "realization.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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
    # file text rather than an object: json.load recurses once per bracket
    "deeply_nested": lambda obj: "[" * 200_000 + "]" * 200_000,
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
        if isinstance(obj, str):
            text = obj
        else:
            with pytest.raises(ParseError):
                realization_from_obj(obj)
            text = json.dumps(obj)
        path = tmp_path / "realization.json"
        path.write_text(text)
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

    def test_non_finite_measured_values_are_strings(self):
        from bipsym.verifier import CheckResult, RealizationCertificate

        measured = [float("inf"), float("-inf"), float("nan"), np.float64("inf"), 0.5, 2, None]
        cert = RealizationCertificate(
            tuple(CheckResult(f"c{i}", False, "", x) for i, x in enumerate(measured))
        )
        text = canonical_json(certificate_to_obj(cert))
        got = [c["measured"] for c in json.loads(text)["checks"]]
        assert got == ["inf", "-inf", "nan", "inf", 0.5, 2, None]
        # only the certificate's measured values are written as strings
        with pytest.raises(ValueError, match="non-finite float"):
            canonical_json({"measured": float("inf")})
