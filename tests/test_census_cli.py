import hashlib
import json
import math

import pytest

from bipsym import (
    BipartiteShape,
    OutOfTheoremScope,
    TooLarge,
    census,
    classify_aut,
    enumerate_automorphisms,
)
from bipsym.census import MAX_CENSUS_PART
from bipsym.cli import cli_main
from bipsym.jsonio import canonical_json, report_csv, report_to_obj

S33 = BipartiteShape(3, 3)
S34 = BipartiteShape(3, 4)


class TestCensus:
    def test_totals(self):
        assert census(S33).total == 72
        assert census(S34).total == 144
        assert census(BipartiteShape(4, 3)).total == 144

    def test_counts_match_streaming_classification(self):
        report = census(S34)
        op_realizable = or_realizable = 0
        per_case = {}
        for aut in enumerate_automorphisms(S34):
            verdict = classify_aut(aut)
            op_realizable += verdict.op_realizable
            or_realizable += verdict.or_realizable
            for case in verdict.op_cases + verdict.or_cases:
                per_case[case.label] = per_case.get(case.label, 0) + 1
        assert report.unrealizable_op == report.total - op_realizable
        assert report.unrealizable_or == report.total - or_realizable
        assert report.per_case == per_case

    def test_every_or_realizable_has_even_order(self):
        for aut in enumerate_automorphisms(S34):
            verdict = classify_aut(aut)
            if verdict.or_realizable:
                assert aut.order() % 2 == 0

    def test_mirror_shapes_agree(self):
        # the classification is symmetric in the two parts, so transposed
        # shapes must produce identical tallies
        a, b = census(S34), census(BipartiteShape(4, 3))
        assert a.per_case == b.per_case
        assert (a.unrealizable_op, a.unrealizable_or) == (
            b.unrealizable_op,
            b.unrealizable_or,
        )

    def test_pinned_case_counts_k34(self):
        # small enough to tally by hand from the case definitions
        assert census(S34).per_case == {
            "OP2": 37,
            "OP3": 43,
            "OP6": 18,
            "OR11": 12,
            "OR12b": 27,
            "OR12c": 18,
        }

    def test_realize_all_counts_every_pair(self):
        report = census(S33, realize_all=True, seed=1)
        pairs = 0
        for aut in enumerate_automorphisms(S33):
            verdict = classify_aut(aut)
            pairs += verdict.op_realizable + verdict.or_realizable
        assert report.realized_verified == pairs

    def test_out_of_scope(self):
        with pytest.raises(OutOfTheoremScope):
            census(BipartiteShape(2, 3))

    def test_too_large(self):
        # MAX_CENSUS_PART = 419 bounds each part of a plain census and
        # MAX_REALIZE_ALL_PART = 47 each part with realize_all; the bounds
        # themselves are allowed
        assert census(BipartiteShape(419, 3)).total == math.factorial(419) * 6
        for shape in (BipartiteShape(420, 3), BipartiteShape(3, 420)):
            with pytest.raises(TooLarge, match="more than 419 vertices"):
                census(shape)
        report = census(BipartiteShape(47, 3), realize_all=True)
        assert report.total == math.factorial(47) * 6
        for shape in (BipartiteShape(48, 3), BipartiteShape(3, 48)):
            assert census(shape).total == math.factorial(48) * 6
            with pytest.raises(TooLarge, match="more than 47 vertices"):
                census(shape, realize_all=True)

    def test_deterministic_bytes(self):
        one = canonical_json(report_to_obj(census(S33, seed=9)))
        two = canonical_json(report_to_obj(census(S33, seed=9)))
        assert one == two


class TestCsv:
    def test_case_rows_then_summary(self):
        report = census(S33)
        lines = report_csv(report).strip().splitlines()
        assert lines[0] == "key,value"
        assert lines[1].startswith("case:")
        assert any(line == "total,72" for line in lines)


class TestCli:
    def test_classify_json(self, capsys):
        code = cli_main(
            ["classify", "--graph", "3,3", "--perm", "(v1 v2 v3)(w1 w2 w3)"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["op"] == {
            "cases": ["OP1"],
            "interchanged": {"OP1": False},
            "realizable": True,
        }
        assert out["or"]["realizable"] is False

    def test_classify_out_of_scope_exit_3(self, capsys):
        code = cli_main(["classify", "--graph", "2,3", "--perm", "()"])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_classify_parse_error_exit_2(self, capsys):
        code = cli_main(["classify", "--graph", "3,3", "--perm", "(v1 v9)"])
        assert code == 2

    def test_realize_reflection_matrix(self, capsys):
        code = cli_main(
            ["realize", "--graph", "3,4", "--perm", "(w3 w4)", "--orientation", "or"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["matrix"][3] == [0.0, 0.0, 0.0, -1.0]
        assert obj["case"] == "OR11"

    def test_realize_not_realizable_exit_4(self, capsys):
        code = cli_main(
            [
                "realize",
                "--graph",
                "3,3",
                "--perm",
                "(v1 v2 v3)(w1 w2 w3)",
                "--orientation",
                "or",
            ]
        )
        assert code == 4

    def test_realize_verify_round_trip(self, tmp_path, capsys):
        out = tmp_path / "realization.json"
        code = cli_main(
            [
                "realize",
                "--graph",
                "4,4",
                "--perm",
                "(v1 w1)(v2 w2)(v3 w3 v4 w4)",
                "--orientation",
                "or",
                "--seed",
                "7",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert cli_main(["verify", str(out)]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["overall"] is True

    def test_verify_tampered_file_exit_5(self, tmp_path, capsys):
        out = tmp_path / "realization.json"
        cli_main(
            [
                "realize",
                "--graph",
                "3,3",
                "--perm",
                "(v1 v2 v3)(w1 w2 w3)",
                "--orientation",
                "op",
                "-o",
                str(out),
            ]
        )
        obj = json.loads(out.read_text())
        obj["vertices"]["v1"], obj["vertices"]["v2"] = (
            obj["vertices"]["v2"],
            obj["vertices"]["v1"],
        )
        out.write_text(json.dumps(obj))
        capsys.readouterr()
        assert cli_main(["verify", str(out)]) == 5
        cert = json.loads(capsys.readouterr().out)
        assert any(c["name"] == "induces" and not c["pass"] for c in cert["checks"])

    def test_verify_missing_file_exit_2(self, tmp_path, capsys):
        assert cli_main(["verify", str(tmp_path / "nope.json")]) == 2

    def test_verify_non_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"n": "\u00e9"}'.encode("latin-1"))
        assert cli_main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_verify_unusable_tol_exit_2(self, tmp_path, capsys, tol):
        out = tmp_path / "realization.json"
        args = ["realize", "--graph", "3,4", "--perm", "(w3 w4)", "--orientation", "or"]
        assert cli_main(args + ["-o", str(out)]) == 0
        assert cli_main(["verify", str(out), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be finite and positive" in captured.err

    def test_realize_unwritable_output_exit_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        args = ["realize", "--graph", "3,4", "--perm", "(w3 w4)", "--orientation", "or"]
        assert cli_main(args + ["-o", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not target.parent.exists()

    def test_write_error_names_requested_file(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        args = ["realize", "--graph", "3,4", "--perm", "(w3 w4)", "--orientation", "or"]
        assert cli_main(args + ["-o", str(target)]) == 2
        err = capsys.readouterr().err
        assert str(target) in err
        assert ".tmp" not in err

    def test_census_json_and_cache(self, capsys):
        args = ["census", "3", "3", "--seed", "4"]
        assert cli_main(args) == 0
        first = capsys.readouterr().out
        assert cli_main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["total"] == 72

    def test_census_csv_format(self, capsys):
        assert cli_main(["census", "3", "4", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("key,value")
        assert "total,144" in out

    def test_census_at_the_bound_prints(self, capsys):
        # the largest shape's total, 2*(n!)^2, must stay under Python's
        # 4300-digit limit on int-to-str conversion (1838 digits at n = 419)
        n = str(MAX_CENSUS_PART)
        total = str(2 * math.factorial(MAX_CENSUS_PART) ** 2)
        assert cli_main(["census", n, n]) == 0
        assert str(json.loads(capsys.readouterr().out)["total"]) == total
        assert cli_main(["census", n, n, "--format", "csv"]) == 0
        assert f"total,{total}\n" in capsys.readouterr().out

    def test_census_out_of_scope_exit_3(self, capsys):
        assert cli_main(["census", "2", "3"]) == 3

    def test_bad_usage_exit_2(self, capsys):
        assert cli_main(["classify", "--graph", "3x3", "--perm", "()"]) == 2
        assert cli_main(["frobnicate"]) == 2


# sha256 of `bipsym census` stdout, pinned before the census counted per
# partition: the plain census at its largest tested shapes, both parts'
# orders, and the realize-all census of K_{6,6}; K_{360,396} and
# K_{360,408}, the slowest shapes within MAX_CENSUS_PART, pinned before the
# census tallied by grouped sums
CENSUS_STDOUT_SHA256 = {
    ("100", "100"): "62563dff9598963fff82c8e185d95d764d790ca742761ed55151a881b589280d",
    ("100", "100", "--format", "csv"): (
        "0ac8886c7233f46ed1aea8fdf0b65616087be7b45cb15974176dd6684abba123"
    ),
    ("360", "360"): "18f7b76c8fd7f7725ea2e44695ce0fef8d9497adc7608cdda8fb9890dc63a48a",
    ("360", "360", "--format", "csv"): (
        "d6903b23d07514ed8e28db5ff8c8c944f6c190d002b1f0f89399b749e5a45ab6"
    ),
    ("360", "396"): "08cec90a23e20e11e37f960bbdd980bbf9b876f63f4f97ac3d2e25f3b82f4ae6",
    ("360", "396", "--format", "csv"): (
        "c182bf88dfc3434cc9bb39a68dd18c917c1463c4a9ed88e9148152ea0c0d7751"
    ),
    ("360", "408"): "5ce17f40f815189d52264abe4460c5a973ac6224fb6ff50ab5cc75d6b9c0d25d",
    ("360", "408", "--format", "csv"): (
        "7cc59e0a5981f3a87be5ffb1f70091c5d356292a9eecd202c99a902c67c80e91"
    ),
    ("419", "419"): "d3378e75e935b44059a49dd28a0f39cf5801ba97e339c013dc9591773bca7012",
    ("419", "419", "--format", "csv"): (
        "7ce8c389f4c1acbfee00345ff02e539495307b78c18c02267d338e19b76a6939"
    ),
    ("12", "15"): "10771ec6c5fe86f61d3288b8ffc85c1be7ac63ae28e060a736cd35fad1ec3190",
    ("12", "15", "--format", "csv"): (
        "05860fca9998bc8d9b6eaf502634d0fdaa7578e9b1b7ccdca6ddf4395bc2cb4c"
    ),
    ("15", "12"): "d4526964f1aa32411d9eb71da2ba380284d09b77e081f6d1d496833230969f65",
    ("15", "12", "--format", "csv"): (
        "967ba7b464267cb25953c135459984e2cffb21abff6e0253d4aa15e53244049b"
    ),
    ("6", "6", "--realize-all"): (
        "b4247647fcb655437b76eb13ad345c31ba82e59b5d7c8dfcc915a9b8d6c4d493"
    ),
}


@pytest.mark.parametrize("args", sorted(CENSUS_STDOUT_SHA256), ids=" ".join)
def test_census_stdout_is_pinned(args, capsys):
    assert cli_main(["census", *args]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CENSUS_STDOUT_SHA256[args]
