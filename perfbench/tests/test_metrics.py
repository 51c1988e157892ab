import json
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.refloop import SHARE, UNITS_PER_REF_S, RefClock
from perfbench.run import END_TO_END, PER_LAYER, Record, end_to_end
from perfbench.workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def test_metric_names_are_well_formed():
    names = [*END_TO_END, *PER_LAYER]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [f"cli_{k}_ms.p50" for k in ("classify", "realize", "verify", "census")]
    names += ["op_ms.p90", "op_ms.p99", "failed_frac"]
    for name in names:
        assert stats.METRIC_NAME.fullmatch(name), name
    with pytest.raises(ValueError):
        stats.check_names({"op ms": {}})


def test_benchmark_json_matches_the_runner():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize(
    "n,p,allowed",
    [(19, 50, False), (20, 50, True), (99, 90, False), (100, 90, True),
     (999, 99, False), (1000, 99, True), (0, 50, False)],
)
def test_percentile_needs_ten_samples_beyond(n, p, allowed):
    assert stats.percentile_allowed(n, p) is allowed


def test_percentiles_emit_only_allowed_ones():
    out = stats.percentiles("op_ms", list(range(150)), "ms")
    assert set(out) == {"op_ms.p50", "op_ms.p90"}
    assert out["op_ms.p50"]["n"] == 150
    assert out["op_ms.p50"]["value"] == pytest.approx(74.5)
    assert stats.percentiles("op_ms", list(range(19)), "ms") == {}


def test_spread_uses_statistics_quartiles():
    rec = stats.spread([10, 11, 12, 13, 14])
    assert rec["median"] == 12
    assert rec["iqr_frac"] == pytest.approx((13.5 - 10.5) / 12)


def _record(outputs, check):
    rec = Record()
    for out in outputs:
        rec.run(Op("census", lambda out=out: out, check))
    return rec


def test_a_corrupted_output_counts_as_failed():
    ref = {"total": 72, "per_case": {"OP1": 22}, "unrealizable_op": 36,
           "unrealizable_or": 36, "realizable_pairs": 72}
    good = {k: v for k, v in ref.items() if k != "realizable_pairs"}
    good["realized_verified"] = None
    bad = dict(good, per_case={"OP1": 21})
    from perfbench.checks import check_census

    rec = _record([good] * 19 + [bad], lambda r: check_census(r, ref, False))
    assert (rec.attempted, rec.failed) == (20, 1)
    assert "per_case" in rec.failures[0]

    class Plain:
        name = "census_count"
        spawns = False

    ref = RefClock()
    ref.op_s, ref.ref_s, ref.units = 1.0, 0.1, 50  # units of 2 ms: a host at half speed
    metrics = end_to_end(Plain(), rec, ref, [0.1, 0.2, 0.3], stats.metric(50.0, "MB"))
    assert metrics["failed_frac"]["value"] == pytest.approx(0.05)
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)
    assert metrics["ops_per_s"]["value"] == pytest.approx(20)
    assert metrics["ops_per_ref_s"]["value"] == pytest.approx(40)


def test_the_reference_clock_runs_units_in_proportion_to_op_time():
    ref = RefClock()
    ref.after(0.02)  # owes 2 ms, below the smallest block
    assert ref.units == 0
    for _ in range(10):
        ref.after(0.1)
    assert ref.op_s == pytest.approx(1.02)
    assert ref.units > 0
    # the time spent in units makes up what is owed, short of one unit
    assert ref.ref_s == pytest.approx(1.02 * SHARE, abs=0.01)
    assert ref.to_ref_s(ref.unit_s() * UNITS_PER_REF_S) == pytest.approx(1.0)


def test_an_exception_counts_as_failed_and_the_run_goes_on():
    def boom():
        raise RuntimeError("x")

    rec = Record()
    rec.run(Op("certify", boom, lambda out: None))
    rec.run(Op("certify", lambda: 1, lambda out: None))
    assert (rec.attempted, rec.failed) == (2, 1)
    assert "RuntimeError" in rec.failures[0]
