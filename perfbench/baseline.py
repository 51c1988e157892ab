#!/usr/bin/env python3
"""Run the benchmark twice over on several seeds per workload and compare.

    python3 perfbench/baseline.py --runs 10 --out perfbench/BENCH_baseline.json

For every workload in BENCHMARK.json this makes two sets of ``--runs``
untraced runs (seeds 1..runs, then runs+1..2*runs) and one traced run
(seed 1), each of ``run_seconds``.  For each end-to-end metric and set it
reports the median over runs and the distance between the first and third
quartile as a share of the median (``iqr_frac``), flagging a spread above a
third of the metric's bound.  It then compares the two sets' medians: the
second may not be worse than the first by more than the bound.  The
per-subcommand CLI medians are pooled over all runs' launches.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().split("\n")[-1])
    detail_path = ROOT / ".perfbench" / "results" / f"{workload}_seed{seed}_trace{trace}.json"
    detail = json.loads(detail_path.read_text("utf-8"))
    return {"last": last, "detail": detail, "wall_s": wall}


def summarize_set(runs: list[dict], bounds: dict) -> dict:
    names = sorted({k for r in runs for k in r["detail"]["metrics"]})
    metrics = {}
    for name in names:
        values = [r["detail"]["metrics"][name]["value"] for r in runs
                  if name in r["detail"]["metrics"]]
        if len(values) < 2:
            continue
        rec = stats.spread(values)
        rec["unit"] = runs[0]["detail"]["metrics"][name]["unit"]
        rec["runs"] = len(values)
        rec["samples_per_run"] = [r["detail"]["metrics"][name].get("n") for r in runs]
        if name in bounds:
            rec["bound"] = bounds[name]
            rec["steady"] = rec["iqr_frac"] <= bounds[name] / 3
        metrics[name] = rec
    return {
        "seeds": [r["detail"]["seed"] for r in runs],
        "attempted": sum(r["last"]["attempted"] for r in runs),
        "failed": sum(r["last"]["failed"] for r in runs),
        "run_wall_s": [round(r["wall_s"], 2) for r in runs],
        "metrics": metrics,
    }


def pooled_cli(runs: list[dict]) -> dict:
    pooled = {}
    for kind in ("classify", "realize", "verify", "census"):
        xs = [x for r in runs for x in r["detail"]["op_ms_by_kind"].get(kind, [])]
        if xs and stats.percentile_allowed(len(xs), 50):
            pooled[f"cli_{kind}_ms.p50"] = {"value": stats.percentile(xs, 50), "unit": "ms",
                                            "n": len(xs), "pooled_runs": len(runs)}
    return pooled


def compare(first: dict, second: dict, gated: dict) -> dict:
    """Per gated metric: both medians and how much worse the second is, as
    a share of the first (negative when it is better)."""
    out = {}
    for name, (bound, better) in gated.items():
        a = first["metrics"][name]["median"]
        b = second["metrics"][name]["median"]
        worse = (b - a) / a if better == "lower" else (a - b) / a
        out[name] = {"median_set1": a, "median_set2": b, "worse_frac": worse,
                     "bound": bound, "agree": worse <= bound}
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    gated = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    bounds = {name: bound for name, (bound, _) in gated.items()}
    report = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    steady = agree = True
    for wl in bench["workloads"]:
        workload = wl["name"]
        sets = []
        for first_seed in (1, args.runs + 1):
            runs = [run(workload, seed, seconds, 0)
                    for seed in range(first_seed, first_seed + args.runs)]
            sets.append((runs, summarize_set(runs, bounds)))
        summary = {
            "env": sets[0][0][0]["detail"]["env"],
            "sets": [s for _, s in sets],
            "agreement": compare(sets[0][1], sets[1][1], gated),
        }
        pooled = pooled_cli(sets[0][0] + sets[1][0])
        if pooled:
            summary["pooled"] = pooled
        traced = run(workload, 1, seconds, 1)
        summary["trace_seed1"] = traced["detail"]["metrics"]
        report["workloads"][workload] = summary
        print(f"{workload}:")
        for k, (_, s) in enumerate(sets, 1):
            print(f" set {k}: seeds {s['seeds'][0]}..{s['seeds'][-1]}, "
                  f"attempted {s['attempted']}, failed {s['failed']}")
            for name, rec in s["metrics"].items():
                flag = ""
                if "steady" in rec:
                    flag = "  steady" if rec["steady"] else "  NOT STEADY"
                    steady &= rec["steady"]
                print(f"  {name:<24} median {rec['median']:.6g} {rec['unit']}  "
                      f"iqr_frac {rec['iqr_frac']:.4f}{flag}")
        for name, rec in summary["agreement"].items():
            agree &= rec["agree"]
            print(f"  {name:<24} set 2 worse by {rec['worse_frac']:+.4f} "
                  f"(bound {rec['bound']}){'' if rec['agree'] else '  DISAGREE'}")
        for name, rec in pooled.items():
            print(f"  {name:<24} pooled {rec['value']:.6g} ms (n={rec['n']})")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", "utf-8")
    print("all spreads within a third of their bounds" if steady else "some spreads too wide")
    print("the two sets agree within the bounds" if agree else "the two sets disagree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
