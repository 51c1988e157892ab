#!/usr/bin/env python3
"""Benchmark bipsym end to end (``--trace 0``) or per layer (``--trace 1``).

    python3 perfbench/run.py --workload certify_classes --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository: the program is imported from
``src`` (it need not be installed).  Every metric is printed by name with
its unit; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics of the chosen mode.  Full
results go to ``.perfbench/results`` and traced spans to
``.perfbench/traces``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402
from perfbench.refloop import RefClock  # noqa: E402
from perfbench.tracing import Patched, SPAN_NAMES, Tracer, summarize, write_spans  # noqa: E402
from perfbench.workloads import UNSET_ENV, WORKLOADS, ClassifyCache, child_env  # noqa: E402

# the metrics the final JSON line carries (BENCHMARK.json lists the same)
# op_ms.p50 is printed but not carried: on census_count its median op is
# K4,5 with only a few samples per run, and it spread too widely to gate.
# ops_per_s is printed but not carried: the shared host's speed swings by
# up to 2x for tens of seconds, and ops_per_ref_s cancels that swing
END_TO_END = {"setup_s": "s", "ops_per_ref_s": "1/ref_s", "peak_rss_mb": "MB"}
COUNTERS = {
    "classifier.classify.hit_ratio": "ratio",
    "classifier.classify.lookups": "count",
    "verifier.verify.powers": "count",
    "verifier.verify.failed": "count",
    "geometry.realize.failed": "count",
    "census.census.automorphisms": "count",
    "kernels.cycle_stats.rows": "count",
    "jsonio.canonical_json.bytes": "bytes",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_frac": "ratio",
}
PER_LAYER = {
    **{f"{s}.{k}": u for s in SPAN_NAMES for k, u in
       (("calls", "count"), ("total_s", "s"), ("self_s", "s"))},
    **COUNTERS,
}
SETUP_REPS = 9
MIN_OPS = 20  # enough for op_ms.p50 under the sample-count rule
PROBE_LAUNCHES = 5
CLI_KINDS = ("classify", "realize", "verify", "census")

clock = time.perf_counter


class Record:
    """Per-operation outcomes of one run."""

    def __init__(self) -> None:
        self.ms: list[float] = []
        self.by_kind: dict[str, list[float]] = defaultdict(list)
        self.failed = 0
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.ms)

    def run(self, op) -> float:
        """Run and check ``op``; return the seconds it ran."""
        start = clock()
        try:
            out = op.run()
            reason = None
        except Exception as exc:  # counted as a failed op; the run goes on
            reason = f"{op.kind}: unexpected {type(exc).__name__}: {exc}"
        elapsed = clock() - start
        if reason is None:
            try:
                reason = op.check(out)
            except Exception as exc:
                reason = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
        self.ms.append(elapsed * 1e3)
        self.by_kind[op.kind].append(elapsed * 1e3)
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(reason)
        return elapsed


def run_sweep(wl, i: int, rec: Record, cache=None, tracer=None, lookups=None,
              ref: RefClock | None = None) -> None:
    """Run sweep ``i``; with ``lookups`` ([hits, misses]) collect the memo
    counts of this sweep into it; with ``ref`` interleave reference units."""

    def reset(first: bool) -> None:
        hits, misses = cache.take()
        if lookups is not None and not first:
            lookups[0] += hits
            lookups[1] += misses

    ops = wl.sweep(i)
    if cache and not wl.cache_reset_per_op:
        reset(True)
    for k, op in enumerate(ops):
        if cache and wl.cache_reset_per_op:
            reset(k == 0)
        if tracer is not None:
            tracer.op = rec.attempted
        elapsed = rec.run(op)
        if ref is not None:
            ref.after(elapsed)
    if cache:
        reset(False)


def launch_ms(argv, env, reps: int) -> list[float]:
    out = []
    for _ in range(reps):
        start = clock()
        subprocess.run(argv, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
        out.append((clock() - start) * 1e3)
    return out


# one set-up in a fresh interpreter; perfbench.workloads does not import bipsym
SETUP_CHILD = """
import sys, time
from pathlib import Path
root, name, seed, scratch = sys.argv[1:]
sys.path.insert(0, root)
from perfbench.workloads import WORKLOADS
start = time.perf_counter()
import bipsym
WORKLOADS[name](Path(root), int(seed), Path(scratch)).setup()
print(time.perf_counter() - start)
"""


def child_setup_s(name: str, seed: int, scratch: Path, env) -> float:
    """Seconds to import bipsym, generate the inputs and warm up in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(ROOT), name, str(seed), str(scratch)],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True, timeout=120)
    return float(proc.stdout.strip().split("\n")[-1])


def environment() -> dict:
    numba = importlib.util.find_spec("numba") is not None
    if numba:
        numba = subprocess.run([sys.executable, "-c", "import numba"],
                               capture_output=True, timeout=120).returncode == 0
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bipsym").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "numba_importable": numba,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def timed_setups(name: str, seed: int, scratch: Path) -> list[float]:
    """SETUP_REPS set-up times, each in a fresh interpreter so that none
    inherits the memo or warm state of another."""
    env = child_env(ROOT)
    return [child_setup_s(name, seed, scratch / f"setup{k}", env) for k in range(SETUP_REPS)]


def peak_rss_mb(wl) -> dict:
    who = resource.RUSAGE_CHILDREN if wl.spawns else resource.RUSAGE_SELF
    return stats.metric(
        resource.getrusage(who).ru_maxrss / 1024, "MB",
        note="largest child process" if wl.spawns else "benchmark process")


def end_to_end(wl, rec: Record, ref: RefClock, setup_times, peak_rss: dict) -> dict:
    m = {
        "setup_s": stats.metric(statistics.median(setup_times), "s", n=len(setup_times)),
        "ops_per_s": stats.metric(rec.attempted / ref.op_s, "1/s", n=rec.attempted,
                                  note="over the time spent in ops"),
        "ops_per_ref_s": stats.metric(
            rec.attempted / ref.to_ref_s(ref.op_s), "1/ref_s", n=rec.attempted,
            note=f"ref_s: {ref.units} reference units interleaved with the ops"),
        "ref_unit_ms": stats.metric(ref.unit_s() * 1e3, "ms", n=ref.units,
                                    note="host speed: mean time of one reference unit"),
    }
    m.update(stats.percentiles("op_ms", rec.ms, "ms"))
    m["peak_rss_mb"] = peak_rss
    m["failed_frac"] = stats.metric(rec.failed / rec.attempted, "ratio", n=rec.attempted)
    if wl.name == "cli_oneshot":
        for kind in CLI_KINDS:
            xs = rec.by_kind.get(kind, [])
            if stats.percentile_allowed(len(xs), 50):
                m[f"cli_{kind}_ms.p50"] = stats.metric(stats.percentile(xs, 50), "ms", n=len(xs))
    return m


def measure(wl, seconds: float) -> tuple[Record, RefClock]:
    cache = ClassifyCache() if not wl.spawns else None
    rec = Record()
    ref = RefClock()
    start = clock()
    i = 0
    while True:
        run_sweep(wl, i, rec, cache, ref=ref)
        i += 1
        if clock() - start >= seconds and rec.attempted >= MIN_OPS:
            return rec, ref


def measure_traced(wl, seconds: float, out_dir: Path, tag: str) -> tuple[Record, dict]:
    """Alternate untraced and traced blocks of the same sweeps; per-layer
    numbers are per sweep of the traced blocks."""
    cache = ClassifyCache()
    tracer = Tracer()
    rec = Record()
    lookups = [0, 0]
    plain_s = traced_s = 0.0
    traced_sweeps = 0
    absent: list[str] = []
    start = clock()
    i = 0
    while True:
        block = range(i, i + wl.block)
        t = clock()
        for j in block:
            run_sweep(wl, j, rec, cache)
        plain_s += clock() - t
        with Patched(tracer) as patch:
            absent = patch.absent
            t = clock()
            for j in block:
                run_sweep(wl, j, rec, cache, tracer, lookups)
            traced_s += clock() - t
        traced_sweeps += wl.block
        i += wl.block
        if clock() - start >= seconds:
            break

    per = 1 / traced_sweeps
    note = f"per sweep, {traced_sweeps} traced sweeps"
    m = {}
    summary = summarize(tracer.spans)
    for name in SPAN_NAMES:
        rec_s = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        why = "absent from the program" if name in absent else note
        m[f"{name}.calls"] = stats.metric(rec_s["calls"] * per, "count", note=why)
        m[f"{name}.total_s"] = stats.metric(rec_s["total_s"] * per, "s", note=why)
        m[f"{name}.self_s"] = stats.metric(rec_s["self_s"] * per, "s", note=why)
    hits, misses = lookups
    m["classifier.classify.hit_ratio"] = stats.metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio",
        note=f"base: {hits + misses} memo lookups ({hits} hits) in {traced_sweeps} sweeps")
    m["classifier.classify.lookups"] = stats.metric((hits + misses) * per, "count", note=note)
    m["verifier.verify.powers"] = stats.metric(
        tracer.counters["verifier.verify.powers"] * per, "count",
        note="computed from inputs: sum of claimed_order - 1, " + note)
    for name in ("verifier.verify.failed", "geometry.realize.failed", "census.census.automorphisms",
                 "kernels.cycle_stats.rows", "jsonio.canonical_json.bytes"):
        m[name] = stats.metric(tracer.counters[name] * per, COUNTERS[name], note=note)
    env = child_env(ROOT)
    interp = statistics.median(launch_ms([sys.executable, "-c", "pass"], env, PROBE_LAUNCHES))
    imp = statistics.median(
        launch_ms([sys.executable, "-c", "import bipsym.cli"], env, PROBE_LAUNCHES))
    m["cli.interpreter_ms"] = stats.metric(interp, "ms", n=PROBE_LAUNCHES,
                                           note="median launch of python -c pass")
    m["cli.import_ms"] = stats.metric(imp - interp, "ms", n=PROBE_LAUNCHES,
                                      note="median launch importing bipsym.cli, minus interpreter")
    m["trace.overhead_frac"] = stats.metric(
        traced_s / plain_s - 1, "ratio",
        note=f"traced {traced_s:.3f} s vs untraced {plain_s:.3f} s on the same sweeps")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_spans(out_dir / f"{tag}.spans.csv", tracer.spans)
    return rec, m


def print_metrics(metrics: dict) -> None:
    for name, rec in metrics.items():
        extra = []
        if "n" in rec:
            extra.append(f"n={rec['n']}")
        if "note" in rec:
            extra.append(rec["note"])
        tail = f"  ({'; '.join(extra)})" if extra else ""
        print(f"  {name:<34} {rec['value']:>14.6g} {rec['unit']}{tail}")


def run_one(args) -> int:
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    state = ROOT / ".perfbench"
    scratch = state / "tmp" / f"{tag}_{os.getpid()}"
    try:
        return _run_one(args, tag, state, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run_one(args, tag: str, state: Path, scratch: Path) -> int:
    traced = args.trace == 1
    cls = WORKLOADS[args.workload]
    if traced or cls.name != "cli_oneshot":
        bp = importlib.import_module("bipsym")
        if ROOT / "src" not in Path(bp.__file__).resolve().parents:
            print(f"error: imported bipsym from {bp.__file__}, not from src/", file=sys.stderr)
            return 2
    env_facts = environment()
    setup_start = clock()
    wl = WORKLOADS[args.workload](ROOT, args.seed, scratch, in_process=traced)
    wl.setup()
    print(f"workload {wl.name}: {wl.why}")
    print(f"  seed {args.seed}, {args.seconds} s, trace {args.trace}, "
          f"set-up {clock() - setup_start:.2f} s")
    print("env " + json.dumps(env_facts, sort_keys=True))
    setup_times = []
    if traced:
        rec, metrics = measure_traced(wl, args.seconds, state / "traces", tag)
        final = {k: metrics[k] for k in PER_LAYER}
    else:
        rec, ref = measure(wl, args.seconds)
        # read before the timed set-ups, whose processes would count
        peak = peak_rss_mb(wl)
        setup_times = timed_setups(args.workload, args.seed, scratch)
        metrics = end_to_end(wl, rec, ref, setup_times, peak)
        final = {k: metrics[k] for k in END_TO_END}
    stats.check_names(metrics)
    print(f"  attempted {rec.attempted}, failed {rec.failed}")
    print_metrics(metrics)
    for reason in rec.failures:
        print(f"failed: {reason}", file=sys.stderr)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in final.items()},
    }
    (state / "results").mkdir(parents=True, exist_ok=True)
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env_facts, "setup_s": setup_times,
              "metrics": metrics, "failures": rec.failures,
              "op_ms_by_kind": {k: v for k, v in rec.by_kind.items()},
              "result": result}
    (state / "results" / f"{tag}.json").write_text(json.dumps(detail, indent=1), "utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print all their metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=1800,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bipsym" / "__init__.py").is_file():
        print(f"error: no bipsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in UNSET_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
