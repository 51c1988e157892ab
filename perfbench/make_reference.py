#!/usr/bin/env python3
"""Regenerate the benchmark's reference data in ``perfbench/reference``.

    python3 perfbench/make_reference.py

* ``census.json``: tallies per shape from the brute-force oracle
  (``enumerate_automorphisms`` + ``signature`` + ``classify``), which never
  touches the kernels or the census tally.
* ``classes.json``: the verdict of every cycle-type class with
  3 <= n <= m <= 9, classified on its canonical representative; classes
  realizable in neither orientation are left out.
* ``cli.json``: sha256 digests of ``bipsym census 3 3`` and ``census 4 4``
  stdout.

The classify stdout that the benchmark rebuilds from ``classes.json`` is
compared here with the real CLI output for every class it draws from.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
for _var in ("BIPSYM_BACKEND", "BIPSYM_CACHE_DIR"):
    os.environ.pop(_var, None)

from bipsym import BipartiteShape, classify, enumerate_automorphisms, parse_cycles, signature  # noqa: E402
from bipsym.cli import cli_main  # noqa: E402

from perfbench import checks, inputs  # noqa: E402
from perfbench.workloads import CENSUS_COUNT_SHAPES, REALIZE_ALL_SHAPES  # noqa: E402


def oracle_tally(n: int, m: int) -> dict:
    per_case: dict[str, int] = {}
    total = unreal_op = unreal_or = 0
    for aut in enumerate_automorphisms(BipartiteShape(n, m)):
        verdict = classify(signature(aut))
        total += 1
        for case in verdict.op_cases + verdict.or_cases:
            per_case[case.label] = per_case.get(case.label, 0) + 1
        unreal_op += not verdict.op_realizable
        unreal_or += not verdict.or_realizable
    return {
        "total": total,
        "per_case": dict(sorted(per_case.items())),
        "unrealizable_op": unreal_op,
        "unrealizable_or": unreal_or,
        "realizable_pairs": 2 * total - unreal_op - unreal_or,
    }


def cli_stdout(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue().encode("utf-8")


def write(name: str, obj) -> None:
    text = json.dumps(obj, indent=1, sort_keys=True) + "\n"
    (checks.REFERENCE_DIR / name).write_text(text, "utf-8")
    print(f"wrote {name}")


def main() -> None:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    shapes = sorted(set(CENSUS_COUNT_SHAPES) | set(REALIZE_ALL_SHAPES))
    write("census.json", {f"{n},{m}": oracle_tally(n, m) for n, m in shapes})

    rng = random.Random(0)
    verdicts = {}
    for key in inputs.class_keys(inputs.certify_shapes()):
        conj = inputs.conjugate(key, rng)
        aut = parse_cycles(BipartiteShape(conj.n, conj.m), conj.canonical_text())
        verdicts[key] = checks.verdict_text(classify(signature(aut)))
    pairs = sum(len(checks.realizable(v)) for v in verdicts.values())
    if pairs != checks.CERTIFY_PAIRS:
        raise SystemExit(f"{pairs} realizable pairs, expected {checks.CERTIFY_PAIRS}")
    for key in inputs.class_keys(inputs.cli_shapes()):
        conj = inputs.conjugate(key, rng)
        code, out = cli_stdout(
            ["classify", "--graph", f"{conj.n},{conj.m}", "--perm", conj.text()]
        )
        if code != 0 or out != checks.classify_stdout(verdicts[key]):
            raise SystemExit(f"classify stdout for {key} differs from its rebuild")
    write("classes.json", {
        "classes": len(verdicts),
        "realizable_pairs": pairs,
        "verdicts": {k: v for k, v in verdicts.items() if v != "|"},
    })

    digests = {}
    for n, m in ((3, 3), (4, 4)):
        code, out = cli_stdout(["census", str(n), str(m)])
        if code != 0:
            raise SystemExit(f"census {n} {m} exited {code}")
        digests[f"{n},{m}"] = checks.sha256(out)
    write("cli.json", {"census_stdout_sha256": digests})


if __name__ == "__main__":
    main()
