"""The four benchmark workloads.

Every workload is a closed loop from one client process: the next operation
starts when the previous one has finished.  Operations come in sweeps
(a fixed list of inputs), and a run measures whole sweeps so that the mix of
inputs does not depend on where the clock stops.  The inputs of sweep ``i``
depend only on the seed and ``i``.

In-process workloads clear ``classify``'s memo before each sweep, so every
sweep starts from the cache state of a fresh process without paying for the
import.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from . import checks, inputs

CENSUS_COUNT_SHAPES = ((3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6), (6, 5))
REALIZE_ALL_SHAPES = ((3, 3), (3, 4), (4, 3), (4, 4))
CLI_TIMEOUT_S = 120
# environment variables that would change what is measured
UNSET_ENV = ("BIPSYM_BACKEND", "BIPSYM_CACHE_DIR")


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


class ClassifyCache:
    """Hit/miss counts of ``classify``'s memo, read and reset together."""

    def __init__(self) -> None:
        fn = importlib.import_module("bipsym.classifier").classify
        self.fn = fn if hasattr(fn, "cache_info") else None

    def take(self) -> tuple[int, int]:
        if self.fn is None:
            return 0, 0
        info = self.fn.cache_info()
        self.fn.cache_clear()
        return info.hits, info.misses


def sweep_rng(seed: int, i: int) -> random.Random:
    return random.Random(f"{seed}:{i}")


class Workload:
    name = ""
    why = ""
    spawns = False  # operations run in child processes
    cache_reset_per_op = False  # else per sweep
    block = 1  # sweeps per traced block in a traced run

    def __init__(self, root: Path, seed: int, scratch: Path, in_process: bool = False) -> None:
        self.root = root
        self.seed = seed
        self.scratch = scratch
        self.in_process = in_process

    def setup(self) -> None:
        """Generate inputs and warm up; timed as part of ``setup_s``."""

    def sweep(self, i: int) -> list[Op]:
        raise NotImplementedError


# --- in-process workloads ----------------------------------------------------


def _report_obj(report) -> dict:
    return {
        "total": report.total,
        "per_case": dict(report.per_case),
        "unrealizable_op": report.unrealizable_op,
        "unrealizable_or": report.unrealizable_or,
        "realized_verified": report.realized_verified,
    }


class CensusCount(Workload):
    name = "census_count"
    why = "census(shape) on K3,3..K6,5 with no cache_dir: census tally and kernels, no geometry"

    def setup(self) -> None:
        self.bp = importlib.import_module("bipsym")
        self.ref = checks.load_reference("census.json")
        self.bp.census(self.bp.BipartiteShape(4, 3))  # not a timed shape

    def sweep(self, i: int) -> list[Op]:
        shapes = list(CENSUS_COUNT_SHAPES)
        sweep_rng(self.seed, i).shuffle(shapes)
        return [self._op(n, m) for n, m in shapes]

    def _op(self, n: int, m: int) -> Op:
        bp, ref = self.bp, self.ref[f"{n},{m}"]
        return Op(
            f"census_{n}_{m}",
            lambda: bp.census(bp.BipartiteShape(n, m)),
            lambda report: checks.check_census(_report_obj(report), ref, False),
        )


class CensusRealizeAll(Workload):
    name = "census_realize_all"
    why = "census(realize_all=True) on K3,3..K4,4: realize and verify of every pair, classify cache hits"

    def setup(self) -> None:
        self.bp = importlib.import_module("bipsym")
        self.ref = checks.load_reference("census.json")
        self.bp.census(self.bp.BipartiteShape(3, 3), realize_all=True, seed=0)

    def sweep(self, i: int) -> list[Op]:
        rng = sweep_rng(self.seed, i)
        shapes = list(REALIZE_ALL_SHAPES)
        rng.shuffle(shapes)
        return [self._op(n, m, rng.randrange(1, 1 << 16)) for n, m in shapes]

    def _op(self, n: int, m: int, seed: int) -> Op:
        bp, ref = self.bp, self.ref[f"{n},{m}"]
        return Op(
            f"census_{n}_{m}",
            lambda: bp.census(bp.BipartiteShape(n, m), realize_all=True, seed=seed),
            lambda report: checks.check_census(_report_obj(report), ref, True),
        )


class CertifyClasses(Workload):
    name = "certify_classes"
    why = "one conjugate per class, 3<=n<=m<=9: parse, classify misses, realize+verify up to order 72"

    def setup(self) -> None:
        self.bp = importlib.import_module("bipsym")
        ref = checks.load_reference("classes.json")
        self.verdicts = ref["verdicts"]
        rng = random.Random(self.seed)
        keys = inputs.class_keys(inputs.certify_shapes())
        pairs = sum(len(checks.realizable(self.verdicts.get(k, "|"))) for k in keys)
        if len(keys) != ref["classes"] or pairs != checks.CERTIFY_PAIRS:
            raise RuntimeError("reference classes.json does not match the class list")
        self.items = [(inputs.conjugate(k, rng), rng.randrange(1, 1 << 16)) for k in keys]
        # warm up on shapes outside the sweep, so no swept signature is cached
        warm_keys = inputs.class_keys([(3, 10), (10, 10)])
        for key in random.Random(f"warm:{self.seed}").sample(warm_keys, 40):
            self._run(inputs.conjugate(key, rng), 1)

    def _run(self, conj, seed: int):
        bp = self.bp
        aut = bp.parse_cycles(bp.BipartiteShape(conj.n, conj.m), conj.text())
        verdict = bp.classify(bp.signature(aut))
        certified = []
        for orientation, ok in (("op", verdict.op_realizable), ("or", verdict.or_realizable)):
            if ok:
                iso, emb = bp.realize(aut, orientation, seed)
                certified.append(bp.verify(aut, iso, emb, tol=1e-9).overall)
        return verdict, certified

    def sweep(self, i: int) -> list[Op]:
        order = list(range(len(self.items)))
        sweep_rng(self.seed, i).shuffle(order)
        return [self._op(*self.items[j]) for j in order]

    def _op(self, conj, seed: int) -> Op:
        want = self.verdicts.get(conj.key, "|")

        def check(out) -> str | None:
            verdict, certified = out
            got = checks.verdict_text(verdict)
            if got != want:
                return f"{conj.key}: verdict {got} != {want}"
            if not all(certified):
                return f"{conj.key}: certificate failed"
            return None

        return Op("certify", lambda: self._run(conj, seed), check)


# --- the CLI -----------------------------------------------------------------


@dataclass(frozen=True)
class Launch:
    kind: str  # classify, realize, verify, census or error
    argv: tuple[str, ...]
    expect_code: int
    check: Callable[[bytes], str | None] | None = None
    output: str | None = None  # file that ``realize -o`` writes


class CliOneshot(Workload):
    name = "cli_oneshot"
    why = "one bipsym process per query: interpreter start and import dominate"
    block = 6  # both census shapes and all three error kinds

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # a traced run calls cli_main in-process, modelling one fresh
        # process per launch by resetting the classify memo per launch
        self.spawns = not self.in_process
        self.cache_reset_per_op = self.in_process

    def setup(self) -> None:
        self.verdicts = checks.load_reference("classes.json")["verdicts"]
        self.census_ref = checks.load_reference("census.json")
        self.digests = checks.load_reference("cli.json")["census_stdout_sha256"]
        self.keys = keys = inputs.class_keys(inputs.cli_shapes())
        pairs = [(k, o) for k in keys for o in ("op", "or")]
        realizable = {(k, o) for k in keys for o in checks.realizable(self.verdicts.get(k, "|"))}
        self.realizable = [p for p in pairs if p in realizable]
        self.unrealizable = [p for p in pairs if p not in realizable]
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.env = child_env(self.root)
        run = self.launch_in_process if self.in_process else self.launch_subprocess
        for launch in self.sweep_launches(-1)[:1] + [self.census_launch(3)]:
            run(launch)

    # inputs

    def sweep_launches(self, i: int) -> list[Launch]:
        """One round: classify, realize, verify the realization, census and
        one expected-error launch."""
        rng = sweep_rng(self.seed, i)
        key = rng.choice(self.keys)
        conj = inputs.conjugate(key, rng)
        vtext = self.verdicts.get(key, "|")
        expected = checks.classify_stdout(vtext)
        out = [Launch(
            "classify", ("classify", "--graph", f"{conj.n},{conj.m}", "--perm", conj.text()),
            0, lambda stdout: None if stdout == expected else "classify stdout differs",
        )]
        key, orientation = rng.choice(self.realizable)
        conj = inputs.conjugate(key, rng)
        vtext = self.verdicts[key]
        path = str(self.scratch / "realization.json")

        def check_file(stdout, conj=conj, orientation=orientation, vtext=vtext, path=path):
            if stdout:
                return "realize -o wrote to stdout"
            try:
                obj = json.loads(Path(path).read_text("utf-8"))
            except (OSError, ValueError) as exc:
                return f"realization file: {exc}"
            return checks.check_realization(obj, conj, orientation, vtext)

        out.append(Launch(
            "realize",
            ("realize", "--graph", f"{conj.n},{conj.m}", "--perm", conj.text(),
             "--orientation", orientation, "--seed", str(rng.randrange(1, 1 << 16)),
             "-o", path),
            0, check_file, output=path,
        ))
        out.append(Launch("verify", ("verify", path), 0, _check_cert_stdout))
        out.append(self.census_launch(3 if i % 2 == 0 else 4))
        out.append(self.error_launch(i % 3, rng))
        return out

    def census_launch(self, n: int) -> Launch:
        digest = self.digests[f"{n},{n}"]
        ref = self.census_ref[f"{n},{n}"]

        def check(stdout: bytes) -> str | None:
            if checks.sha256(stdout) != digest:
                return f"census {n} {n} stdout digest differs"
            return checks.check_census(json.loads(stdout), ref, False)

        return Launch("census", ("census", str(n), str(n)), 0, check)

    def error_launch(self, kind: int, rng: random.Random) -> Launch:
        if kind == 0:  # a part of size 2 is out of the theorem's scope
            m = rng.randrange(3, 7)
            key = rng.choice(inputs.class_keys([(2, m)]))
            conj = inputs.conjugate(key, rng)
            return Launch("error", ("classify", "--graph", f"2,{m}", "--perm", conj.text()), 3)
        if kind == 1:  # realize in an orientation the classifier rejects
            key, orientation = rng.choice(self.unrealizable)
            conj = inputs.conjugate(key, rng)
            return Launch("error", ("realize", "--graph", f"{conj.n},{conj.m}",
                                    "--perm", conj.text(), "--orientation", orientation), 4)
        # malformed --perm
        conj = inputs.conjugate(rng.choice(self.keys), rng)
        while not conj.cycles:
            conj = inputs.conjugate(rng.choice(self.keys), rng)
        return Launch("error", ("classify", "--graph", f"{conj.n},{conj.m}",
                                "--perm", malformed(conj, rng)), 2)

    # execution

    def launch_subprocess(self, launch: Launch) -> tuple[int, bytes]:
        proc = subprocess.run(
            [sys.executable, "-m", "bipsym.cli", *launch.argv],
            env=self.env, cwd=self.root, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def launch_in_process(self, launch: Launch) -> tuple[int, bytes]:
        cli = importlib.import_module("bipsym.cli")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_main(list(launch.argv))
        return code, out.getvalue().encode("utf-8")

    def sweep(self, i: int) -> list[Op]:
        run = self.launch_in_process if self.in_process else self.launch_subprocess
        return [self._op(launch, run) for launch in self.sweep_launches(i)]

    def _op(self, launch: Launch, run) -> Op:
        def go():
            if launch.output:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(launch.output)
            return run(launch)

        def check(result) -> str | None:
            code, stdout = result
            if code != launch.expect_code:
                return f"{launch.argv[0]}: exit {code} != {launch.expect_code}"
            if launch.check is None:
                return "stdout not empty" if stdout else None
            return launch.check(stdout)

        return Op(launch.kind, go, check)


def _check_cert_stdout(stdout: bytes) -> str | None:
    try:
        obj = json.loads(stdout)
    except ValueError as exc:
        return f"verify stdout: {exc}"
    return checks.check_certificate(obj)


def malformed(conj: inputs.Conjugate, rng: random.Random) -> str:
    """The conjugate's cycle notation with one seeded defect."""
    text = conj.text()
    part, index = conj.cycles[0][0]
    label = f"{part}{index}"  # text starts with "(" + label
    kind = rng.randrange(3)
    if kind == 0:
        return text[:-1]  # unbalanced parenthesis
    if kind == 1:  # a vertex beyond the part size
        return f"({part}{(conj.n if part == 'v' else conj.m) + 1}" + text[1 + len(label):]
    return text.replace(")", f" {label})", 1)  # a vertex listed twice


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (CliOneshot, CensusCount, CensusRealizeAll, CertifyClasses)}
