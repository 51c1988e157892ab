"""Censuses of Aut(K_{n,m}) by classification case.

The classifier's input, the cycle signature, is constant on each conjugacy
class of Aut(K_{n,m}), so a census counts classes instead of enumerating
the n!*m! automorphisms.  A part-preserving class is a pair of cycle types
(lambda of n, mu of m) of size n!*m!/(z_lambda*z_mu); for n = m a
part-swapping class is the cycle type lambda of its return map V -> W -> V,
whose cycles are the mixed cycles 2*lambda, of size n!*n!/z_lambda.  Here
z_lambda = prod k^{j_k} * j_k! is the centralizer order of a permutation
with j_k cycles of length k.  Each signature is classified once.

With ``realize_all`` every automorphism is still enumerated, realized and
verified.  Reports are cached as one canonical-JSON file per
(shape, version, seed).
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ._version import __version__
from .classifier import classify
from .core import (
    DEFAULT_ENUMERATION_CAP,
    BipartiteShape,
    CycleSignature,
    SideAction,
    enumerate_automorphisms,
    automorphism_count,
    signature,
)
from .errors import OutOfTheoremScope, TooLarge
from .jsonio import canonical_json, write_text_atomic

CACHE_ENV_VAR = "BIPSYM_CACHE_DIR"


@dataclass
class CensusReport:
    shape: BipartiteShape
    total: int
    per_case: dict[str, int] = field(default_factory=dict)
    unrealizable_op: int = 0
    unrealizable_or: int = 0
    realized_verified: int | None = None
    tool_version: str = __version__
    seed: int = 1


def report_to_obj(report: CensusReport) -> dict:
    return {
        "n": report.shape.n,
        "m": report.shape.m,
        "total": report.total,
        "per_case": dict(report.per_case),
        "unrealizable_op": report.unrealizable_op,
        "unrealizable_or": report.unrealizable_or,
        "realized_verified": report.realized_verified,
        "tool_version": report.tool_version,
        "seed": report.seed,
    }


def report_from_obj(obj: dict) -> CensusReport:
    return CensusReport(
        shape=BipartiteShape(int(obj["n"]), int(obj["m"])),
        total=int(obj["total"]),
        per_case={k: int(v) for k, v in obj["per_case"].items()},
        unrealizable_op=int(obj["unrealizable_op"]),
        unrealizable_or=int(obj["unrealizable_or"]),
        realized_verified=(
            None if obj["realized_verified"] is None else int(obj["realized_verified"])
        ),
        tool_version=obj["tool_version"],
        seed=int(obj["seed"]),
    )


def report_csv(report: CensusReport) -> str:
    """Two-column CSV: one row per case label, then the summary rows."""
    lines = ["key,value"]
    for label in sorted(report.per_case):
        lines.append(f"case:{label},{report.per_case[label]}")
    lines.append(f"total,{report.total}")
    lines.append(f"unrealizable_op,{report.unrealizable_op}")
    lines.append(f"unrealizable_or,{report.unrealizable_or}")
    rv = "" if report.realized_verified is None else report.realized_verified
    lines.append(f"realized_verified,{rv}")
    lines.append(f"n,{report.shape.n}")
    lines.append(f"m,{report.shape.m}")
    lines.append(f"seed,{report.seed}")
    lines.append(f"tool_version,{report.tool_version}")
    return "\n".join(lines) + "\n"


def cache_path(cache_dir: str | Path, shape: BipartiteShape, seed: int) -> Path:
    name = f"census_{shape.n}_{shape.m}_{__version__}_{seed}.json"
    return Path(cache_dir) / name


def _partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n as non-increasing tuples, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _centralizer_order(parts: tuple[int, ...]) -> int:
    """z = prod k^{j_k} * j_k!, the order of the centralizer in S_n of a
    permutation with cycle type ``parts``."""
    z = 1
    for k, j in Counter(parts).items():
        z *= k**j * math.factorial(j)
    return z


def signature_tallies(shape: BipartiteShape) -> Counter:
    """Number of automorphisms of K_{n,m} with each cycle signature."""
    n, m = shape.n, shape.m
    pairs = math.factorial(n) * math.factorial(m)
    tally: Counter = Counter()
    for lam in _partitions(n):
        for mu in _partitions(m):
            sig = CycleSignature(
                shape=shape,
                side_action=SideAction.PRESERVING,
                r=math.lcm(*lam, *mu),
                fixed_v=lam.count(1),
                fixed_w=mu.count(1),
                pure_v_cycles=tuple(k for k in lam if k > 1),
                pure_w_cycles=tuple(k for k in mu if k > 1),
                mixed_cycles=(),
            )
            tally[sig] += pairs // (_centralizer_order(lam) * _centralizer_order(mu))
    if n == m:
        for lam in _partitions(n):
            mixed = tuple(2 * k for k in lam)
            sig = CycleSignature(
                shape=shape,
                side_action=SideAction.SWAPPING,
                r=math.lcm(*mixed),
                fixed_v=0,
                fixed_w=0,
                pure_v_cycles=(),
                pure_w_cycles=(),
                mixed_cycles=mixed,
            )
            tally[sig] += pairs // _centralizer_order(lam)
    return tally


def census(
    shape: BipartiteShape,
    realize_all: bool = False,
    seed: int = 1,
    cache_dir: str | Path | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CensusReport:
    """Classify every automorphism of K_{n,m} and tally the matched cases.

    The tally is counted per conjugacy class (see :func:`signature_tallies`).
    With ``realize_all``, additionally run realize + verify on every
    (automorphism, orientation) pair the classifier marks realizable and
    count the passing certificates.  Deterministic given (shape, seed); a
    cached report is returned when its shape and total match ``shape``,
    and is recomputed and overwritten otherwise.
    """
    if shape.n <= 2 or shape.m <= 2:
        raise OutOfTheoremScope(
            f"census requires n, m > 2; got ({shape.n}, {shape.m})"
        )
    pairs = math.factorial(shape.n) * math.factorial(shape.m)
    if pairs > cap:
        raise TooLarge(f"n!*m! = {pairs} exceeds cap {cap}")

    path = cache_path(cache_dir, shape, seed) if cache_dir is not None else None
    if path is not None and path.exists():
        try:
            report = report_from_obj(json.loads(path.read_text("utf-8")))
        except (ValueError, KeyError, TypeError, AttributeError):
            report = None  # unreadable cache entry; recompute and overwrite
        if (
            report is not None
            and report.shape == shape
            and report.total == automorphism_count(shape)
            and (not realize_all or report.realized_verified is not None)
        ):
            return report

    per_case: dict[str, int] = {}
    unreal_op = 0
    unreal_or = 0
    for sig, count in signature_tallies(shape).items():
        verdict = classify(sig)
        for case in verdict.op_cases + verdict.or_cases:
            per_case[case.label] = per_case.get(case.label, 0) + count
        if not verdict.op_realizable:
            unreal_op += count
        if not verdict.or_realizable:
            unreal_or += count

    realized_verified = None
    if realize_all:
        from .geometry import realize
        from .verifier import verify

        realized_verified = 0
        for aut in enumerate_automorphisms(shape, cap):
            verdict = classify(signature(aut))
            for orientation, realizable in (
                ("op", verdict.op_realizable),
                ("or", verdict.or_realizable),
            ):
                if not realizable:
                    continue
                iso, emb = realize(aut, orientation, seed)
                if verify(aut, iso, emb, tol=1e-9).overall:
                    realized_verified += 1

    report = CensusReport(
        shape=shape,
        total=automorphism_count(shape),
        per_case=dict(sorted(per_case.items())),
        unrealizable_op=unreal_op,
        unrealizable_or=unreal_or,
        realized_verified=realized_verified,
        tool_version=__version__,
        seed=seed,
    )
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_text_atomic(path, canonical_json(report_to_obj(report)))
    return report


def default_cache_dir() -> str | None:
    return os.environ.get(CACHE_ENV_VAR) or None
