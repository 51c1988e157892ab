"""Censuses of Aut(K_{n,m}) by classification case.

The classifier's input, the cycle signature, is constant on each conjugacy
class of Aut(K_{n,m}), so a census counts classes instead of enumerating
the n!*m! automorphisms.  A part-preserving class is a pair of cycle types
(lambda of n, mu of m) of size n!*m!/(z_lambda*z_mu); for n = m a
part-swapping class is the cycle type lambda of its return map V -> W -> V,
whose cycles are the mixed cycles 2*lambda, of size n!*n!/z_lambda.  Here
z_lambda = prod k^{j_k} * j_k! is the centralizer order of a permutation
with j_k cycles of length k.  Each signature is classified once.

With ``realize_all`` the census realizes and verifies one representative
per realizable (class, orientation) and counts the whole class when its
certificate passes.  One representative speaks for its class because, if
(M, x) realizes a, then (M, x o s^-1) realizes s a s^-1 for every
automorphism s, and every check of ``verify`` keeps its result when the
vertices are relabeled.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from ._version import __version__
from .classifier import classify
from .core import (
    DEFAULT_ENUMERATION_CAP,
    BipartiteAutomorphism,
    BipartiteShape,
    CycleSignature,
    SideAction,
    automorphism_count,
    check_pairs_within,
)
from .errors import OutOfTheoremScope


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


def _representative(sig: CycleSignature) -> BipartiteAutomorphism:
    """One automorphism with signature ``sig``.

    Pure cycles run over consecutive indices of their part, from v1 and w1
    on; the remaining vertices are fixed.  A mixed cycle of length 2k is
    (v_a w_a v_{a+1} w_{a+1} ... v_{a+k-1} w_{a+k-1}), the next one starting
    at v_{a+k}.
    """
    n = sig.shape.n
    perm = list(range(sig.shape.size))
    if sig.side_action is SideAction.SWAPPING:
        a = 0
        for length in sig.mixed_cycles:
            k = length // 2
            for i in range(a, a + k):
                perm[i] = n + i
                perm[n + i] = i + 1
            perm[n + a + k - 1] = a
            a += k
    else:
        for start, lengths in ((0, sig.pure_v_cycles), (n, sig.pure_w_cycles)):
            for length in lengths:
                last = start + length - 1
                perm[start:last] = range(start + 1, last + 1)
                perm[last] = start
                start += length
    return BipartiteAutomorphism(sig.shape, tuple(perm))


def census(
    shape: BipartiteShape,
    realize_all: bool = False,
    seed: int = 1,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CensusReport:
    """Classify every automorphism of K_{n,m} and tally the matched cases.

    The tally is counted per conjugacy class (see :func:`signature_tallies`).
    With ``realize_all``, additionally realize (with ``seed``) and verify one
    representative of every class in each orientation the classifier marks
    realizable; ``realized_verified`` is the summed size of the classes
    whose representative's certificate passed, once per orientation.
    Deterministic given (shape, seed).
    """
    if shape.n <= 2 or shape.m <= 2:
        raise OutOfTheoremScope(
            f"census requires n, m > 2; got ({shape.n}, {shape.m})"
        )
    check_pairs_within(shape, cap)
    if realize_all:
        from .geometry import realize
        from .verifier import verify

    per_case: dict[str, int] = {}
    unreal_op = 0
    unreal_or = 0
    realized_verified = 0 if realize_all else None
    for sig, count in signature_tallies(shape).items():
        verdict = classify(sig)
        for case in verdict.op_cases + verdict.or_cases:
            per_case[case.label] = per_case.get(case.label, 0) + count
        if not verdict.op_realizable:
            unreal_op += count
        if not verdict.or_realizable:
            unreal_or += count
        if realize_all and (verdict.op_realizable or verdict.or_realizable):
            rep = _representative(sig)
            for orientation, realizable in (
                ("op", verdict.op_realizable),
                ("or", verdict.or_realizable),
            ):
                if realizable:
                    iso, emb = realize(rep, orientation, seed)
                    if verify(rep, iso, emb, tol=1e-9).overall:
                        realized_verified += count

    return CensusReport(
        shape=shape,
        total=automorphism_count(shape),
        per_case=dict(sorted(per_case.items())),
        unrealizable_op=unreal_op,
        unrealizable_or=unreal_or,
        realized_verified=realized_verified,
        tool_version=__version__,
        seed=seed,
    )
