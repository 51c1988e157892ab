"""Realizability of bipartite-graph automorphisms by homeomorphisms of S^3.

An automorphism's cycle signature is matched against thirteen structural
cases: cases 1-9 decide realizability by an orientation-preserving
homeomorphism of some embedding, cases 10-13 by an orientation-reversing
one.  Matching is inclusive (overlapping cases are all reported) and is
attempted both directly and with the two parts interchanged.

The common frame for every case: besides the fixed vertices and the
exceptional cycles the case names explicitly, all remaining vertices must
lie in r-cycles, where r is the order of the automorphism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .core import (
    BipartiteAutomorphism,
    CycleSignature,
    SideAction,
    interchange_parts,
    signature,
)
from .errors import NotRealizable, OutOfTheoremScope


class Orientation(Enum):
    OP = "op"  # orientation-preserving
    OR = "or"  # orientation-reversing


@dataclass(frozen=True)
class CaseId:
    orientation: Orientation
    number: int
    sub: str | None = None
    interchanged: bool = False

    def __post_init__(self) -> None:
        valid = range(1, 10) if self.orientation is Orientation.OP else range(10, 14)
        if self.number not in valid:
            raise ValueError(f"case {self.number} invalid for {self.orientation}")
        if self.sub is not None and self.number != 12:
            raise ValueError("sub-case letters only exist for case 12")

    @property
    def label(self) -> str:
        return f"{self.orientation.value.upper()}{self.number}{self.sub or ''}"


@dataclass(frozen=True)
class RealizabilityVerdict:
    op_cases: tuple[CaseId, ...]
    or_cases: tuple[CaseId, ...]

    @property
    def op_realizable(self) -> bool:
        return bool(self.op_cases)

    @property
    def or_realizable(self) -> bool:
        return bool(self.or_cases)

    def cases(self, orientation: Orientation) -> tuple[CaseId, ...]:
        return self.op_cases if orientation is Orientation.OP else self.or_cases


def _extras(lengths: tuple[int, ...], r: int) -> list[int]:
    """Cycle lengths other than r (the candidates for 'exceptional' cycles)."""
    return [L for L in lengths if L != r]


def _no_fixed(s: CycleSignature) -> bool:
    return s.fixed_v == 0 and s.fixed_w == 0


def _match_op(s: CycleSignature, number: int) -> bool:
    r = s.r
    swap = s.side_action is SideAction.SWAPPING
    pv, pw, mx = s.pure_v_cycles, s.pure_w_cycles, s.mixed_cycles

    if number == 1:
        # no fixed vertices, no exceptional cycles
        if swap:
            return not _extras(mx, r)
        return _no_fixed(s) and not _extras(pv, r) and not _extras(pw, r)
    if number == 2:
        return (
            not swap
            and s.fixed_v >= 1
            and s.fixed_w == 0
            and not _extras(pv, r)
            and not _extras(pw, r)
        )
    if number == 3:
        return (
            not swap
            and 1 <= s.fixed_v + s.fixed_w
            and s.fixed_v <= 2
            and s.fixed_w <= 2
            and not _extras(pv, r)
            and not _extras(pw, r)
        )
    if swap and number != 9:
        return False
    if not swap and number == 9:
        return False
    if number == 9:
        # one mixed 4-cycle; when r = 4 every cycle is a mixed 4-cycle and one
        # is designated exceptional, so the whole signature qualifies
        if r == 4:
            return set(mx) == {4}
        return set(mx) == {4, r} and mx.count(4) == 1
    # cases 4-8 are part-preserving with no fixed vertices
    if not _no_fixed(s):
        return False
    ev, ew = _extras(pv, r), _extras(pw, r)
    if number == 4:
        return not ew and bool(ev) and len(set(ev)) == 1
    if number == 5:
        if ew or len(set(ev)) != 2:
            return False
        j, k = sorted(set(ev))
        return math.lcm(j, k) == r
    if number == 6:
        if not ev or not ew or len(set(ev)) != 1 or len(set(ew)) != 1:
            return False
        return math.lcm(ev[0], ew[0]) == r
    if number == 7:
        return ev == [2] and ew == [2]
    if number == 8:
        if r % 2 or (r // 2) % 2 == 0 or ew != [2]:
            return False
        return sorted(set(ev)) == [2, r // 2] and ev.count(2) == 1
    raise ValueError(f"unknown OP case {number}")


def _match_or_12_subs(s: CycleSignature) -> list[str]:
    r = s.r
    pv, pw = s.pure_v_cycles, s.pure_w_cycles
    half = r // 2
    subs = []
    if not _extras(pv, r) and pw.count(2) == 1 and set(pw) <= {2, r}:
        subs.append("a")
    if pv.count(2) >= 1 and set(pv) <= {2, r} and set(pw) <= {r}:
        subs.append("b")
    if half % 2 and half >= 3:
        if set(pw) == {half} and set(pv) <= {2, r}:
            subs.append("c")
        if set(pv) == {half} and pw.count(2) <= 1 and set(pw) <= {2, r}:
            subs.append("d")
    return subs


def _match_or(s: CycleSignature, number: int) -> list[str | None]:
    """Matching sub-cases (None marks a match for cases without sub-cases)."""
    r = s.r
    if r % 2:
        return []
    swap = s.side_action is SideAction.SWAPPING
    if number == 10:
        ok = (
            not swap
            and _no_fixed(s)
            and not _extras(s.pure_v_cycles, r)
            and not _extras(s.pure_w_cycles, r)
        )
        return [None] if ok else []
    if number == 11:
        ok = not swap and r == 2 and s.fixed_v == s.shape.n and s.fixed_w <= 2
        return [None] if ok else []
    if number == 12:
        if swap or s.fixed_v > 2 or s.fixed_w != 0:
            return []
        subs = _match_or_12_subs(s)
        # the sub-cases are mutually exclusive by construction; a signature
        # somehow matching several is rejected rather than guessed
        return subs if len(subs) == 1 else []
    if number == 13:
        mx = s.mixed_cycles
        ok = swap and r % 4 == 0 and set(mx) <= {2, r} and mx.count(2) <= 2
        return [None] if ok else []
    raise ValueError(f"unknown OR case {number}")


def _collect(sig: CycleSignature) -> tuple[list[CaseId], list[CaseId]]:
    op: dict[tuple, CaseId] = {}
    orr: dict[tuple, CaseId] = {}
    for interchanged, s in ((False, sig), (True, interchange_parts(sig))):
        for number in range(1, 10):
            key = (number, None)
            if key not in op and _match_op(s, number):
                op[key] = CaseId(Orientation.OP, number, None, interchanged)
        for number in range(10, 14):
            for sub in _match_or(s, number):
                key = (number, sub)
                if key not in orr:
                    orr[key] = CaseId(Orientation.OR, number, sub, interchanged)
    ordered_op = [op[k] for k in sorted(op, key=lambda k: (k[0], k[1] or ""))]
    ordered_or = [orr[k] for k in sorted(orr, key=lambda k: (k[0], k[1] or ""))]
    return ordered_op, ordered_or


@lru_cache(maxsize=None)
def classify(sig: CycleSignature) -> RealizabilityVerdict:
    """Match a cycle signature against all thirteen cases.

    Requires n > 2 and m > 2 (OutOfTheoremScope otherwise).  The returned
    case lists are sorted by case number; for a case matching both directly
    and with parts interchanged, the direct match is kept.
    """
    if sig.shape.n <= 2 or sig.shape.m <= 2:
        raise OutOfTheoremScope(
            f"classification requires n, m > 2; got ({sig.shape.n}, {sig.shape.m})"
        )
    if sig.r == 1:
        # The identity is induced by the identity homeomorphism, which is
        # orientation-preserving; with every vertex fixed it is reported
        # under case 2.  No orientation-reversing realization: r = 1 is odd.
        return RealizabilityVerdict((CaseId(Orientation.OP, 2),), ())
    op, orr = _collect(sig)
    return RealizabilityVerdict(tuple(op), tuple(orr))


def classify_aut(aut: BipartiteAutomorphism) -> RealizabilityVerdict:
    return classify(signature(aut))


def dispatch_case(
    verdict: RealizabilityVerdict, orientation: Orientation
) -> CaseId:
    """The case a realization is built from: the lowest-numbered match."""
    cases = verdict.cases(orientation)
    if not cases:
        raise NotRealizable(f"no {orientation.value}-realization exists")
    return cases[0]
