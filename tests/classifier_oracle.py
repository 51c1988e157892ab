"""Classifier oracle: the case matchers ``classify`` used before it made one
pass per signature.

Each case has its own matcher here, and every matcher rebuilds the list of
cycle lengths other than r.  ``classify`` tallies the cycle lengths once and
decides all thirteen cases in both orientations from the tallies; tests
require both to give equal verdicts.  Nothing under ``src/`` imports this.
"""

from __future__ import annotations

import math

from bipsym.classifier import CaseId, Orientation, RealizabilityVerdict
from bipsym.core import CycleSignature, SideAction
from bipsym.errors import OutOfTheoremScope

from automorphism_ops import interchange_parts


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


def classify(sig: CycleSignature) -> RealizabilityVerdict:
    """The verdict of the matchers, as ``classify`` gave it before."""
    if sig.shape.n <= 2 or sig.shape.m <= 2:
        raise OutOfTheoremScope(
            f"classification requires n, m > 2; got ({sig.shape.n}, {sig.shape.m})"
        )
    if sig.r == 1:
        return RealizabilityVerdict((CaseId(Orientation.OP, 2),), ())
    op, orr = _collect(sig)
    return RealizabilityVerdict(tuple(op), tuple(orr))
