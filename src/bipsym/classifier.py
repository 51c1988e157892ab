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
from itertools import combinations

from .core import (
    BipartiteAutomorphism,
    BipartiteShape,
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


# The case table read the other way round.  For K_{n,m}, each case has a
# generator of the conjugacy classes whose signature can match the case
# directly: a part-preserving class as (lam, mu), the cycle types on V and W,
# and a part-swapping one (n = m) as (lam, None), the cycle type of its return
# map V -> W -> V, whose mixed cycles are 2*lam.  Partitions are
# non-increasing tuples.  A generator may yield a class its matcher rejects
# (classify decides) but must not miss one it accepts; candidate_classes adds
# the classes matching with the parts interchanged.  In a generator, r is the
# order the case asks for, which is the lcm of all cycle lengths, so every
# length divides it; the census recomputes r from the class it classifies.


def _divisors(k: int, least: int = 2) -> list[int]:
    """Divisors d >= least of k (none when k <= 0)."""
    return [d for d in range(least, k + 1) if k % d == 0]


def _runs(*runs: tuple[int, int]) -> tuple[int, ...]:
    """The partition with c parts of length k for each run (k, c)."""
    parts: tuple[int, ...] = ()
    for k, c in sorted(runs, reverse=True):
        parts += (k,) * c
    return parts


def _gen_op1(n: int, m: int):
    # every cycle an r-cycle; part-swapping: all mixed cycles of one length
    for r in _divisors(math.gcd(n, m)):
        yield _runs((r, n // r)), _runs((r, m // r))
    if n == m:
        for h in _divisors(n, 1):
            yield _runs((h, n // h)), None


def _gen_op2(n: int, m: int):
    # classify reports the identity (r = 1) under case 2
    yield _runs((1, n)), _runs((1, m))
    # W in r-cycles; V in r-cycles and at least one fixed vertex
    for r in _divisors(m):
        for a in range((n - 1) // r + 1):
            yield _runs((r, a), (1, n - a * r)), _runs((r, m // r))


def _gen_op3(n: int, m: int):
    # r-cycles and at most two fixed vertices per part, at least one in all
    for fv in range(3):
        for fw in range(3):
            if fv + fw:
                for r in _divisors(math.gcd(n - fv, m - fw)):
                    yield (
                        _runs((r, (n - fv) // r), (1, fv)),
                        _runs((r, (m - fw) // r), (1, fw)),
                    )


def _gen_op4(n: int, m: int):
    # W in r-cycles; V in r-cycles and c >= 1 j-cycles, 2 <= j < r, j | r
    for r in _divisors(m):
        for j in _divisors(r)[:-1]:
            for c in range(1, n // j + 1):
                if (n - c * j) % r == 0:
                    yield _runs((r, (n - c * j) // r), (j, c)), _runs((r, m // r))


def _gen_op5(n: int, m: int):
    # W in r-cycles; V in r-cycles, d >= 1 k-cycles and c >= 1 j-cycles,
    # j < k < r and lcm(j, k) = r
    for r in _divisors(m):
        for j, k in combinations(_divisors(r)[:-1], 2):
            if math.lcm(j, k) == r:
                for d in range(1, (n - j) // k + 1):
                    for c in range(1, (n - d * k) // j + 1):
                        rest = n - d * k - c * j
                        if rest % r == 0:
                            yield (
                                _runs((r, rest // r), (k, d), (j, c)),
                                _runs((r, m // r)),
                            )


def _gen_op6(n: int, m: int):
    # V: r-cycles and c >= 1 j-cycles; W: r-cycles and d >= 1 k-cycles;
    # r = lcm(j, k) > j, k.  Since j | r, j | n; likewise k | m.
    for j in _divisors(n):
        for k in _divisors(m):
            r = math.lcm(j, k)
            if j < r and k < r:
                lams = [
                    _runs((r, (n - c * j) // r), (j, c))
                    for c in range(1, n // j + 1)
                    if (n - c * j) % r == 0
                ]
                for d in range(1, m // k + 1):
                    if (m - d * k) % r == 0:
                        mu = _runs((r, (m - d * k) // r), (k, d))
                        for lam in lams:
                            yield lam, mu


def _gen_op7(n: int, m: int):
    # r-cycles and exactly one 2-cycle per part, r even and > 2
    for r in _divisors(math.gcd(n - 2, m - 2), 4):
        if r % 2 == 0:
            yield _runs((r, (n - 2) // r), (2, 1)), _runs((r, (m - 2) // r), (2, 1))


def _gen_op8(n: int, m: int):
    # r = 2h, h odd >= 3; W: r-cycles and one 2-cycle; V: r-cycles, one
    # 2-cycle and c >= 1 h-cycles
    for r in _divisors(m - 2, 6):
        if r % 4 == 2:
            h = r // 2
            for c in range(1, (n - 2) // h + 1):
                rest = n - 2 - c * h
                if rest % r == 0:
                    yield (
                        _runs((r, rest // r), (h, c), (2, 1)),
                        _runs((r, (m - 2) // r), (2, 1)),
                    )


def _gen_op9(n: int, m: int):
    # part-swapping with one mixed 4-cycle and mixed r-cycles, 4 | r
    if n == m:
        if n % 2 == 0:
            yield _runs((2, n // 2)), None  # r = 4: every mixed cycle a 4-cycle
        for h in _divisors(n - 2, 4):
            if h % 2 == 0:
                yield _runs((h, (n - 2) // h), (2, 1)), None


def _gen_or10(n: int, m: int):
    # every cycle an r-cycle, r even
    for r in _divisors(math.gcd(n, m)):
        if r % 2 == 0:
            yield _runs((r, n // r)), _runs((r, m // r))


def _gen_or11(n: int, m: int):
    # r = 2: V fixed; W in 2-cycles and at most two fixed vertices
    for fw in range(3):
        if m > fw and (m - fw) % 2 == 0:
            yield _runs((1, n)), _runs((2, (m - fw) // 2), (1, fw))


def _gen_or12(n: int, m: int):
    # r even; at most two fixed vertices, all in V
    for fv in range(3):
        # a: V in r-cycles; W in r-cycles and one 2-cycle
        for r in _divisors(m - 2, 4):
            if r % 2 == 0 and (n - fv) % r == 0:
                yield (
                    _runs((r, (n - fv) // r), (1, fv)),
                    _runs((r, (m - 2) // r), (2, 1)),
                )
        # b: V in r-cycles and c >= 1 2-cycles; W in r-cycles
        for r in _divisors(m):
            if r % 2 == 0:
                for c in range(1, (n - fv) // 2 + 1):
                    rest = n - fv - 2 * c
                    if rest % r == 0:
                        yield _runs((r, rest // r), (2, c), (1, fv)), _runs((r, m // r))
        # c: r = 2h, h odd >= 3; V in r-cycles and 2-cycles; W in h-cycles
        for h in _divisors(m, 3):
            if h % 2:
                for c in range((n - fv) // 2 + 1):
                    rest = n - fv - 2 * c
                    if rest % (2 * h) == 0:
                        yield (
                            _runs((2 * h, rest // (2 * h)), (2, c), (1, fv)),
                            _runs((h, m // h)),
                        )
        # d: r = 2h, h odd >= 3; V in h-cycles; W in r-cycles and at most
        # one 2-cycle
        for h in _divisors(n - fv, 3):
            if h % 2:
                for e in range(2):
                    if (m - 2 * e) % (2 * h) == 0:
                        yield (
                            _runs((h, (n - fv) // h), (1, fv)),
                            _runs((2 * h, (m - 2 * e) // (2 * h)), (2, e)),
                        )


def _gen_or13(n: int, m: int):
    # part-swapping with mixed r-cycles, 4 | r, and at most two mixed 2-cycles
    if n == m:
        for e in range(3):
            for h in _divisors(n - e):
                if h % 2 == 0:
                    yield _runs((h, (n - e) // h), (1, e)), None


CASE_GENERATORS = {
    1: _gen_op1,
    2: _gen_op2,
    3: _gen_op3,
    4: _gen_op4,
    5: _gen_op5,
    6: _gen_op6,
    7: _gen_op7,
    8: _gen_op8,
    9: _gen_op9,
    10: _gen_or10,
    11: _gen_or11,
    12: _gen_or12,
    13: _gen_or13,
}


def candidate_classes(shape: BipartiteShape) -> set[tuple]:
    """Every conjugacy class of Aut(K_{n,m}) whose signature some case can
    match, directly or with the parts interchanged, as (lam, mu) or
    (lam, None); see CASE_GENERATORS.  Some candidates match no case."""
    n, m = shape.n, shape.m
    found: set[tuple] = set()
    for generate in CASE_GENERATORS.values():
        found.update(generate(n, m))
        for lam, mu in generate(m, n):
            found.add((lam, None) if mu is None else (mu, lam))
    return found


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
