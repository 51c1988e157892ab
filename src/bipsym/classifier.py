"""Realizability of bipartite-graph automorphisms by homeomorphisms of S^3.

An automorphism's cycle signature is matched against thirteen structural
cases: cases 1-9 decide realizability by an orientation-preserving
homeomorphism of some embedding, cases 10-13 by an orientation-reversing
one.  Matching is inclusive (overlapping cases are all reported) and is
attempted both directly and with the two parts interchanged.

The common frame for every case: besides the fixed vertices and the
exceptional cycles the case names explicitly, all remaining vertices must
lie in r-cycles, where r is the order of the automorphism.

The cases read only tallies of cycle lengths (length -> count): r, each
part's size, fixed vertices and tally of pure cycle lengths, and apart from
them the lengths other than r, the candidates for exceptional cycles.
``_decide`` decides all thirteen cases from the tallies, then again with V
and W exchanged; a part-swapping class's cases read only r and the tally
of its mixed cycles, so it is decided once.  Classes that match the same
cases get one shared verdict object.  ``classify`` tallies a signature and
calls ``_decide``; the census calls it with the tallies it keeps per cycle
type, builds no signature, and groups its sums by verdict.

``CASES`` maps each key (number, sub) of the paper's case table, OP1-OP9
and OR10-OR13 with OR12 split into 12a-12d, to the generator of the classes
that can match it.  It is the one list of the keys: ``CaseId`` accepts only
them, and the verdicts and the census's candidates iterate it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

from .core import (
    BipartiteAutomorphism,
    BipartiteShape,
    CycleSignature,
    SideAction,
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
    label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        preserving = self.orientation is Orientation.OP  # cases 1-9
        if (self.number, self.sub) not in CASES or preserving != (self.number < 10):
            raise ValueError(f"no case {self.number}{self.sub or ''} for {self.orientation}")
        label = f"{self.orientation.value.upper()}{self.number}{self.sub or ''}"
        object.__setattr__(self, "label", label)


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


def _tally(lengths: tuple[int, ...]) -> dict[int, int]:
    """Cycle length -> number of cycles of that length.  A signature keeps
    its lengths sorted, so each run of equal lengths ends at a bisection."""
    tally: dict[int, int] = {}
    start = 0
    while start < len(lengths):
        end = bisect_right(lengths, lengths[start], start)
        tally[lengths[start]] = end - start
        start = end
    return tally


def _swapping_cases(r: int, tm: dict[int, int]) -> list[tuple]:
    """The (number, sub) keys of the cases a part-swapping signature with
    mixed cycles tallied in ``tm`` matches.  Only r and ``tm`` are read, so
    interchanging the parts matches the same cases."""
    keys = []
    # case 1: every mixed cycle an r-cycle
    if tm.keys() <= {r}:
        keys.append((1, None))
    # case 9: one mixed 4-cycle, the rest mixed r-cycles; when r = 4 every
    # cycle is a mixed 4-cycle and one is designated exceptional
    if tm.keys() == ({4} if r == 4 else {4, r}) and (r == 4 or tm[4] == 1):
        keys.append((9, None))
    # case 13: 4 | r, mixed r-cycles and at most two mixed 2-cycles
    if r % 4 == 0 and tm.keys() <= {2, r} and tm.get(2, 0) <= 2:
        keys.append((13, None))
    return keys


def _preserving_cases(r, n, fv, fw, tv, tw, ev, ew) -> list[tuple]:
    """The (number, sub) keys of the cases a part-preserving signature
    matches, read with V as the first part: |V| = n, V has ``fv`` fixed
    vertices and its pure cycle lengths tallied in ``tv``, and ``ev`` holds
    the entries of ``tv`` for lengths other than r; likewise for W."""
    keys = []
    frame = not ev and not ew  # every cycle an r-cycle
    no_fixed = not fv and not fw
    h = r // 2
    # case 1: no fixed vertices
    if frame and no_fixed:
        keys.append((1, None))
    # case 2: fixed vertices in V only
    if frame and fv and not fw:
        keys.append((2, None))
    # case 3: at most two fixed vertices per part, at least one in all
    if frame and fv + fw and fv <= 2 and fw <= 2:
        keys.append((3, None))
    # cases 4-8 have no fixed vertices
    if no_fixed:
        # case 4: W in r-cycles; V's exceptional cycles of one length
        if not ew and len(ev) == 1:
            keys.append((4, None))
        # case 5: W in r-cycles; V's exceptional cycles of two lengths j, k
        # with lcm(j, k) = r
        if not ew and len(ev) == 2 and math.lcm(*ev) == r:
            keys.append((5, None))
        # case 6: exceptional j-cycles in V, k-cycles in W, lcm(j, k) = r
        if len(ev) == 1 and len(ew) == 1 and math.lcm(*ev, *ew) == r:
            keys.append((6, None))
        # case 7: one exceptional 2-cycle in each part
        if ev == {2: 1} and ew == {2: 1}:
            keys.append((7, None))
        # case 8: r = 2h, h odd >= 3; W: one exceptional 2-cycle; V: one
        # exceptional 2-cycle and h-cycles
        if r % 4 == 2 and h > 2 and ew == {2: 1} and ev.keys() == {2, h} and ev[2] == 1:
            keys.append((8, None))
    # cases 10-13 need r even
    if r % 2:
        return keys
    # case 10: no fixed vertices
    if frame and no_fixed:
        keys.append((10, None))
    # case 11: r = 2, V fixed, at most two fixed vertices in W
    if r == 2 and fv == n and fw <= 2:
        keys.append((11, None))
    # case 12: at most two fixed vertices, all in V.  The sub-cases are
    # mutually exclusive by construction; a signature somehow matching
    # several is rejected rather than guessed
    if fv <= 2 and not fw:
        subs = []
        # 12a: V in r-cycles; W in r-cycles and one 2-cycle
        if not ev and tw.get(2) == 1 and ew.keys() <= {2}:
            subs.append("a")
        # 12b: V in r-cycles and at least one 2-cycle; W in r-cycles
        if 2 in tv and ev.keys() <= {2} and not ew:
            subs.append("b")
        if h % 2 and h >= 3:
            # 12c: V in r-cycles and 2-cycles; W in h-cycles
            if tw.keys() == {h} and ev.keys() <= {2}:
                subs.append("c")
            # 12d: V in h-cycles; W in r-cycles and at most one 2-cycle
            if tv.keys() == {h} and tw.get(2, 0) <= 1 and ew.keys() <= {2}:
                subs.append("d")
        if len(subs) == 1:
            keys.append((12, subs[0]))
    return keys


# The case table read the other way round, as CASES below holds it.  For
# K_{n,m}, each case has a generator of the conjugacy classes whose signature
# can match the case directly (12a-12d share one, and case 10 shares case
# 1's): a part-preserving class as (lam, mu), the cycle types on V and W,
# and a part-swapping one (n = m) as (lam, None), the cycle type of its return
# map V -> W -> V, whose mixed cycles are 2*lam.  A cycle type is a run tuple
# ((k, c), ...): c >= 1 cycles of length k for each run, lengths strictly
# decreasing, so each cycle type has one run tuple.  A generator may yield a
# class its matcher rejects (classify decides) but must not miss one it
# accepts; candidate_classes adds the classes matching with the parts
# interchanged.  In a generator, r is the order the case asks for, which is
# the lcm of all cycle lengths, so every length divides it; the census
# recomputes r from the class it classifies.  ``divisors[k]`` lists the
# divisors of k in ascending order, from the table candidate_classes builds
# for the call; every k a generator reads lies in 1..max(n, m).


def _divisor_table(largest: int) -> list[list[int]]:
    """The divisors of each k <= ``largest``, ascending, at index k (none at
    0), from one sieve."""
    divisors: list[list[int]] = [[] for _ in range(largest + 1)]
    for d in range(1, largest + 1):
        for k in range(d, largest + 1, d):
            divisors[k].append(d)
    return divisors


def _runs(*runs: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """The run tuple of the cycle type with c cycles of length k for each
    run (k, c), given longest first: runs with c = 0 are dropped and
    neighbouring runs of one length merged (only _gen_or12's b branch at
    r = 2 passes two), without a sort."""
    found: list[tuple[int, int]] = []
    for k, c in runs:
        if c:
            if found and found[-1][0] == k:
                c += found.pop()[1]
            found.append((k, c))
    return tuple(found)


def _gen_op1(n: int, m: int, divisors):
    # every cycle an r-cycle; part-swapping: all mixed cycles of one length
    for r in divisors[math.gcd(n, m)][1:]:
        yield ((r, n // r),), ((r, m // r),)
    if n == m:
        for h in divisors[n]:
            yield ((h, n // h),), None


def _gen_op2(n: int, m: int, divisors):
    # classify reports the identity (r = 1) under case 2
    yield ((1, n),), ((1, m),)
    # W in r-cycles; V in r-cycles and at least one fixed vertex
    for r in divisors[m][1:]:
        mu = ((r, m // r),)
        for a in range((n - 1) // r + 1):
            yield _runs((r, a), (1, n - a * r)), mu


def _gen_op3(n: int, m: int, divisors):
    # r-cycles and at most two fixed vertices per part, at least one in all
    for fv in range(3):
        for fw in range(3):
            if fv + fw:
                for r in divisors[math.gcd(n - fv, m - fw)][1:]:
                    yield (
                        _runs((r, (n - fv) // r), (1, fv)),
                        _runs((r, (m - fw) // r), (1, fw)),
                    )


def _gen_op4(n: int, m: int, divisors):
    # W in r-cycles; V in r-cycles and c >= 1 j-cycles, 2 <= j < r, j | r
    for r in divisors[m][1:]:
        mu = ((r, m // r),)
        for j in divisors[r][1:-1]:
            for c in range(1, n // j + 1):
                if (n - c * j) % r == 0:
                    yield _runs((r, (n - c * j) // r), (j, c)), mu


def _gen_op5(n: int, m: int, divisors):
    # W in r-cycles; V in r-cycles, d >= 1 k-cycles and c >= 1 j-cycles,
    # j < k < r and lcm(j, k) = r
    for r in divisors[m][1:]:
        mu = ((r, m // r),)
        for j, k in combinations(divisors[r][1:-1], 2):
            if math.lcm(j, k) == r:
                for d in range(1, (n - j) // k + 1):
                    for c in range(1, (n - d * k) // j + 1):
                        rest = n - d * k - c * j
                        if rest % r == 0:
                            yield _runs((r, rest // r), (k, d), (j, c)), mu


def _gen_op6(n: int, m: int, divisors):
    # V: r-cycles and c >= 1 j-cycles; W: r-cycles and d >= 1 k-cycles;
    # r = lcm(j, k) > j, k.  Since j | r, j | n; likewise k | m.
    for j in divisors[n][1:]:
        for k in divisors[m][1:]:
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


def _gen_op7(n: int, m: int, divisors):
    # r-cycles and exactly one 2-cycle per part, r even and > 2
    for r in divisors[math.gcd(n - 2, m - 2)]:
        if r > 2 and r % 2 == 0:
            yield _runs((r, (n - 2) // r), (2, 1)), _runs((r, (m - 2) // r), (2, 1))


def _gen_op8(n: int, m: int, divisors):
    # r = 2h, h odd >= 3; W: r-cycles and one 2-cycle; V: r-cycles, one
    # 2-cycle and c >= 1 h-cycles
    for r in divisors[m - 2]:
        if r > 2 and r % 4 == 2:
            h = r // 2
            mu = _runs((r, (m - 2) // r), (2, 1))
            for c in range(1, (n - 2) // h + 1):
                rest = n - 2 - c * h
                if rest % r == 0:
                    yield _runs((r, rest // r), (h, c), (2, 1)), mu


def _gen_op9(n: int, m: int, divisors):
    # part-swapping with one mixed 4-cycle and mixed r-cycles, 4 | r
    if n == m:
        if n % 2 == 0:
            yield ((2, n // 2),), None  # r = 4: every mixed cycle a 4-cycle
        for h in divisors[n - 2]:
            if h > 2 and h % 2 == 0:
                yield _runs((h, (n - 2) // h), (2, 1)), None


def _gen_or11(n: int, m: int, divisors):
    # r = 2: V fixed; W in 2-cycles and at most two fixed vertices
    for fw in range(3):
        if m > fw and (m - fw) % 2 == 0:
            yield ((1, n),), _runs((2, (m - fw) // 2), (1, fw))


def _gen_or12(n: int, m: int, divisors):
    # r even; at most two fixed vertices, all in V
    for fv in range(3):
        # a: V in r-cycles; W in r-cycles and one 2-cycle
        for r in divisors[m - 2]:
            if r > 2 and r % 2 == 0 and (n - fv) % r == 0:
                yield (
                    _runs((r, (n - fv) // r), (1, fv)),
                    _runs((r, (m - 2) // r), (2, 1)),
                )
        # b: V in r-cycles and c >= 1 2-cycles; W in r-cycles
        for r in divisors[m]:
            if r % 2 == 0:
                mu = ((r, m // r),)
                for c in range(1, (n - fv) // 2 + 1):
                    rest = n - fv - 2 * c
                    if rest % r == 0:
                        yield _runs((r, rest // r), (2, c), (1, fv)), mu
        # c: r = 2h, h odd >= 3; V in r-cycles and 2-cycles; W in h-cycles
        for h in divisors[m]:
            if h > 2 and h % 2:
                mu = ((h, m // h),)
                for c in range((n - fv) // 2 + 1):
                    rest = n - fv - 2 * c
                    if rest % (2 * h) == 0:
                        yield _runs((2 * h, rest // (2 * h)), (2, c), (1, fv)), mu
        # d: r = 2h, h odd >= 3; V in h-cycles; W in r-cycles and at most
        # one 2-cycle
        for h in divisors[n - fv]:
            if h > 2 and h % 2:
                lam = _runs((h, (n - fv) // h), (1, fv))
                for e in range(2):
                    if (m - 2 * e) % (2 * h) == 0:
                        yield lam, _runs((2 * h, (m - 2 * e) // (2 * h)), (2, e))


def _gen_or13(n: int, m: int, divisors):
    # part-swapping with mixed r-cycles, 4 | r, and at most two mixed 2-cycles
    if n == m:
        for e in range(3):
            for h in divisors[n - e]:
                if h % 2 == 0:
                    yield _runs((h, (n - e) // h), (1, e)), None


CASES = {
    (1, None): _gen_op1,
    (2, None): _gen_op2,
    (3, None): _gen_op3,
    (4, None): _gen_op4,
    (5, None): _gen_op5,
    (6, None): _gen_op6,
    (7, None): _gen_op7,
    (8, None): _gen_op8,
    (9, None): _gen_op9,
    (10, None): _gen_op1,  # case 10 (every cycle an r-cycle, r even) is part of case 1
    (11, None): _gen_or11,
    **{(12, sub): _gen_or12 for sub in "abcd"},
    (13, None): _gen_or13,
}


def candidate_classes(shape: BipartiteShape) -> set[tuple]:
    """Every conjugacy class of Aut(K_{n,m}) whose signature some case can
    match, directly or with the parts interchanged, as (lam, mu) or
    (lam, None) of run tuples; see CASES.  Some candidates match no case.

    For n = m the part swap conjugates (lam, mu) into (mu, lam), and both
    classes match the same cases, so each generator runs once and each
    such pair is one candidate, the one with lam >= mu.  Run tuples of two
    partitions of one n compare as the partitions do, the first differing
    run deciding by its length or, at one length, by its count, so this is
    the member with the larger partition.  The divisors of every k <=
    max(n, m) come from one sieve, and equal run tuples are kept as one
    tuple, both for this call only."""
    n, m = shape.n, shape.m
    divisors = _divisor_table(max(n, m))
    found: set[tuple] = set()
    parts: dict = {}  # each distinct run tuple once
    for generate in dict.fromkeys(CASES.values()):  # each generator once
        if n == m:
            for lam, mu in generate(n, n, divisors):
                lam, mu = parts.setdefault(lam, lam), parts.setdefault(mu, mu)
                found.add((mu, lam) if mu is not None and lam < mu else (lam, mu))
            continue
        for lam, mu in generate(n, m, divisors):
            found.add((parts.setdefault(lam, lam), parts.setdefault(mu, mu)))
        for lam, mu in generate(m, n, divisors):
            found.add((parts.setdefault(mu, mu), parts.setdefault(lam, lam)))
    return found


# The CaseId of each (number, sub) key, direct and interchanged.
_CASE_IDS = {
    (key, swapped): CaseId(Orientation("op" if key[0] < 10 else "or"), *key, swapped)
    for key in CASES
    for swapped in (False, True)
}
# One verdict per (direct keys, interchanged keys) pair, built on first use;
# few key sets occur (29 over the 36 088 candidates of K_{360,396}).
# Verdicts are frozen, so every caller may share them, and the census groups
# its classes by verdict.
_VERDICTS: dict[tuple, RealizabilityVerdict] = {}


def _verdict(key: tuple) -> RealizabilityVerdict:
    """The verdict of the (number, sub) keys matched directly and with the
    parts interchanged, key = (direct, interchanged), built once; a key
    matching both ways is a direct match."""
    direct, swapped = key
    found = dict.fromkeys(swapped, True)
    found.update(dict.fromkeys(direct, False))
    cases = tuple(_CASE_IDS[item] for item in sorted(found.items()))
    split = sum(c.number < 10 for c in cases)
    verdict = _VERDICTS[key] = RealizabilityVerdict(cases[:split], cases[split:])
    return verdict


_IDENTITY = _verdict((((2, None),), ()))


def _decide(r, mixed, n=0, m=0, fv=0, fw=0, tv=None, tw=None) -> RealizabilityVerdict:
    """The verdict of a class of order r, read from the tallies of its cycle
    lengths (length -> count), as ``classify`` returns it.  A part-swapping
    class gives the tally of its mixed cycles as ``mixed``; a part-preserving
    one gives ``mixed`` None, the part sizes n and m, the fixed vertices
    ``fv`` and ``fw`` of V and W, and the tallies ``tv`` and ``tw`` of their
    pure cycle lengths.  Classes matching the same keys get the same
    verdict object."""
    if r == 1:
        # The identity is induced by the identity homeomorphism, which is
        # orientation-preserving; with every vertex fixed it is reported
        # under case 2.  No orientation-reversing realization: r = 1 is odd.
        return _IDENTITY
    if mixed is not None:
        # r and the mixed cycles read the same with the parts interchanged
        key = tuple(_swapping_cases(r, mixed)), ()
    else:
        ev = {k: c for k, c in tv.items() if k != r}
        ew = {k: c for k, c in tw.items() if k != r}
        key = (
            tuple(_preserving_cases(r, n, fv, fw, tv, tw, ev, ew)),
            tuple(_preserving_cases(r, m, fw, fv, tw, tv, ew, ev)),
        )
    return _VERDICTS.get(key) or _verdict(key)


def classify(sig: CycleSignature) -> RealizabilityVerdict:
    """Match a cycle signature against all thirteen cases.

    Requires n > 2 and m > 2 (OutOfTheoremScope otherwise).  The returned
    case lists are sorted by case number; for a case matching both directly
    and with parts interchanged, the direct match is kept.
    """
    n, m = sig.shape.n, sig.shape.m
    if n <= 2 or m <= 2:
        raise OutOfTheoremScope(f"classification requires n, m > 2; got ({n}, {m})")
    if sig.side_action is SideAction.SWAPPING:
        return _decide(sig.r, _tally(sig.mixed_cycles))
    tv, tw = _tally(sig.pure_v_cycles), _tally(sig.pure_w_cycles)
    return _decide(sig.r, None, n, m, sig.fixed_v, sig.fixed_w, tv, tw)


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
