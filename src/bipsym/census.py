"""Censuses of Aut(K_{n,m}) by classification case.

The classifier's input, the cycle signature, is constant on each conjugacy
class of Aut(K_{n,m}), so a census counts classes instead of enumerating
the n!*m! automorphisms.  A part-preserving class is a pair of cycle types
(lambda of n, mu of m) of size n!*m!/(z_lambda*z_mu); for n = m a
part-swapping class is the cycle type lambda of its return map V -> W -> V,
whose cycles are the mixed cycles 2*lambda, of size n!*n!/z_lambda.  Here
z_lambda = prod k^{j_k} * j_k! is the centralizer order of a permutation
with j_k cycles of length k.  For n = m, Aut(K_{n,n}) also holds the part
swap, which conjugates (lambda, mu) into (mu, lambda), so the two are one
class, of twice that size when lambda != mu; ``candidate_classes`` yields
it once, as the member with lambda >= mu.  Its case labels are those of
(mu, lambda) too, because ``classify`` matches both orientations and a
label does not say which one matched.

Few classes are realizable, so the census does not build all p(n)*p(m)
(+ p(n)) of them.  It reads the case table the other way round: the
generator of each case in ``classifier.CASES`` yields the classes whose
signature can match it, directly or with the parts interchanged, and the
census decides each candidate once, with the decision ``classify`` makes.
A candidate's cycle types are run tuples ((k, j_k), ...), lengths strictly
decreasing, so no partition is spelled out part by part, and the
generators read divisors from one table that ``candidate_classes`` sieves
for the call.  The candidates share far fewer cycle types than they have
pairs, so the census works per cycle type: each one the candidates use
gets one row, for this census only, read straight from its runs, with its
class size n!/z_lambda in its own symmetric group, its lcm, its fixed
points and the tally of its cycle lengths other than 1.  A candidate is
decided from the tallies of its two rows, with r the lcm of their lcms,
and no signature is built; a part swap (lambda, None) has r twice the lcm
of lambda and its mixed cycles tally 2k for each k-cycle of lambda and 2
for each fixed point.  The tallies are grouped sums: ``_decide`` gives all
classes that match the same cases one verdict object, and the census
keeps, per verdict and per V-side class size n!/z_lambda, the running sum
of the realizable classes' W-side sizes (m!/z_mu, doubled for a folded
pair, n! for the V -> W half of a part swap).  Each group then costs one
product of big integers, each verdict's total is added once to its case
labels, and ``unrealizable_op`` and ``unrealizable_or`` are the group
order minus the realizable totals.

With ``realize_all`` the census builds one representative of each
realizable class from its two run tuples, realizes it from the order and
the case it decided the class with, once per realizable orientation,
verifies it, and counts the whole class when its certificate passes; it
builds no signature.  One representative speaks for its class because, if
(M, x) realizes a, then (M, x o s^-1) realizes s a s^-1 for every
automorphism s, a part-swapping s included, and every check of ``verify``
keeps its result when the vertices are relabeled.  Many classes get the
same isometry (every case-2/3 class of order r gets the same rotation), and
verify's checks of the isometry alone (orthogonal, order, orientation, the
powers M^d and their fixed subspaces) read only its matrix, claimed order
and orientation, and tol.  So the census verifies through one table per
call keyed by those (``verifier._IsometryTable``), makes each entry on first
use, and runs only the point checks per (class, orientation): every
certificate keeps its bits, and the table is freed when the census returns.

The package re-exports the function ``census`` under this module's name,
so ``bipsym.census`` and ``import bipsym.census as c`` give the function.
The module, whose bounds MAX_CENSUS_PART and MAX_REALIZE_ALL_PART a caller
may read or set, is ``importlib.import_module("bipsym.census")``; ``from
bipsym.census import MAX_CENSUS_PART`` reads a bound as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._version import __version__
from .classifier import _decide, candidate_classes
from .core import BipartiteAutomorphism, BipartiteShape, automorphism_count
from .errors import OutOfTheoremScope, TooLarge

# census() refuses parts larger than these before any work.  The plain census
# decides only the case generators' candidates, whose number depends on the
# divisors of n and m: K_{360,360}, the slowest square shape within the
# bound, takes about 0.35-0.5 s from the CLI on 2 CPUs, and the slowest
# shapes, K_{360,396} and K_{360,408}, whose candidates do not fold, about
# 0.55-0.9 s.  Past 419, K_{360,420} and K_{420,432} take about as long
# (0.6-0.7 s), but non-square shapes past it are not yet scanned, so the
# bound stays below 420.  Realize-all also realizes and verifies one
# representative per realizable (class, orientation), and the divisors of n
# and m set its cost too.  From the CLI on 2 CPUs, with each isometry's
# checks shared per call and placement's per-orbit cost cut, the slowest
# shapes are K_{36,42} (0.45-0.47 s) and K_{40,42} (0.43-0.45 s); the
# slowest with a part of 46 or 47, K_{36,46}, takes 0.35-0.36 s, and K_{47,47}
# 0.16 s.  Past the bound, K_{36,48}, K_{42,48} and K_{48,42} take 0.57-0.6 s,
# slower than any shape within it, so the bound stays at 47 until a scan of
# every shape past it.
MAX_CENSUS_PART = 419
MAX_REALIZE_ALL_PART = 47


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


class _PartitionRows(dict):
    """Cycle type p -> (size, lcm(p), fixed, tally), built on first use and
    kept for one census, read straight from p's run tuple ((k, j_k), ...),
    lengths strictly decreasing.  size = (sum p)!/z_p is the size of its
    class in the symmetric group of its part, with z_p = prod k^{j_k} * j_k!
    the order of the centralizer of a permutation with j_k cycles of length
    k; fixed = j_1, and tally maps each length k > 1 of p to j_k.
    ``factorials`` maps each part size to its factorial."""

    def __init__(self, factorials: dict[int, int]) -> None:
        super().__init__()
        self.factorials = factorials

    def __missing__(self, p: tuple[tuple[int, int], ...]) -> tuple:
        z = 1  # a loop, not math.prod over a generator: rows are built per census
        size = 0
        for k, j in p:
            z *= k**j * math.factorial(j)
            size += k * j
        tally = dict(p)
        fixed = tally.pop(1, 0)
        row = self[p] = (self.factorials[size] // z, math.lcm(*tally), fixed, tally)
        return row


def _representative(
    shape: BipartiteShape,
    lam: tuple[tuple[int, int], ...],
    mu: tuple[tuple[int, int], ...] | None,
) -> BipartiteAutomorphism:
    """One automorphism of the class (lam, mu) of run tuples, or of the
    part-swapping class (lam, None) whose mixed cycles are 2*lam.

    Cycles run shortest first.  Pure cycles run over consecutive indices of
    their part, from v1 and w1 on; the remaining vertices are fixed.  A
    mixed cycle of length 2k is (v_a w_a v_{a+1} w_{a+1} ... v_{a+k-1}
    w_{a+k-1}), the next one starting at v_{a+k}.
    """
    n = shape.n
    perm = list(range(shape.size))
    if mu is None:
        a = 0
        for k in [k for k, j in reversed(lam) for _ in range(j)]:
            for i in range(a, a + k):
                perm[i] = n + i
                perm[n + i] = i + 1
            perm[n + a + k - 1] = a
            a += k
    else:
        for start, runs in ((0, lam), (n, mu)):
            for length in [k for k, j in reversed(runs) if k > 1 for _ in range(j)]:
                last = start + length - 1
                perm[start:last] = range(start + 1, last + 1)
                perm[last] = start
                start += length
    return BipartiteAutomorphism(shape, tuple(perm))


def census(
    shape: BipartiteShape,
    realize_all: bool = False,
    seed: int = 1,
) -> CensusReport:
    """Classify every automorphism of K_{n,m} and tally the matched cases.

    The tally is counted per conjugacy class over the candidates of
    :func:`~bipsym.classifier.candidate_classes`, which include every
    realizable class, with (lambda, mu) and (mu, lambda) one candidate when
    n = m.  Each cycle type's class size, lcm, fixed points and tally of
    cycle lengths are computed once per call, and each candidate is decided
    from the tallies of its two cycle types.  The realizable classes are
    summed in groups of one verdict and one V-side class size: each group
    adds up its W-side class sizes and makes one product, and each
    verdict's total goes once to its cases; ``unrealizable_op`` and
    ``unrealizable_or`` are the total minus the realizable totals.  With
    ``realize_all``, additionally realize (with ``seed``) and verify one
    representative of every class in each orientation the classifier marks
    realizable; ``realized_verified`` is the summed size of the classes
    whose representative's certificate passed, once per orientation.  The
    checks of each distinct isometry (matrix bytes, claimed order,
    orientation) are made once per call and shared by the certificates
    that use it, which keep the bits of a fresh ``verify``.
    Deterministic given (shape, seed).  Raises TooLarge, before any work,
    when n or m exceeds MAX_CENSUS_PART, or MAX_REALIZE_ALL_PART with
    ``realize_all``.
    """
    n, m = shape.n, shape.m
    if n <= 2 or m <= 2:
        raise OutOfTheoremScope(f"census requires n, m > 2; got ({n}, {m})")
    bound = MAX_REALIZE_ALL_PART if realize_all else MAX_CENSUS_PART
    if max(n, m) > bound:
        raise TooLarge(
            f"census of K_{{{n},{m}}}: a part has more than {bound} vertices"
        )
    if realize_all:
        from .geometry import _realize
        from .verifier import _certify, _IsometryTable

        isometries = _IsometryTable()

    factorials = {n: math.factorial(n), m: math.factorial(m)}
    rows = _PartitionRows(factorials)
    total = automorphism_count(shape)
    # id(verdict) -> (verdict, {size_v: summed size_w}) over the realizable
    # classes; _decide gives each set of case keys one verdict object
    groups: dict[int, tuple] = {}
    realized_verified = 0 if realize_all else None
    for lam, mu in candidate_classes(shape):
        size_v, lcm_v, fixed_v, tally_v = rows[lam]
        if mu is None:
            # n! choices of the V -> W half for each return map, whose
            # k-cycles are the mixed 2k-cycles
            size_w = factorials[n]
            r = 2 * lcm_v
            mixed = {2 * k: j for k, j in tally_v.items()}
            if fixed_v:
                mixed[2] = fixed_v
            verdict = _decide(r, mixed)
        else:
            size_w, lcm_w, fixed_w, tally_w = rows[mu]
            r = math.lcm(lcm_v, lcm_w)
            verdict = _decide(r, None, n, m, fixed_v, fixed_w, tally_v, tally_w)
            if n == m and mu != lam:
                size_w *= 2  # the class of (mu, lam) as well
        if not (verdict.op_cases or verdict.or_cases):
            continue
        group = groups.get(id(verdict))
        if group is None:
            group = groups[id(verdict)] = (verdict, {})
        sums = group[1]
        sums[size_v] = sums.get(size_v, 0) + size_w
        if realize_all:
            count = size_v * size_w
            rep = _representative(shape, lam, mu)
            for case in verdict.op_cases[:1] + verdict.or_cases[:1]:
                iso, emb = _realize(rep, r, case, seed)
                if _certify(rep, iso, emb, 1e-9, isometries).overall:
                    realized_verified += count

    per_case: dict[str, int] = {}
    realizable_op = 0
    realizable_or = 0
    for verdict, sums in groups.values():
        count = 0
        for size_v, size_w in sums.items():
            count += size_v * size_w
        for case in verdict.op_cases + verdict.or_cases:
            per_case[case.label] = per_case.get(case.label, 0) + count
        if verdict.op_cases:
            realizable_op += count
        if verdict.or_cases:
            realizable_or += count

    return CensusReport(
        shape=shape,
        total=total,
        per_case=dict(sorted(per_case.items())),
        unrealizable_op=total - realizable_op,
        unrealizable_or=total - realizable_or,
        realized_verified=realized_verified,
        tool_version=__version__,
        seed=seed,
    )
