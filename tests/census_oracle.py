"""Census oracles: the computations the census made before it was sped up.

``signature_tallies`` builds the signature (``class_signature``) and class
size (from ``centralizer_order``) of every conjugacy class of S_n x S_m and
of the part-swapping classes of K_{n,n}, from all p(n)*p(m) (+ p(n))
partition pairs, and ``census_report`` classifies every one of them.
``fold`` keys a class as the census's candidates key it, and ``case_keys``
reads the cases a signature matches directly from its verdict.  The census
classifies only the classes the case generators yield; tests require both
to give the same report.  ``realized_verified`` is the per-automorphism
realize-all loop the census ran before it realized one representative per
conjugacy class: it enumerates every automorphism, classifies it, and
realizes and verifies it in each orientation the classifier marks
realizable.  ``signature_representative`` is the representative the census
built from a class's signature before it built one from the class's two
partitions; ``representative`` reaches the census's builder from a
signature, through ``class_of``.  ``per_candidate_census`` is the census
loop before it tallied by grouped sums: it decides the same candidates from
the same rows, and adds one product of two class sizes per realizable
candidate to each of its cases.  Nothing under ``src/`` calls them.

The oracles key a class by expanded partitions, non-increasing tuples of
cycle lengths; the census keys it by run tuples ((k, c), ...).  Tests that
hold the census's candidates, rows or representatives against the oracles
convert between the two only through ``as_runs`` and its inverse
``as_partitions``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterator

from bipsym.census import CensusReport, _PartitionRows, _representative
from bipsym.classifier import _decide, _runs, candidate_classes, classify
from bipsym.core import (
    DEFAULT_ENUMERATION_CAP,
    BipartiteAutomorphism,
    BipartiteShape,
    CycleSignature,
    SideAction,
    automorphism_count,
    enumerate_automorphisms,
    signature,
)
from bipsym.geometry import _realize, realize
from bipsym.verifier import verify


def realized_verified(
    shape: BipartiteShape, seed: int = 1, cap: int = DEFAULT_ENUMERATION_CAP
) -> int:
    """Number of (automorphism, orientation) pairs whose realization verifies."""
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
    return realized_verified


def _partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n as non-increasing tuples, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def classes_of(n: int, m: int) -> list[tuple]:
    """Every class of Aut(K_{n,m}), keyed as the case generators key them:
    (lam, mu), and (lam, None) for a part-swapping class when n = m."""
    classes = [(lam, mu) for lam in _partitions(n) for mu in _partitions(m)]
    if n == m:
        classes += [(lam, None) for lam in _partitions(n)]
    return classes


def centralizer_order(parts: tuple[int, ...]) -> int:
    """z = prod k^{j_k} * j_k!, the order of the centralizer in S_n of a
    permutation with cycle type ``parts``."""
    z = 1
    for k in set(parts):
        j = parts.count(k)
        z *= k**j * math.factorial(j)
    return z


def class_signature(
    shape: BipartiteShape, lam: tuple[int, ...], mu: tuple[int, ...] | None
) -> CycleSignature:
    """The signature of the class (lam, mu), or of the part-swapping class
    (lam, None) whose mixed cycles are 2*lam."""
    if mu is None:
        mixed = tuple(2 * k for k in lam)
        return CycleSignature(
            shape=shape,
            side_action=SideAction.SWAPPING,
            r=math.lcm(*mixed),
            fixed_v=0,
            fixed_w=0,
            pure_v_cycles=(),
            pure_w_cycles=(),
            mixed_cycles=mixed,
        )
    return CycleSignature(
        shape=shape,
        side_action=SideAction.PRESERVING,
        r=math.lcm(*lam, *mu),
        fixed_v=lam.count(1),
        fixed_w=mu.count(1),
        pure_v_cycles=tuple(k for k in lam if k > 1),
        pure_w_cycles=tuple(k for k in mu if k > 1),
        mixed_cycles=(),
    )


def class_of(sig: CycleSignature) -> tuple:
    """The key (lam, mu) of the class with signature ``sig``, or (lam, None)
    for a part-swapping one: the inverse of ``class_signature``."""
    if sig.side_action is SideAction.SWAPPING:
        return tuple(sorted((k // 2 for k in sig.mixed_cycles), reverse=True)), None
    lam = tuple(sorted(sig.pure_v_cycles, reverse=True)) + (1,) * sig.fixed_v
    mu = tuple(sorted(sig.pure_w_cycles, reverse=True)) + (1,) * sig.fixed_w
    return lam, mu


def as_runs(lam: tuple[int, ...], mu: tuple[int, ...] | None) -> tuple:
    """The class (lam, mu) of expanded partitions, or (lam, None), keyed as
    the census keys it: each partition as its run tuple, by
    ``classifier._runs`` of one run per part."""
    return tuple(None if p is None else _runs(*((k, 1) for k in p)) for p in (lam, mu))


def as_partitions(lam: tuple, mu: tuple | None) -> tuple:
    """The inverse of ``as_runs``: each run tuple expanded into its
    non-increasing partition."""
    return tuple(
        None if p is None else tuple(k for k, c in p for _ in range(c)) for p in (lam, mu)
    )


def representative(sig: CycleSignature) -> BipartiteAutomorphism:
    """The census's representative of the class with signature ``sig``."""
    return _representative(sig.shape, *as_runs(*class_of(sig)))


def signature_representative(sig: CycleSignature) -> BipartiteAutomorphism:
    """One automorphism with signature ``sig``, built from the signature.

    Pure cycles run over consecutive indices of their part, from v1 and w1
    on, in the signature's order, shortest first; the remaining vertices are
    fixed.  A mixed cycle of length 2k is (v_a w_a v_{a+1} w_{a+1} ...
    v_{a+k-1} w_{a+k-1}), the next one starting at v_{a+k}.
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


def case_keys(sig: CycleSignature) -> tuple[list[tuple], list[tuple]]:
    """The (number, sub) keys of the cases ``sig`` matches directly, and of
    those it matches only with the parts interchanged, read from the
    interchanged flags of its verdict: ``classify`` reports a case matching
    both ways as a direct match."""
    verdict = classify(sig)
    keys: tuple[list[tuple], list[tuple]] = ([], [])
    for case in verdict.op_cases + verdict.or_cases:
        keys[case.interchanged].append((case.number, case.sub))
    return keys


def fold(n: int, m: int, lam: tuple[int, ...], mu: tuple[int, ...] | None) -> tuple:
    """The key ``candidate_classes`` gives the class (lam, mu) of K_{n,m},
    or the part-swapping class (lam, None).  On K_{n,n} the part swap
    conjugates (lam, mu) into (mu, lam), so the two are one class of
    Aut(K_{n,n}), keyed by its member with lam >= mu; any other key is
    kept as it is."""
    if n == m and mu is not None and lam < mu:
        return mu, lam
    return lam, mu


def signature_tallies(shape: BipartiteShape) -> Counter:
    """Number of automorphisms of K_{n,m} with each cycle signature."""
    n, m = shape.n, shape.m
    pairs = math.factorial(n) * math.factorial(m)
    tally: Counter = Counter()
    for lam, mu in classes_of(n, m):
        z = centralizer_order(lam) * centralizer_order(mu or ())
        tally[class_signature(shape, lam, mu)] += pairs // z
    return tally


def census_report(shape: BipartiteShape) -> CensusReport:
    """The plain census as it was counted over every class of
    :func:`signature_tallies`, realizable or not."""
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
    return CensusReport(
        shape=shape,
        total=automorphism_count(shape),
        per_case=dict(sorted(per_case.items())),
        unrealizable_op=unreal_op,
        unrealizable_or=unreal_or,
    )


def per_candidate_census(
    shape: BipartiteShape, realize_all: bool = False, seed: int = 1
) -> CensusReport:
    """``census(shape, realize_all, seed)`` with its tallies counted one
    candidate at a time: each realizable class adds its size, the product
    of its two class sizes, doubled for a folded pair, to each of its
    cases.  No bound is checked."""
    n, m = shape.n, shape.m
    factorials = {n: math.factorial(n), m: math.factorial(m)}
    rows = _PartitionRows(factorials)
    total = automorphism_count(shape)
    per_case: dict[str, int] = {}
    realizable_op = 0
    realizable_or = 0
    realized_verified = 0 if realize_all else None
    for lam, mu in candidate_classes(shape):
        size_v, lcm_v, fixed_v, tally_v = rows[lam]
        if mu is None:
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
        if not (verdict.op_realizable or verdict.or_realizable):
            continue
        count = size_v * size_w
        if n == m and mu not in (None, lam):
            count *= 2  # the class of (mu, lam) as well
        for case in verdict.op_cases + verdict.or_cases:
            per_case[case.label] = per_case.get(case.label, 0) + count
        if verdict.op_realizable:
            realizable_op += count
        if verdict.or_realizable:
            realizable_or += count
        if realize_all:
            rep = _representative(shape, lam, mu)
            for case in verdict.op_cases[:1] + verdict.or_cases[:1]:
                iso, emb = _realize(rep, r, case, seed)
                if verify(rep, iso, emb, tol=1e-9).overall:
                    realized_verified += count
    return CensusReport(
        shape=shape,
        total=total,
        per_case=dict(sorted(per_case.items())),
        unrealizable_op=total - realizable_op,
        unrealizable_or=total - realizable_or,
        realized_verified=realized_verified,
        seed=seed,
    )
