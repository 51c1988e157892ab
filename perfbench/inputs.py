"""Seeded benchmark inputs: cycle-type classes and random conjugates of them.

Nothing here imports bipsym.  A cycle-type class of Aut(K_{n,m}) is written
as a key string:

* ``"n,m:P:lam:mu"`` part-preserving, ``lam`` the cycle type on V (a
  partition of n, parts joined by ``.``, 1s included) and ``mu`` on W;
* ``"n,n:S:lam"`` part-swapping, ``lam`` the cycle type of the return map
  W -> V -> W, so the automorphism has one mixed 2k-cycle per part k.

Conjugating a class representative by a random pair (sigma_V, sigma_W) gives
a random member of the class; the program receives it in cycle notation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache


@lru_cache(maxsize=None)
def partitions(n: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as non-increasing tuples, in reverse-lex order."""
    largest = n if largest is None else largest
    if n == 0:
        return ((),)
    out = []
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            out.append((k,) + rest)
    return tuple(out)


def _fmt(lam: tuple[int, ...]) -> str:
    return ".".join(str(k) for k in lam)


def class_keys(shapes) -> list[str]:
    """Every cycle-type class key of each shape, in a fixed order."""
    keys = []
    for n, m in shapes:
        for lam in partitions(n):
            for mu in partitions(m):
                keys.append(f"{n},{m}:P:{_fmt(lam)}:{_fmt(mu)}")
        if n == m:
            for lam in partitions(n):
                keys.append(f"{n},{n}:S:{_fmt(lam)}")
    return keys


def certify_shapes() -> list[tuple[int, int]]:
    """3 <= n <= m <= 9: the shapes of the certify_classes workload."""
    return [(n, m) for n in range(3, 10) for m in range(n, 10)]


def cli_shapes() -> list[tuple[int, int]]:
    """3 <= n <= m <= 6: the shapes the cli_oneshot workload draws from."""
    return [(n, m) for n in range(3, 7) for m in range(n, 7)]


@dataclass(frozen=True)
class Conjugate:
    """One member of a class: its cycles as lists of (part, 1-based index)."""

    key: str
    n: int
    m: int
    cycles: tuple[tuple[tuple[str, int], ...], ...]

    def text(self) -> str:
        """Cycle notation in the drawn (random) order, as the program gets it."""
        if not self.cycles:
            return "()"
        return "".join(
            "(" + " ".join(f"{p}{i}" for p, i in c) + ")" for c in self.cycles
        )

    def canonical_text(self) -> str:
        """Cycle notation in bipsym's canonical form: each cycle starts at its
        smallest global index (V before W), cycles sorted by that index."""

        def g(v):
            return v[1] - 1 if v[0] == "v" else self.n + v[1] - 1

        rotated = []
        for c in self.cycles:
            k = min(range(len(c)), key=lambda i: g(c[i]))
            rotated.append(c[k:] + c[:k])
        rotated.sort(key=lambda c: g(c[0]))
        if not rotated:
            return "()"
        return "".join("(" + " ".join(f"{p}{i}" for p, i in c) + ")" for c in rotated)


def parse_key(key: str) -> tuple[int, int, str, tuple[int, ...], tuple[int, ...]]:
    shape, kind, *parts = key.split(":")
    n, m = (int(t) for t in shape.split(","))
    lam = tuple(int(t) for t in parts[0].split("."))
    mu = tuple(int(t) for t in parts[1].split(".")) if kind == "P" else ()
    return n, m, kind, lam, mu


def conjugate(key: str, rng: random.Random) -> Conjugate:
    """A random member of the class ``key``, drawn from ``rng``."""
    n, m, kind, lam, mu = parse_key(key)
    vs = list(range(1, n + 1))
    ws = list(range(1, m + 1))
    rng.shuffle(vs)
    rng.shuffle(ws)
    cycles = []
    if kind == "P":
        for part, labels, sizes in (("v", vs, lam), ("w", ws, mu)):
            pos = 0
            for k in sizes:
                if k > 1:
                    cycles.append(tuple((part, i) for i in labels[pos : pos + k]))
                pos += k
    else:
        pos = 0
        for k in lam:
            cyc = []
            for j in range(pos, pos + k):
                cyc += [("v", vs[j]), ("w", ws[j])]
            cycles.append(tuple(cyc))
            pos += k
    rotated = []
    for c in cycles:
        s = rng.randrange(len(c))
        rotated.append(c[s:] + c[:s])
    rng.shuffle(rotated)
    return Conjugate(key, n, m, tuple(rotated))
