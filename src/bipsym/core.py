"""Vertices, automorphisms and cycle signatures of complete bipartite graphs.

A K_{n,m} has vertex parts V = {v1..vn} and W = {w1..wm}.  An automorphism
is stored as a permutation of global indices 0..n+m-1 where 0..n-1 are
v1..vn and n..n+m-1 are w1..wm.  Parsing, validation and cycle
decomposition work on those indices alone; ``VertexId`` appears only at the
API boundary, where a caller passes or asks for vertices.  Every value here
is immutable; all operations are pure functions.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

from .errors import (
    DuplicateVertex,
    MixedParts,
    ParseError,
    SwapOnUnequalParts,
    TooLarge,
)

DEFAULT_ENUMERATION_CAP = 10_000_000
# parse_cycles builds a list of n + m indices; larger shapes raise TooLarge
MAX_VERTICES = 100_000
# one vertex token: a part letter and a 1-based index
_TOKEN_RE = re.compile(r"([vwVW])(\d+)")


class Part(Enum):
    V = "v"
    W = "w"

    def __lt__(self, other: "Part") -> bool:  # V sorts before W
        return self.value < other.value


class SideAction(Enum):
    PRESERVING = "preserving"
    SWAPPING = "swapping"


class VertexId(NamedTuple):
    part: Part
    index: int  # 1-based within its part

    @property
    def label(self) -> str:
        return f"{self.part.value}{self.index}"

    @staticmethod
    def from_label(label: str) -> "VertexId":
        m = _TOKEN_RE.fullmatch(label.strip())
        if m is None:
            raise ParseError(f"not a vertex token: {label!r}")
        return VertexId(Part(m.group(1).lower()), int(m.group(2)))


@dataclass(frozen=True)
class BipartiteShape:
    """Sizes (n, m) of the two vertex parts of K_{n,m}."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"part sizes must be at least 1, got ({self.n}, {self.m})")

    @property
    def size(self) -> int:
        return self.n + self.m

    def vertices(self) -> Iterator[VertexId]:
        yield from map(VertexId, itertools.repeat(Part.V), range(1, self.n + 1))
        yield from map(VertexId, itertools.repeat(Part.W), range(1, self.m + 1))

    def contains(self, v: VertexId) -> bool:
        bound = self.n if v.part is Part.V else self.m
        return 1 <= v.index <= bound

    def global_index(self, v: VertexId) -> int:
        if not self.contains(v):
            raise ValueError(f"vertex {v.label} out of range for K_{{{self.n},{self.m}}}")
        return v.index - 1 if v.part is Part.V else self.n + v.index - 1

    def vertex_at(self, g: int) -> VertexId:
        if not 0 <= g < self.size:
            raise ValueError(f"global index {g} out of range")
        if g < self.n:
            return VertexId(Part.V, g + 1)
        return VertexId(Part.W, g - self.n + 1)


@dataclass(frozen=True)
class BipartiteAutomorphism:
    """A validated automorphism of K_{n,m}: it fixes the parts setwise or swaps them."""

    shape: BipartiteShape
    perm: tuple[int, ...]  # perm[g] = global index of the image of vertex g

    def __call__(self, v: VertexId) -> VertexId:
        return self.shape.vertex_at(self.perm[self.shape.global_index(v)])

    @property
    def side_action(self) -> SideAction:
        if self.perm[0] < self.shape.n:
            return SideAction.PRESERVING
        return SideAction.SWAPPING

    def is_identity(self) -> bool:
        return all(p == g for g, p in enumerate(self.perm))

    def cycles(self) -> tuple[tuple[VertexId, ...], ...]:
        """Non-trivial cycles as vertex tuples, each starting at its smallest
        global index, sorted by that index.  Fixed vertices are omitted."""
        vertex_at = self.shape.vertex_at
        return tuple(
            tuple(vertex_at(g) for g in cyc) for cyc in _index_cycles(self.perm)
        )

    def order(self) -> int:
        return math.lcm(*(len(c) for c in _index_cycles(self.perm)), 1)

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(v.label for v in c) + ")" for c in cycs)

    def __str__(self) -> str:
        return self.cycle_string()


def _index_cycles(perm: tuple[int, ...]) -> list[list[int]]:
    """Non-trivial cycles of ``perm`` as index lists, each starting at its
    smallest index, sorted by that index."""
    out = []
    seen = [False] * len(perm)
    for start, g in enumerate(perm):
        if g == start or seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        while g != start:
            seen[g] = True
            cyc.append(g)
            g = perm[g]
        out.append(cyc)
    return out


def _check_parts(shape: BipartiteShape, perm: list[int]) -> None:
    """Raise MixedParts or SwapOnUnequalParts unless ``perm`` (images in
    range) fixes both parts setwise or swaps them."""
    n = shape.n
    v_lo, v_hi = min(perm[:n]), max(perm[:n])
    if v_lo < n <= v_hi:
        raise MixedParts("mapping sends V to both parts")
    if v_lo >= n:
        if n != shape.m:
            raise SwapOnUnequalParts(
                f"mapping swaps parts but n={n} != m={shape.m}"
            )
        if max(perm[n:]) >= n:
            raise MixedParts("V maps to W but W does not map back to V")
    elif min(perm[n:]) < n:
        raise MixedParts("W maps to V but V does not map to W")


def parse_cycles(shape: BipartiteShape, text: str) -> BipartiteAutomorphism:
    """Parse cycle notation like ``(v1 v2 v3)(w1 w2)``.

    Tokens are v1..vn / w1..wm, whitespace separated inside parentheses;
    vertices not listed are fixed.  Raises TooLarge, before reading the
    text, when n + m exceeds MAX_VERTICES.
    """
    n, m = shape.n, shape.m
    if n + m > MAX_VERTICES:
        raise TooLarge(
            f"K_{{{n},{m}}} has {n + m} vertices, more than {MAX_VERTICES}"
        )
    rest = text
    groups: list[list[re.Match]] = []
    pos = 0
    while pos < len(rest):
        ch = rest[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise ParseError(f"unexpected character {ch!r} at position {pos}")
        end = rest.find(")", pos)
        if end < 0:
            raise ParseError("unbalanced parenthesis")
        body = rest[pos + 1 : end]
        if "(" in body:
            raise ParseError("nested parenthesis")
        tokens = []
        for t in body.replace(",", " ").split():
            match = _TOKEN_RE.fullmatch(t)
            if match is None:
                raise ParseError(f"not a vertex token: {t!r}")
            tokens.append(match)
        groups.append(tokens)
        pos = end + 1

    perm = list(range(n + m))
    seen: set[int] = set()
    for tokens in groups:
        # int() of a whole group first: an over-long index fails before any range check
        cyc = [int(t[2]) for t in tokens]
        for k, t in enumerate(tokens):
            i = cyc[k]
            if t[1] in "vV":
                if not 0 < i <= n:
                    raise ParseError(f"vertex v{i} out of range for K_{{{n},{m}}}")
                g = i - 1
            else:
                if not 0 < i <= m:
                    raise ParseError(f"vertex w{i} out of range for K_{{{n},{m}}}")
                g = n + i - 1
            if g in seen:
                raise DuplicateVertex(f"vertex {t[1].lower()}{i} listed twice")
            seen.add(g)
            cyc[k] = g
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    _check_parts(shape, perm)
    return BipartiteAutomorphism(shape, tuple(perm))


@dataclass(frozen=True)
class CycleSignature:
    """Cycle structure of an automorphism; the classifier's sole input.

    Cycle-length multisets are stored as sorted tuples, split by which parts
    the cycle visits.  Fixed vertices are counted separately, and r is the
    lcm of all cycle lengths (fixed vertices counting as 1-cycles).
    """

    shape: BipartiteShape
    side_action: SideAction
    r: int
    fixed_v: int
    fixed_w: int
    pure_v_cycles: tuple[int, ...]
    pure_w_cycles: tuple[int, ...]
    mixed_cycles: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("pure_v_cycles", "pure_w_cycles", "mixed_cycles"):
            object.__setattr__(self, name, tuple(sorted(getattr(self, name))))
        if self.side_action is SideAction.SWAPPING and (
            self.fixed_v or self.fixed_w or self.pure_v_cycles or self.pure_w_cycles
        ):
            raise ValueError("a part-swapping automorphism has only mixed cycles")
        # a mixed cycle alternates between the parts, so half of it lies in V
        mixed = sum(self.mixed_cycles)
        if 2 * (self.shape.n - self.fixed_v - sum(self.pure_v_cycles)) != mixed or (
            2 * (self.shape.m - self.fixed_w - sum(self.pure_w_cycles)) != mixed
        ):
            raise ValueError("the fixed vertices and cycles do not cover n and m")
        if self.r != math.lcm(
            1, *self.pure_v_cycles, *self.pure_w_cycles, *self.mixed_cycles
        ):
            raise ValueError("r is not the lcm of the cycle lengths")


def signature(aut: BipartiteAutomorphism) -> CycleSignature:
    """Decompose into cycles and classify each as pure-V, pure-W, or mixed."""
    perm = aut.perm
    n = aut.shape.n
    pure_v: list[int] = []
    pure_w: list[int] = []
    mixed: list[int] = []
    for cyc in _index_cycles(perm):
        if cyc[0] >= n:  # cyc[0] is the smallest index
            pure_w.append(len(cyc))
        elif max(cyc) < n:
            pure_v.append(len(cyc))
        else:
            mixed.append(len(cyc))
    fixed_v = sum(1 for g in range(n) if perm[g] == g)
    fixed_w = sum(1 for g in range(n, len(perm)) if perm[g] == g)
    return CycleSignature(
        shape=aut.shape,
        side_action=aut.side_action,
        r=math.lcm(*pure_v, *pure_w, *mixed, 1),
        fixed_v=fixed_v,
        fixed_w=fixed_w,
        pure_v_cycles=tuple(pure_v),
        pure_w_cycles=tuple(pure_w),
        mixed_cycles=tuple(mixed),
    )


def automorphism_count(shape: BipartiteShape) -> int:
    base = math.factorial(shape.n) * math.factorial(shape.m)
    return 2 * base if shape.n == shape.m else base


def enumerate_automorphisms(
    shape: BipartiteShape, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[BipartiteAutomorphism]:
    """Stream every automorphism of K_{n,m} exactly once.

    Order is lexicographic over (V-permutation, W-permutation, swap-flag),
    the swap flag varying fastest.  Raises TooLarge, before the first
    automorphism, when n!*m! exceeds cap: the product is built factor by
    factor and abandoned once it passes cap, so a huge shape fails after at
    most log2(cap) + 1 multiplications.
    """
    factors = itertools.chain(range(2, shape.n + 1), range(2, shape.m + 1))
    pairs = 1
    while pairs <= cap:
        k = next(factors, None)
        if k is None:
            return _enumerate(shape)
        pairs *= k
    raise TooLarge(f"n!*m! for K_{{{shape.n},{shape.m}}} exceeds cap {cap}")


def _enumerate(shape: BipartiteShape) -> Iterator[BipartiteAutomorphism]:
    n, m = shape.n, shape.m
    swap = n == m
    for vp in itertools.permutations(range(n)):
        for wp in itertools.permutations(range(m)):
            yield BipartiteAutomorphism(shape, vp + tuple(n + j for j in wp))
            if swap:
                yield BipartiteAutomorphism(
                    shape, tuple(n + i for i in vp) + tuple(wp)
                )
