"""VertexId-based parser, validator and signature, kept as a differential oracle.

These are the versions of ``parse_cycles``, ``make_automorphism`` and
``signature`` that worked on ``VertexId`` values: the parser builds a
``dict[VertexId, VertexId]`` and validates it through ``make_automorphism``,
and ``signature`` reads the part of every vertex of every cycle.  The vertex
token reader and the cycle walk they called are copied with them, so the
oracle shares no code with the index-based versions in ``bipsym.core`` and
``automorphism_ops``; it takes only the ``NotBijective`` exception from the
latter.  Nothing under ``src/`` calls it; tests require equal results, or the same
exception type and message.
"""

from __future__ import annotations

import math
import re
from typing import Mapping

from bipsym.core import (
    BipartiteAutomorphism,
    BipartiteShape,
    CycleSignature,
    Part,
    VertexId,
)
from bipsym.errors import (
    DuplicateVertex,
    MixedParts,
    ParseError,
    SwapOnUnequalParts,
)

from automorphism_ops import NotBijective


def _from_label(label: str) -> VertexId:
    m = re.fullmatch(r"([vwVW])(\d+)", label.strip())
    if m is None:
        raise ParseError(f"not a vertex token: {label!r}")
    return VertexId(Part(m.group(1).lower()), int(m.group(2)))


def _cycles(aut: BipartiteAutomorphism) -> tuple[tuple[VertexId, ...], ...]:
    out = []
    seen = [False] * len(aut.perm)
    for start in range(len(aut.perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        g = aut.perm[start]
        while g != start:
            seen[g] = True
            cyc.append(g)
            g = aut.perm[g]
        if len(cyc) > 1:
            out.append(tuple(aut.shape.vertex_at(g) for g in cyc))
    return tuple(out)


def make_automorphism(
    shape: BipartiteShape, image: Mapping[VertexId, VertexId]
) -> BipartiteAutomorphism:
    perm = [-1] * shape.size
    for v in shape.vertices():
        img = image.get(v)
        if img is None:
            raise NotBijective(f"image not defined for vertex {v.label}")
        if not shape.contains(img):
            raise NotBijective(f"image {img.label} of {v.label} is out of range")
        perm[shape.global_index(v)] = shape.global_index(img)

    v_parts = {image[VertexId(Part.V, i)].part for i in range(1, shape.n + 1)}
    w_parts = {image[VertexId(Part.W, j)].part for j in range(1, shape.m + 1)}
    if len(v_parts) > 1:
        raise MixedParts("mapping sends V to both parts")
    if v_parts == {Part.W}:
        if shape.n != shape.m:
            raise SwapOnUnequalParts(
                f"mapping swaps parts but n={shape.n} != m={shape.m}"
            )
        if w_parts != {Part.V}:
            raise MixedParts("V maps to W but W does not map back to V")
    elif w_parts != {Part.W}:
        raise MixedParts("W maps to V but V does not map to W")

    if len(set(perm)) != shape.size:
        raise NotBijective("mapping is not injective on the vertex set")
    return BipartiteAutomorphism(shape, tuple(perm))


_TOKEN_RE = re.compile(r"[vwVW]\d+")


def parse_cycles(shape: BipartiteShape, text: str) -> BipartiteAutomorphism:
    rest = text
    groups: list[list[str]] = []
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
        tokens = body.replace(",", " ").split()
        for t in tokens:
            if not _TOKEN_RE.fullmatch(t):
                raise ParseError(f"not a vertex token: {t!r}")
        groups.append(tokens)
        pos = end + 1

    mapping: dict[VertexId, VertexId] = {}
    seen: set[VertexId] = set()
    for tokens in groups:
        ids = [_from_label(t) for t in tokens]
        for v in ids:
            if not shape.contains(v):
                raise ParseError(
                    f"vertex {v.label} out of range for K_{{{shape.n},{shape.m}}}"
                )
            if v in seen:
                raise DuplicateVertex(f"vertex {v.label} listed twice")
            seen.add(v)
        for a, b in zip(ids, ids[1:] + ids[:1]):
            mapping[a] = b
    for v in shape.vertices():
        mapping.setdefault(v, v)
    return make_automorphism(shape, mapping)


def signature(aut: BipartiteAutomorphism) -> CycleSignature:
    pure_v: list[int] = []
    pure_w: list[int] = []
    mixed: list[int] = []
    for cyc in _cycles(aut):
        parts = {v.part for v in cyc}
        if parts == {Part.V}:
            pure_v.append(len(cyc))
        elif parts == {Part.W}:
            pure_w.append(len(cyc))
        else:
            mixed.append(len(cyc))
    fixed = tuple(aut.shape.vertex_at(g) for g, p in enumerate(aut.perm) if p == g)
    fixed_v = sum(1 for v in fixed if v.part is Part.V)
    fixed_w = len(fixed) - fixed_v
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
