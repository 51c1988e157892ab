"""Group operations on automorphisms of K_{n,m}, used by the tests only.

The classification depends only on an automorphism's cycle type, so the
library path (parse, ``signature``, ``classify``, ``realize``, ``verify``,
the census over conjugacy classes) never composes, inverts or powers
automorphisms.  The tests do: closure of the verdicts under powers,
inverses and conjugation, and the swap of the parts in a signature.
``make_automorphism`` builds an automorphism from a vertex mapping and
validates it with ``bipsym.core._check_parts``, the rule ``parse_cycles``
applies, so one rule decides which permutations are automorphisms.
"""

from __future__ import annotations

from typing import Mapping

from bipsym.core import (
    BipartiteAutomorphism,
    BipartiteShape,
    CycleSignature,
    VertexId,
    _check_parts,
)
from bipsym.errors import BipsymError, ShapeMismatch


class NotBijective(BipsymError):
    """The vertex mapping is not a bijection on the vertex set."""


def identity_automorphism(shape: BipartiteShape) -> BipartiteAutomorphism:
    return BipartiteAutomorphism(shape, tuple(range(shape.size)))


def make_automorphism(
    shape: BipartiteShape, image: Mapping[VertexId, VertexId]
) -> BipartiteAutomorphism:
    """Validate a vertex mapping and return the automorphism it defines.

    Raises NotBijective, MixedParts, or SwapOnUnequalParts when the mapping
    is not an automorphism of K_{n,m}.
    """
    perm = [-1] * shape.size
    for v in shape.vertices():
        img = image.get(v)
        if img is None:
            raise NotBijective(f"image not defined for vertex {v.label}")
        if not shape.contains(img):
            raise NotBijective(f"image {img.label} of {v.label} is out of range")
        perm[shape.global_index(v)] = shape.global_index(img)
    _check_parts(shape, perm)
    if len(set(perm)) != shape.size:
        raise NotBijective("mapping is not injective on the vertex set")
    return BipartiteAutomorphism(shape, tuple(perm))


def compose(
    a: BipartiteAutomorphism, b: BipartiteAutomorphism
) -> BipartiteAutomorphism:
    """Composition a after b: (compose(a, b))(x) = a(b(x))."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"cannot compose shapes {a.shape} and {b.shape}")
    return BipartiteAutomorphism(a.shape, tuple(a.perm[p] for p in b.perm))


def inverse(a: BipartiteAutomorphism) -> BipartiteAutomorphism:
    inv = [0] * len(a.perm)
    for g, p in enumerate(a.perm):
        inv[p] = g
    return BipartiteAutomorphism(a.shape, tuple(inv))


def power(a: BipartiteAutomorphism, k: int) -> BipartiteAutomorphism:
    if k < 0:
        return power(inverse(a), -k)
    k %= a.order()
    result = identity_automorphism(a.shape)
    base = a
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


def interchange_parts(sig: CycleSignature) -> CycleSignature:
    """The same signature with the roles of V and W exchanged."""
    return CycleSignature(
        shape=BipartiteShape(sig.shape.m, sig.shape.n),
        side_action=sig.side_action,
        r=sig.r,
        fixed_v=sig.fixed_w,
        fixed_w=sig.fixed_v,
        pure_v_cycles=sig.pure_w_cycles,
        pure_w_cycles=sig.pure_v_cycles,
        mixed_cycles=sig.mixed_cycles,
    )
