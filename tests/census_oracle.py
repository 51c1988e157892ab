"""Per-automorphism realize-all count, kept as a differential oracle.

This is the loop that ``bipsym.census.census`` ran with ``realize_all``
before it realized one representative per conjugacy class: it enumerates
every automorphism, classifies it, and realizes and verifies it in each
orientation the classifier marks realizable.  Nothing under ``src/`` calls
it; tests require the class-based count to equal its count.
"""

from __future__ import annotations

from bipsym.classifier import classify
from bipsym.core import (
    DEFAULT_ENUMERATION_CAP,
    BipartiteShape,
    enumerate_automorphisms,
    signature,
)
from bipsym.geometry import realize
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
