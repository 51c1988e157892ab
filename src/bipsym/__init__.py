"""Symmetries of complete bipartite graphs embedded in S^3.

Decide which automorphisms of K_{n,m} (n, m > 2) are induced by
orientation-preserving or orientation-reversing homeomorphisms of some
embedding of the graph in the 3-sphere, construct an explicit realizing
isometry with vertex coordinates, and verify the result numerically.
"""

import importlib

from ._version import __version__
from .census import CensusReport, census
from .classifier import (
    CaseId,
    Orientation,
    RealizabilityVerdict,
    classify,
    classify_aut,
)
from .core import (
    BipartiteAutomorphism,
    BipartiteShape,
    CycleSignature,
    Part,
    SideAction,
    VertexId,
    automorphism_count,
    enumerate_automorphisms,
    parse_cycles,
    signature,
)
from .errors import (
    BipsymError,
    DuplicateVertex,
    MixedParts,
    NotRealizable,
    OrderMismatch,
    OutOfTheoremScope,
    ParseError,
    PlacementFailure,
    PreconditionError,
    ShapeMismatch,
    SwapOnUnequalParts,
    TooLarge,
)

# geometry and verifier need numpy, which classification and censuses never
# touch, so their names are imported on first access (PEP 562) and cached
_LAZY = {
    "Isometry4": "geometry",
    "SpatialEmbedding": "geometry",
    "glide_isometry": "geometry",
    "improper_isometry": "geometry",
    "realize": "geometry",
    "reflection_isometry": "geometry",
    "rotation_isometry": "geometry",
    "CheckResult": "verifier",
    "RealizationCertificate": "verifier",
    "verify": "verifier",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "__version__",
    "BipartiteAutomorphism",
    "BipartiteShape",
    "BipsymError",
    "CaseId",
    "CensusReport",
    "CheckResult",
    "CycleSignature",
    "DuplicateVertex",
    "Isometry4",
    "MixedParts",
    "NotRealizable",
    "OrderMismatch",
    "Orientation",
    "OutOfTheoremScope",
    "ParseError",
    "Part",
    "PlacementFailure",
    "PreconditionError",
    "RealizabilityVerdict",
    "RealizationCertificate",
    "ShapeMismatch",
    "SideAction",
    "SpatialEmbedding",
    "SwapOnUnequalParts",
    "TooLarge",
    "VertexId",
    "automorphism_count",
    "census",
    "classify",
    "classify_aut",
    "enumerate_automorphisms",
    "glide_isometry",
    "improper_isometry",
    "parse_cycles",
    "realize",
    "reflection_isometry",
    "rotation_isometry",
    "signature",
    "verify",
]
