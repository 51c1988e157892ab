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
    SubdividedGraph,
    VertexId,
    automorphism_count,
    compose,
    enumerate_automorphisms,
    identity_automorphism,
    interchange_parts,
    inverse,
    make_automorphism,
    parse_cycles,
    power,
    signature,
)
from .errors import (
    BipsymError,
    DuplicateVertex,
    MixedParts,
    NotBijective,
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
    "FixedSetDescriptor": "geometry",
    "FixedSetKind": "geometry",
    "Isometry4": "geometry",
    "IsometryOrientation": "geometry",
    "SpatialEmbedding": "geometry",
    "fixed_set": "geometry",
    "glide_isometry": "geometry",
    "improper_isometry": "geometry",
    "realize": "geometry",
    "reflection_isometry": "geometry",
    "rotation_isometry": "geometry",
    "CheckResult": "verifier",
    "RealizationCertificate": "verifier",
    "smith_check": "verifier",
    "two_circle_check": "verifier",
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
    "FixedSetDescriptor",
    "FixedSetKind",
    "Isometry4",
    "IsometryOrientation",
    "MixedParts",
    "NotBijective",
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
    "SubdividedGraph",
    "SwapOnUnequalParts",
    "TooLarge",
    "VertexId",
    "automorphism_count",
    "census",
    "classify",
    "classify_aut",
    "compose",
    "enumerate_automorphisms",
    "fixed_set",
    "glide_isometry",
    "identity_automorphism",
    "improper_isometry",
    "interchange_parts",
    "inverse",
    "make_automorphism",
    "parse_cycles",
    "power",
    "realize",
    "reflection_isometry",
    "rotation_isometry",
    "signature",
    "smith_check",
    "two_circle_check",
    "verify",
]
