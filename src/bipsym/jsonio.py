"""Canonical JSON serialization for all external interfaces.

Output is byte-deterministic: UTF-8, keys sorted, floats rendered with 17
significant digits.  The schemas here are the wire formats of the CLI
(classify verdicts, realizations, certificates, census reports).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any

import numpy as np

from .classifier import RealizabilityVerdict
from .core import BipartiteAutomorphism, BipartiteShape, VertexId, parse_cycles
from .errors import ParseError
from .geometry import Isometry4, IsometryOrientation, SpatialEmbedding


def _encode(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            raise ValueError("non-finite float in canonical JSON")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key)}")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _encode(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _encode(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def canonical_json(obj: Any) -> str:
    out: list[str] = []
    _encode(obj, out)
    return "".join(out)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` so that readers see either the old
    file or the complete new one: a temporary file in the same directory is
    written, then renamed over ``path``.

    The rename makes the write atomic for readers, not durable across a
    crash; there is no fsync, which would block each write until the disk
    confirms it.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    # mode 0o666 lets the umask decide permissions, as open() would
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


# --- verdicts ----------------------------------------------------------------


def verdict_to_obj(verdict: RealizabilityVerdict) -> dict:
    def side(cases):
        return {
            "realizable": bool(cases),
            "cases": [c.label for c in cases],
            "interchanged": {c.label: c.interchanged for c in cases},
        }

    return {"op": side(verdict.op_cases), "or": side(verdict.or_cases)}


# --- automorphisms -----------------------------------------------------------


def automorphism_to_obj(aut: BipartiteAutomorphism) -> dict:
    return {"n": aut.shape.n, "m": aut.shape.m, "perm": aut.cycle_string()}


def automorphism_from_obj(obj: dict) -> BipartiteAutomorphism:
    try:
        shape = BipartiteShape(int(obj["n"]), int(obj["m"]))
        perm = obj["perm"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad automorphism object: {exc}") from exc
    return parse_cycles(shape, perm)


# --- realizations ------------------------------------------------------------

_ORIENT_TO_JSON = {
    IsometryOrientation.PRESERVING: "op",
    IsometryOrientation.REVERSING: "or",
}
_ORIENT_FROM_JSON = {v: k for k, v in _ORIENT_TO_JSON.items()}


def realization_to_obj(
    aut: BipartiteAutomorphism,
    iso: Isometry4,
    emb: SpatialEmbedding,
    case_label: str,
    seed: int,
) -> dict:
    return {
        "n": aut.shape.n,
        "m": aut.shape.m,
        "perm": aut.cycle_string(),
        "case": case_label,
        "seed": seed,
        "order": iso.claimed_order,
        "orientation": _ORIENT_TO_JSON[iso.orientation],
        "matrix": [[float(x) for x in row] for row in iso.matrix],
        "vertices": {
            v.label: [float(x) for x in p] for v, p in emb.coordinates.items()
        },
        "subdivision": {
            z: {
                "edge": [emb.subdivision_edges[z][0].label,
                         emb.subdivision_edges[z][1].label],
                "point": [float(x) for x in p],
            }
            for z, p in emb.subdivision_coordinates.items()
        },
        "landmarks": dict(emb.landmarks),
    }


def realization_from_obj(
    obj: dict,
) -> tuple[BipartiteAutomorphism, Isometry4, SpatialEmbedding]:
    """Rebuild a realization; geometric validity is left to the verifier."""
    try:
        aut = automorphism_from_obj(obj)
        matrix = np.array(obj["matrix"], dtype=float)
        if matrix.shape != (4, 4):
            raise ParseError(f"matrix must be 4x4, got {matrix.shape}")
        order = int(obj["order"])
        if order < 1:
            raise ParseError(f"order must be positive, got {order}")
        iso = Isometry4(matrix, order, _ORIENT_FROM_JSON[obj["orientation"]])
        coords = {
            VertexId.from_label(label): np.array(p, dtype=float)
            for label, p in obj["vertices"].items()
        }
        sub_coords = {}
        sub_edges = {}
        for z, rec in obj.get("subdivision", {}).items():
            sub_coords[z] = np.array(rec["point"], dtype=float)
            a, b = (VertexId.from_label(t) for t in rec["edge"])
            sub_edges[z] = (a, b)
        emb = SpatialEmbedding(
            shape=aut.shape,
            coordinates=coords,
            subdivision_coordinates=sub_coords,
            subdivision_edges=sub_edges,
            landmarks=dict(obj.get("landmarks", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad realization object: {exc}") from exc
    if set(coords) != set(aut.shape.vertices()):
        raise ParseError("vertex coordinates do not cover the graph exactly")
    return aut, iso, emb


# --- certificates ------------------------------------------------------------


def certificate_to_obj(cert) -> dict:
    return {
        "overall": cert.overall,
        "checks": [
            {
                "name": c.name,
                "pass": c.passed,
                "detail": c.detail,
                "measured": c.measured,
            }
            for c in cert.checks
        ],
    }
