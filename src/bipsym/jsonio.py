"""Canonical JSON serialization for all external interfaces.

Output is byte-deterministic: UTF-8, keys sorted, floats rendered with 17
significant digits.  The schemas here are the wire formats of the CLI
(classify verdicts, realizations, certificates, census reports).
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .classifier import RealizabilityVerdict
from .core import BipartiteAutomorphism, BipartiteShape, VertexId, parse_cycles
from .errors import ParseError

if TYPE_CHECKING:
    from .geometry import Isometry4, SpatialEmbedding


def _encode(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
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
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _encode(item, out)
        out.append("]")
    else:
        # a numpy value can only exist once something has imported numpy
        np = sys.modules.get("numpy")
        if np is None or not isinstance(obj, (np.integer, np.floating, np.ndarray)):
            raise TypeError(f"cannot serialize {type(obj)}")
        _encode(obj.tolist(), out)


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
    confirms it.  An ``OSError`` names ``path``, not the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        # mode 0o666 lets the umask decide permissions, as open() would
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink()
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


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


def _int_field(obj: dict, key: str) -> int:
    value = obj[key]
    # JSON true is a Python bool, an int subclass; 2.5 must not truncate to 2
    if type(value) is not int:
        raise ParseError(f"{key} must be an integer, got {type(value).__name__}")
    return value


def _as_dict(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be an object, got {type(value).__name__}")
    return value


def _point(value: Any, what: str) -> list[float]:
    """Four finite numbers as floats; ParseError otherwise."""
    if not isinstance(value, list) or len(value) != 4:
        raise ParseError(f"{what} must be a list of 4 numbers")
    if not all(type(x) in (int, float) for x in value):
        raise ParseError(f"{what} must hold numbers only")
    try:
        xs = [float(x) for x in value]
    except OverflowError:  # an integer beyond the float range
        raise ParseError(f"{what} must be finite") from None
    if not all(map(math.isfinite, xs)):
        raise ParseError(f"{what} must be finite")
    return xs


def automorphism_from_obj(obj: dict) -> BipartiteAutomorphism:
    try:
        shape = BipartiteShape(_int_field(obj, "n"), _int_field(obj, "m"))
        perm = obj["perm"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad automorphism object: {exc}") from exc
    if not isinstance(perm, str):
        raise ParseError(f"perm must be a string, got {type(perm).__name__}")
    return parse_cycles(shape, perm)


# --- realizations ------------------------------------------------------------

# keyed by IsometryOrientation values, so that this module loads without numpy
_ORIENT_TO_JSON = {"preserving": "op", "reversing": "or"}
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
        "orientation": _ORIENT_TO_JSON[iso.orientation.value],
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
    """Rebuild a realization; geometric validity is left to the verifier.

    Raises ParseError unless n, m and order are integers (not booleans or
    floats), the matrix is 4x4, every vertex and subdivision point has four
    coordinates, all of them finite numbers, and vertices, subdivision and
    landmarks are objects.
    """
    import numpy as np

    from .geometry import Isometry4, IsometryOrientation, SpatialEmbedding

    if not isinstance(obj, dict):
        raise ParseError(f"realization must be an object, got {type(obj).__name__}")
    try:
        vertices = _as_dict(obj["vertices"], "vertices")
        # compared before parsing, so the file's size bounds n + m
        if len(vertices) != _int_field(obj, "n") + _int_field(obj, "m"):
            raise ParseError("vertex coordinates do not cover the graph exactly")
        aut = automorphism_from_obj(obj)
        rows = obj["matrix"]
        if not isinstance(rows, list) or len(rows) != 4:
            raise ParseError("matrix must be 4x4")
        matrix = np.array([_point(row, "matrix row") for row in rows])
        order = _int_field(obj, "order")
        if order < 1:
            raise ParseError(f"order must be positive, got {order}")
        orientation = IsometryOrientation(_ORIENT_FROM_JSON[obj["orientation"]])
        iso = Isometry4(matrix, order, orientation)
        coords = {
            VertexId.from_label(label): np.array(_point(p, f"vertex {label}"))
            for label, p in vertices.items()
        }
        sub_coords = {}
        sub_edges = {}
        for z, rec in _as_dict(obj.get("subdivision", {}), "subdivision").items():
            edge = _as_dict(rec, f"subdivision {z}")["edge"]
            if not (
                isinstance(edge, list)
                and len(edge) == 2
                and all(isinstance(t, str) for t in edge)
            ):
                raise ParseError(f"subdivision {z} edge must be two vertex labels")
            sub_coords[z] = np.array(_point(rec["point"], f"subdivision {z}"))
            sub_edges[z] = (VertexId.from_label(edge[0]), VertexId.from_label(edge[1]))
        emb = SpatialEmbedding(
            shape=aut.shape,
            coordinates=coords,
            subdivision_coordinates=sub_coords,
            subdivision_edges=sub_edges,
            landmarks=dict(_as_dict(obj.get("landmarks", {}), "landmarks")),
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
