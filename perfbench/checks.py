"""Output checks against the reference data in ``perfbench/reference``.

Each check returns ``None`` when the output is right and a short reason
otherwise; the workloads count a reason as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CERT_CHECKS = [
    "unit_norm", "orthogonal", "order", "orientation", "induces",
    "eel1", "eel2", "eel3", "eel4",
]
# realizable (class, orientation) pairs over 3 <= n <= m <= 9
CERTIFY_PAIRS = 734


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / name).read_text("utf-8"))


def verdict_text(verdict) -> str:
    """Compact verdict: ``OP1,OP4^|OR10``, ``^`` marking an interchanged match."""

    def side(cases):
        return ",".join(c.label + ("^" if c.interchanged else "") for c in cases)

    return side(verdict.op_cases) + "|" + side(verdict.or_cases)


def verdict_sides(text: str) -> dict[str, list[str]]:
    op, orr = text.split("|")
    return {"op": [t for t in op.split(",") if t], "or": [t for t in orr.split(",") if t]}


def realizable(text: str) -> list[str]:
    """Orientations ("op", "or") in which the verdict admits a realization."""
    return [o for o, cases in verdict_sides(text).items() if cases]


def dispatch_label(text: str, orientation: str) -> str:
    """The case a realization is built from: the lowest-numbered match."""
    return verdict_sides(text)[orientation][0].rstrip("^")


def classify_stdout(text: str) -> bytes:
    """The exact stdout of ``bipsym classify`` for a verdict."""

    def side(cases):
        labels = [c.rstrip("^") for c in cases]
        return {
            "cases": labels,
            "interchanged": {c.rstrip("^"): c.endswith("^") for c in cases},
            "realizable": bool(cases),
        }

    sides = verdict_sides(text)
    obj = {"op": side(sides["op"]), "or": side(sides["or"])}
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_census(report: dict, ref: dict, realize_all: bool) -> str | None:
    """Compare a census report (as its JSON object) with the oracle tallies."""
    for key in ("total", "per_case", "unrealizable_op", "unrealizable_or"):
        if report.get(key) != ref[key]:
            return f"{key} {report.get(key)!r} != {ref[key]!r}"
    want = ref["realizable_pairs"] if realize_all else None
    if report.get("realized_verified") != want:
        return f"realized_verified {report.get('realized_verified')!r} != {want!r}"
    return None


def check_certificate(obj: dict) -> str | None:
    names = [c.get("name") for c in obj.get("checks", [])]
    if names != CERT_CHECKS:
        return f"certificate checks {names}"
    failed = [c["name"] for c in obj["checks"] if not c.get("pass")]
    if failed or obj.get("overall") is not True:
        return f"certificate failed {failed}"
    return None


def check_realization(obj: dict, conj, orientation: str, vtext: str) -> str | None:
    want = {
        "n": conj.n,
        "m": conj.m,
        "perm": conj.canonical_text(),
        "orientation": orientation,
        "case": dispatch_label(vtext, orientation),
    }
    for key, value in want.items():
        if obj.get(key) != value:
            return f"realization {key} {obj.get(key)!r} != {value!r}"
    if len(obj.get("vertices", ())) != conj.n + conj.m:
        return "realization vertex count"
    return None
