"""In-memory spans around bipsym's public functions, and their summary.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the benchmark operation that
caused it.  Spans are recorded by wrappers that :class:`Patched` binds at a
function's defining module *and* at every ``bipsym.*`` attribute bound to the
same object, so calls between bipsym modules nest as child spans.  A target
that no longer exists is listed in ``absent`` instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

PACKAGE = "bipsym"
# (module, function) pairs traced, named "<module>.<function>" in the output
SPAN_TARGETS = (
    ("core", "parse_cycles"),
    ("core", "signature"),
    ("classifier", "classify"),
    ("classifier", "classify_aut"),
    ("geometry", "realize"),
    ("verifier", "verify"),
    ("census", "census"),
    ("kernels", "cycle_stats"),
    ("cli", "cli_main"),
    ("jsonio", "canonical_json"),
    ("jsonio", "realization_to_obj"),
    ("jsonio", "realization_from_obj"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in SPAN_TARGETS)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_verify(counters, args, kwargs, result):
    # computed from the inputs: the verifier handles one power per step
    # up to the claimed order
    counters["verifier.verify.powers"] += _arg(args, kwargs, 1, "iso").claimed_order - 1
    counters["verifier.verify.failed"] += not result.overall


# per-span counters, computed after the wrapped call returns
COUNT_HOOKS = {
    "verifier.verify": _count_verify,
    "census.census": lambda c, a, k, r: c.update({"census.census.automorphisms": r.total}),
    "kernels.cycle_stats": lambda c, a, k, r: c.update(
        {"kernels.cycle_stats.rows": len(_arg(a, k, 0, "perms"))}
    ),
    "jsonio.canonical_json": lambda c, a, k, r: c.update(
        {"jsonio.canonical_json.bytes": len(r.encode("utf-8"))}
    ),
}
# a call that raises counts as failed for these spans
RAISE_COUNTERS = {
    "verifier.verify": "verifier.verify.failed",
    "geometry.realize": "geometry.realize.failed",
}


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        clock, spans, stack = self.clock, self.spans, self._stack
        hook = COUNT_HOOKS.get(name)
        raise_counter = RAISE_COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if raise_counter:
                    self.counters[raise_counter] += 1
                raise
            finally:
                stack.pop()
                span[2] = clock()
            if hook:
                hook(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


class Patched:
    """Context manager that binds tracing wrappers and restores the originals."""

    def __init__(self, tracer: Tracer, targets=SPAN_TARGETS):
        self.tracer = tracer
        self.targets = targets
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patched":
        for mod_name, fn_name in self.targets:
            name = f"{mod_name}.{fn_name}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ModuleNotFoundError:
                self.absent.append(name)
                continue
            original = getattr(module, fn_name, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.tracer.wrap(name, original)
            for mod in list(sys.modules.values()):
                mname = getattr(mod, "__name__", "")
                if mname != PACKAGE and not mname.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    Self time is a span's duration minus that of its direct children.  The
    span stack is single-threaded, so a span's children never overlap and
    lie inside it.  ``total_s`` counts only the outermost span of a name,
    so a function reached again below itself is not counted twice.
    """
    child_s: dict[int, float] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child_s.get(i, 0.0)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            rec["total_s"] += end - start
    return out


def write_spans(path, spans) -> None:
    """Write spans as CSV: name,start_s,end_s,parent,op."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start_s,end_s,parent,op\n")
        for name, start, end, parent, op in spans:
            fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")
