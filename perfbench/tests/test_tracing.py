import pytest

import bipsym
import bipsym.classifier
import bipsym.core
from perfbench.tracing import Patched, Tracer, summarize


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(dt):
        clock.t += dt

    leaf_t = tracer.wrap("m.leaf", leaf)

    def middle():
        clock.t += 1.0
        leaf_t(2.0)
        clock.t += 0.5
        leaf_t(3.0)

    middle_t = tracer.wrap("m.middle", middle)

    def outer():
        clock.t += 4.0
        middle_t()

    tracer.wrap("m.outer", outer)()
    s = summarize(tracer.spans)
    assert s["m.outer"] == {"calls": 1, "total_s": 10.5, "self_s": 4.0}
    assert s["m.middle"] == {"calls": 1, "total_s": 6.5, "self_s": 1.5}
    assert s["m.leaf"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    parents = [(name, tracer.spans[p][0] if p >= 0 else None)
               for name, _, _, p, _ in tracer.spans]
    assert parents == [("m.outer", None), ("m.middle", "m.outer"),
                       ("m.leaf", "m.middle"), ("m.leaf", "m.middle")]


def test_recursive_span_total_counts_the_outermost_call_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    holder = {}

    def rec(k):
        clock.t += 1.0
        if k:
            holder["f"](k - 1)

    holder["f"] = tracer.wrap("m.rec", rec)
    holder["f"](2)
    s = summarize(tracer.spans)["m.rec"]
    assert s == {"calls": 3, "total_s": 3.0, "self_s": 3.0}


def test_exceptions_close_the_span_and_count_as_failed():
    tracer = Tracer()

    def bad():
        raise ValueError("no")

    wrapped = tracer.wrap("geometry.realize", bad)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.counters["geometry.realize.failed"] == 1
    assert tracer.spans[0][2] >= tracer.spans[0][1]
    assert tracer._stack == []


def test_patching_binds_every_alias_and_restores_them():
    originals = (bipsym.classify_aut, bipsym.classifier.classify, bipsym.core.signature)
    tracer = Tracer()
    targets = (("classifier", "classify"), ("classifier", "classify_aut"),
               ("core", "signature"), ("core", "no_such_function"),
               ("no_such_module", "f"))
    with Patched(tracer, targets) as patch:
        assert bipsym.classify is bipsym.classifier.classify
        assert bipsym.classify.__wrapped__ is originals[1]
        aut = bipsym.parse_cycles(bipsym.BipartiteShape(3, 3), "(v1 v2 v3)")
        bipsym.classify_aut(aut)
    assert patch.absent == ["core.no_such_function", "no_such_module.f"]
    assert (bipsym.classify_aut, bipsym.classifier.classify, bipsym.core.signature) == originals
    names = [s[0] for s in tracer.spans]
    # classify_aut calls signature and classify through its module globals
    assert names == ["classifier.classify_aut", "core.signature", "classifier.classify"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
