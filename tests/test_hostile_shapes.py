"""Huge shapes fail fast with exit 2 instead of exhausting memory or time.

Each command runs in a fresh interpreter limited to 1 GB of address space
and 10 s, so a command that allocates per vertex or computes n! in full
fails the test instead of the machine.
"""

import dataclasses
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bipsym
from bipsym import (
    BipartiteShape,
    Orientation,
    TooLarge,
    census,
    enumerate_automorphisms,
    parse_cycles,
    realize,
    verify,
)
from bipsym.census import MAX_CENSUS_PART, MAX_REALIZE_ALL_PART
from bipsym.core import MAX_VERTICES
from bipsym.jsonio import realization_to_obj

SRC = str(Path(bipsym.__file__).resolve().parents[1])
ADDRESS_SPACE = 1 << 30


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--graph", "1000000000,3", "--perm", "(v1 v2)"],
        ["realize", "--graph", "3,1000000000", "--perm", "(w1 w2)", "--orientation", "op"],
        ["census", "10000000", "3"],
        ["census", "3", "10000000", "--realize-all"],
    ],
)
def test_cli_rejects_huge_shape(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-m", "bipsym.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limit_memory,
    )
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr


# 10^13 + 1 stacked 4 x 4 float matrices take 1.3 PB, which no machine can
# allocate, so this claimed order fails the same way everywhere
HUGE_ORDER = 10**13


def _huge_order_realization():
    aut = parse_cycles(BipartiteShape(3, 3), "(v1 v2)")
    iso, emb = realize(aut, Orientation.OR, 1)
    return aut, dataclasses.replace(iso, claimed_order=HUGE_ORDER), emb


def test_verify_rejects_unallocatable_order():
    with pytest.raises(TooLarge, match=f"claimed order {HUGE_ORDER} "):
        verify(*_huge_order_realization())


def test_cli_verify_rejects_unallocatable_order(tmp_path):
    aut, iso, emb = _huge_order_realization()
    path = tmp_path / "huge_order.json"
    path.write_text(json.dumps(realization_to_obj(aut, iso, emb, "OR11", 1)))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-m", "bipsym.cli", "verify", str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_memory,
    )
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith(f"error: claimed order {HUGE_ORDER} ")
    assert out.stderr.count("\n") == 1


def test_parse_bound_is_inclusive():
    n = MAX_VERTICES - 3
    aut = parse_cycles(BipartiteShape(n, 3), f"(v{n} v1)(w1 w3)")
    assert len(aut.perm) == MAX_VERTICES
    with pytest.raises(TooLarge, match="more than"):
        parse_cycles(BipartiteShape(n + 1, 3), "(v1 v2)")


def test_cap_check_stops_early():
    shape = BipartiteShape(10**9, 10**9)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="exceeds cap 1000"):
        enumerate_automorphisms(shape, cap=1000)
    with pytest.raises(TooLarge, match="more than 419 vertices"):
        census(shape)
    with pytest.raises(TooLarge, match="more than 40 vertices"):
        census(shape, realize_all=True)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "name, value",
    [
        ("MAX_VERTICES", MAX_VERTICES),
        ("MAX_CENSUS_PART", MAX_CENSUS_PART),
        ("MAX_REALIZE_ALL_PART", MAX_REALIZE_ALL_PART),
    ],
)
def test_readme_states_the_bound(name, value):
    # the README writes each bound as "N vertices (... `NAME` ...)"
    readme = Path(SRC).parent / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    stated = re.findall(rf"(\d[\d ]*) vertices \([^)]*`{name}`", text)
    assert stated, f"README does not state {name}"
    assert {int(n.replace(" ", "")) for n in stated} == {value}


@pytest.mark.parametrize("n, m, cap", [(3, 3, 36), (4, 3, 144), (1, 1, 1), (5, 4, 2880)])
def test_cap_is_exact(n, m, cap):
    # n!*m! equal to cap passes; one below fails
    shape = BipartiteShape(n, m)
    assert next(enumerate_automorphisms(shape, cap=cap)).is_identity()
    with pytest.raises(TooLarge):
        enumerate_automorphisms(shape, cap=cap - 1)
