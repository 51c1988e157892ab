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


def _cycles(n: int, length: int) -> str:
    """Both parts of K_{n,n} in consecutive pure cycles of ``length``."""
    return "".join(
        "(" + " ".join(f"{p}{i}" for i in range(s, s + length)) + ")"
        for p in "vw"
        for s in range(1, n + 1, length)
    )


def _run_limited(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=_limit_memory,
    )


# placing one 9000-point orbit compares it with itself in a 9000 x 9000 x 4
# float block, 2.4 GiB
HUGE_ORBIT = 9000
HUGE_ORBIT_ERROR = f"placing an orbit of {HUGE_ORBIT} points needs more memory than is available"


def test_realize_rejects_unallocatable_orbit():
    script = (
        "import sys\n"
        "from bipsym import BipartiteShape, TooLarge, parse_cycles, realize\n"
        "aut = parse_cycles(BipartiteShape(int(sys.argv[1]), int(sys.argv[1])), sys.argv[2])\n"
        "try:\n"
        "    realize(aut, 'op', 1)\n"
        "except TooLarge as exc:\n"
        "    print(exc)\n"
    )
    out = _run_limited(["-c", script, str(HUGE_ORBIT), _cycles(HUGE_ORBIT, HUGE_ORBIT)], 60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == HUGE_ORBIT_ERROR + "\n"


def test_cli_realize_rejects_unallocatable_orbit():
    graph = f"{HUGE_ORBIT},{HUGE_ORBIT}"
    perm = _cycles(HUGE_ORBIT, HUGE_ORBIT)
    out = _run_limited(
        ["-m", "bipsym.cli", "realize", "--graph", graph, "--perm", perm, "--orientation", "op"],
        60,
    )
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr == f"error: {HUGE_ORBIT_ERROR}\n"


def test_cli_realizes_k2000_in_ten_cycles():
    # each orbit is checked against the points before it once, when it is
    # placed, so memory stays linear in the 4000 points
    out = _run_limited(
        ["-m", "bipsym.cli", "realize", "--graph", "2000,2000", "--perm", _cycles(2000, 10),
         "--orientation", "op"],
        10,
    )
    assert out.returncode == 0, out.stderr
    assert len(json.loads(out.stdout)["vertices"]) == 4000


def test_cli_realizes_k1499_1500_of_order_2248500():
    # the order of the glide R(2*pi/1499) + R(2*pi/1500) is lcm(1499, 1500),
    # exact from the turn fractions, so realize never multiplies out its
    # 2 248 500 powers
    perm = "".join(
        "(" + " ".join(f"{p}{i}" for i in range(1, size + 1)) + ")"
        for p, size in (("v", 1499), ("w", 1500))
    )
    out = _run_limited(
        ["-m", "bipsym.cli", "realize", "--graph", "1499,1500", "--perm", perm,
         "--orientation", "op"],
        10,
    )
    assert out.returncode == 0, out.stderr
    obj = json.loads(out.stdout)
    assert obj["case"] == "OP6"
    assert obj["order"] == 1499 * 1500
    assert len(obj["vertices"]) == 2999


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
