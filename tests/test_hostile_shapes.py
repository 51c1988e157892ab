"""Huge shapes and hostile files fail fast, with exit 2 or a failed
certificate, instead of exhausting memory or time.

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
import tracemalloc
from pathlib import Path

import numpy as np
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
from bipsym.jsonio import realization_from_obj, realization_to_obj
from bipsym.verifier import (
    MAX_CLAIMED_ORDER,
    MAX_DIVISOR_EDGES,
    MAX_INDUCES_BYTES,
    MAX_VERIFY_EDGES,
    _gcd_counts,
)

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


# far above MAX_CLAIMED_ORDER, and 1.3 PB as a stack of 4 x 4 float powers
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


def _write_claiming(path: Path, order: int) -> None:
    """The K_{3,3} realization of (v1 v2), claiming ``order``, as a file."""
    aut = parse_cycles(BipartiteShape(3, 3), "(v1 v2)")
    iso, emb = realize(aut, Orientation.OR, 1)
    iso = dataclasses.replace(iso, claimed_order=order)
    path.write_text(json.dumps(realization_to_obj(aut, iso, emb, "OR11", 1)))


def test_verify_refuses_order_above_bound_before_any_product():
    aut, iso, emb = _huge_order_realization()
    iso = dataclasses.replace(iso, claimed_order=MAX_CLAIMED_ORDER + 1)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=f"claimed order {MAX_CLAIMED_ORDER + 1} "):
        verify(aut, iso, emb)
    assert time.perf_counter() - start < 0.1


def test_cli_verify_refuses_order_above_bound(tmp_path):
    path = tmp_path / "above.json"
    _write_claiming(path, MAX_CLAIMED_ORDER + 1)
    out = _run_limited(["-m", "bipsym.cli", "verify", str(path)], 10)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith(f"error: claimed order {MAX_CLAIMED_ORDER + 1} ")
    assert out.stderr.count("\n") == 1


def test_cli_verify_at_order_bound_is_small_and_fails(tmp_path):
    # M has order 2, so the even order at the bound passes |M^r - I| but
    # M^2, a proper divisor, is already the identity; M^r and the M^d come
    # by repeated squaring
    assert MAX_CLAIMED_ORDER % 2 == 0
    path = tmp_path / "at_bound.json"
    _write_claiming(path, MAX_CLAIMED_ORDER)
    script = (
        "import resource, sys\n"
        "from bipsym.cli import cli_main\n"
        "code = cli_main(['verify', sys.argv[1]])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    out = _run_limited(["-c", script, str(path)], 10)
    assert out.returncode == 5, out.stderr
    cert = json.loads(out.stdout)
    assert cert["overall"] is False
    order = next(c for c in cert["checks"] if c["name"] == "order")
    assert order["detail"].endswith("; M^2 is already the identity")
    peak_kb = int(out.stderr.split()[-1])
    assert peak_kb < 200 * 1024


def _write_unit_points(path: Path, n: int, m: int, order: int = 1) -> None:
    """A realization file of the identity of K_{n,m} claiming ``order``,
    every vertex at one point."""
    labels = [f"v{i}" for i in range(1, n + 1)] + [f"w{j}" for j in range(1, m + 1)]
    obj = {
        "n": n, "m": m, "perm": "()", "case": "OP1", "seed": 1, "order": order,
        "orientation": "op",
        "matrix": [[float(i == j) for j in range(4)] for i in range(4)],
        "vertices": {label: [1.0, 0.0, 0.0, 0.0] for label in labels},
        "subdivision": {}, "landmarks": {},
    }
    path.write_text(json.dumps(obj))


def test_cli_verify_refuses_too_many_edges(tmp_path):
    # K_{50000,50000} is within MAX_VERTICES, but its 2.5 * 10^9 edges are
    # refused before the edge arrays are built
    path = tmp_path / "k50000.json"
    _write_unit_points(path, 50_000, 50_000)
    out = _run_limited(["-m", "bipsym.cli", "verify", str(path)], 10)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr == (
        "error: K_{50000,50000} has 2500000000 edges and 0 subdivision "
        f"vertices, more than {MAX_VERIFY_EDGES} together\n"
    )


def _induces_refused(n: int, m: int) -> str:
    points = n + m
    return (
        f"K_{{{n},{m}}} has {points} points, whose induces distance block "
        f"takes {32 * points**2} bytes, more than {MAX_INDUCES_BYTES}"
    )


def test_cli_verify_refuses_unallocatable_separation_grid(tmp_path):
    # K_{3,99997} has few enough edges, but the induces distance block of
    # its 100 000 points would take 320 GB: refused before it is built
    n, m = 3, MAX_VERTICES - 3
    assert n * m <= MAX_VERIFY_EDGES
    path = tmp_path / "skinny.json"
    _write_unit_points(path, n, m)
    out = _run_limited(["-m", "bipsym.cli", "verify", str(path)], 10)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr == f"error: {_induces_refused(n, m)}\n"


def test_verify_refuses_an_induces_block_past_its_budget(tmp_path):
    # K_{3,10000}: 30 000 edges, within MAX_VERIFY_EDGES, but two 20 006 x
    # 10 003 float arrays, 3.2 GB, for the induces check
    assert 3 * 10_000 <= MAX_VERIFY_EDGES
    path = tmp_path / "skinny.json"
    _write_unit_points(path, 3, 10_000)
    triple = realization_from_obj(json.loads(path.read_text()))
    start = time.perf_counter()
    with pytest.raises(TooLarge) as refused:
        verify(*triple)
    assert time.perf_counter() - start < 1.0
    assert str(refused.value) == _induces_refused(3, 10_000)


def test_verify_turns_a_memory_error_into_too_large(monkeypatch):
    # below the budgets, a process memory limit can still stop the arrays
    def unallocatable(*args):
        raise MemoryError

    monkeypatch.setattr(bipsym.verifier, "_distances", unallocatable)
    aut = parse_cycles(BipartiteShape(3, 3), "(v1 v2)")
    iso, emb = realize(aut, Orientation.OR, 1)
    with pytest.raises(TooLarge, match=r"^verifying K_\{3,3\} needs more memory than is available$"):
        verify(aut, iso, emb)


# 2^6 3^3 5^2 7 11 13 17, below MAX_CLAIMED_ORDER, has 1344 divisors: one
# row of the 10^6 edges of K_{1000,1000} per proper divisor would take
# gigabytes
MANY_DIVISORS = 735_134_400
DIVISOR_ROWS_REFUSED = (
    f"claimed order {MANY_DIVISORS} has 1343 proper divisors, 1343000000 "
    f"(divisor, edge) pairs, more than {MAX_DIVISOR_EDGES}"
)


def test_verify_refuses_too_many_divisor_rows(tmp_path):
    path = tmp_path / "divisors.json"
    _write_unit_points(path, 1000, 1000, MANY_DIVISORS)
    triple = realization_from_obj(json.loads(path.read_text()))
    start = time.perf_counter()
    with pytest.raises(TooLarge) as refused:
        verify(*triple)
    assert time.perf_counter() - start < 0.5
    assert str(refused.value) == DIVISOR_ROWS_REFUSED


def test_cli_verify_refuses_too_many_divisor_rows(tmp_path):
    path = tmp_path / "divisors.json"
    _write_unit_points(path, 1000, 1000, MANY_DIVISORS)
    out = _run_limited(["-m", "bipsym.cli", "verify", str(path)], 10)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr == f"error: {DIVISOR_ROWS_REFUSED}\n"


def _write_overflowing(path: Path) -> None:
    """The OR13 realization of K_{4,4}, of order 4, with matrix[0][0] =
    1e200: M^2, the power at the proper divisor 2, holds an infinity."""
    aut = parse_cycles(BipartiteShape(4, 4), "(v1 w1)(v2 w2)(v3 w3 v4 w4)")
    iso, emb = realize(aut, Orientation.OR, 3)
    obj = json.loads(json.dumps(realization_to_obj(aut, iso, emb, "OR13", 3)))
    obj["matrix"][0][0] = 1e200
    path.write_text(json.dumps(obj))


def test_cli_verify_of_overflowing_powers_exits_5(tmp_path):
    # the failed certificate prints, its non-finite measured values as
    # strings, and numpy's overflow warnings stay off stderr
    path = tmp_path / "overflow.json"
    _write_overflowing(path)
    out = _run_limited(["-m", "bipsym.cli", "verify", str(path)], 20)
    assert out.returncode == 5, out.stderr
    assert out.stderr == ""
    cert = json.loads(out.stdout)
    assert cert["overall"] is False
    failed = {c["name"]: c["measured"] for c in cert["checks"] if not c["pass"]}
    assert set(failed) == {"orthogonal", "order", "orientation", "induces"}
    assert (failed["orthogonal"], failed["order"], failed["induces"]) == ("inf", "nan", "inf")


def test_verify_of_overflowing_powers_fails(tmp_path):
    path = tmp_path / "overflow.json"
    _write_overflowing(path)
    script = (
        "import json, sys\n"
        "from bipsym import verify\n"
        "from bipsym.jsonio import realization_from_obj\n"
        "with open(sys.argv[1]) as fh:\n"
        "    cert = verify(*realization_from_obj(json.load(fh)))\n"
        "print(cert.overall, cert.check('orthogonal').passed, cert.check('order').passed)\n"
    )
    out = _run_limited(["-W", "ignore", "-c", script, str(path)], 20)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False False False\n"


def _write_tampered(path: Path, order: int) -> None:
    """The OR11 realization of (w1 w2)(w3 w4) in K_{3,4}, with v1 moved off
    the mirror sphere and the claimed ``order``: every odd power of M is the
    reflection, whose fixed sphere holds no full part."""
    aut = parse_cycles(BipartiteShape(3, 4), "(w1 w2)(w3 w4)")
    iso, emb = realize(aut, Orientation.OR, 1)
    iso = dataclasses.replace(iso, claimed_order=order)
    p = emb.points[0] + [0.0, 0.0, 0.0, 0.4]
    emb.points[0] = p / np.linalg.norm(p)
    path.write_text(json.dumps(realization_to_obj(aut, iso, emb, "OR11", 1)))


def test_cli_verify_reports_each_divisor_once(tmp_path):
    # the 250 000 odd powers below 500 000 fail eel4; the certificate names
    # each odd proper divisor once, with the count of its powers
    path = tmp_path / "tampered.json"
    _write_tampered(path, 500_000)
    out = _run_limited(["-m", "bipsym.cli", "verify", str(path)], 20)
    assert out.returncode == 5, out.stderr
    assert out.stderr == ""
    assert len(out.stdout.encode()) < 4096
    eel4 = next(c for c in json.loads(out.stdout)["checks"] if c["name"] == "eel4")
    assert eel4["measured"] == 250_000.0
    divisors = re.findall(r"powers i with gcd\(i, 500000\) = (\d+): ", eel4["detail"])
    assert divisors == [str(5**k) for k in range(7)]


def _write_without_subdivision(path: Path, shape, text, orientation, label, order) -> None:
    """The realization of ``text`` at seed 3 with its subdivision vertices
    dropped, claiming ``order``: the edges π inverts are no longer split."""
    aut = parse_cycles(BipartiteShape(*shape), text)
    iso, emb = realize(aut, orientation, 3)
    iso = dataclasses.replace(iso, claimed_order=order)
    emb = dataclasses.replace(
        emb, points=emb.points[: emb.shape.size], subdivision_ids=(), subdivision_pairs=()
    )
    path.write_text(json.dumps(realization_to_obj(aut, iso, emb, label, 3)))


# the 2-cycles (v_i w_i) invert their edges at every odd power
OR13 = ((4, 4), "(v1 w1)(v2 w2)(v3 w3 v4 w4)", "or", "OR13")
MIXED_TWO_CYCLES = ((100, 100), "".join(f"(v{i} w{i})" for i in range(1, 101)), "op", "OP1")


@pytest.mark.parametrize(
    "case, order, measured",
    [
        pytest.param(OR13, 10**8, 100_000_000, id="OR13"),  # 2 edges at 5 * 10^7 odd powers
        pytest.param(MIXED_TWO_CYCLES, 10**6, 50_000_000, id="mixed-2-cycles"),  # 100 at 500 000
    ],
)
def test_verify_counts_candidate_swaps_by_divisor(tmp_path, case, order, measured):
    # π is established, and each inverted edge is tested only at the odd
    # proper divisors of the order, its hits counted for every odd power
    path = tmp_path / "inverted.json"
    _write_without_subdivision(path, *case, order)
    triple = realization_from_obj(json.loads(path.read_text()))
    start = time.perf_counter()
    eel2 = verify(*triple).check("eel2")
    assert time.perf_counter() - start < 1.0
    assert not eel2.passed
    assert eel2.measured == measured


@pytest.mark.parametrize("order", [40_000, 10**8])
def test_cli_verify_of_candidate_swaps_is_small(tmp_path, order):
    # each of (v1, w1) and (v2, w2) is reported once per odd proper divisor
    path = tmp_path / "or13.json"
    _write_without_subdivision(path, *OR13, order)
    out = _run_limited(["-m", "bipsym.cli", "verify", str(path)], 10)
    assert out.returncode == 5, out.stderr
    assert out.stderr == ""
    assert len(out.stdout.encode()) < 4096
    eel2 = next(c for c in json.loads(out.stdout)["checks"] if c["name"] == "eel2")
    assert eel2["measured"] == order
    divisors = re.findall(rf"powers i with gcd\(i, {order}\) = (\d+): ", eel2["detail"])
    odd = [d for d in _gcd_counts(order) if d % 2]
    assert divisors == [str(d) for d in odd for _ in range(2)]


def test_cli_verify_tests_every_pair_at_47_divisors(tmp_path):
    # K_{1000,1000} in 10-cycles with v1 moved off its place: π is not
    # established, so eel2 tests each of the 10^6 edges at each of the 47
    # proper divisors of 2520, within MAX_DIVISOR_EDGES
    assert len(_gcd_counts(2520)) * 10**6 == 47_000_000 <= MAX_DIVISOR_EDGES
    aut = parse_cycles(BipartiteShape(1000, 1000), _cycles(1000, 10))
    iso, emb = realize(aut, Orientation.OP, 1)
    iso = dataclasses.replace(iso, claimed_order=2520)
    p = emb.points[0] + [0.0, 0.0, 0.0, 0.01]
    emb.points[0] = p / np.linalg.norm(p)
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(realization_to_obj(aut, iso, emb, "OP1", 1)))
    out = _run_limited(["-m", "bipsym.cli", "verify", str(path)], 20)
    assert out.returncode == 5, out.stderr
    assert out.stderr == ""
    checks = {c["name"]: c for c in json.loads(out.stdout)["checks"]}
    assert not checks["induces"]["pass"]
    assert checks["eel2"]["pass"]


def _verify_peak(path: Path) -> int:
    """Peak bytes traced while verify checks the realization file ``path``."""
    triple = realization_from_obj(json.loads(path.read_text()))
    tracemalloc.start()
    try:
        verify(*triple)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_memory_does_not_grow_with_the_order(tmp_path):
    low, high = tmp_path / "low.json", tmp_path / "high.json"
    _write_tampered(low, 1000)
    _write_tampered(high, 500_000)
    _verify_peak(low)  # first use of numpy's linalg and the like
    assert _verify_peak(high) - _verify_peak(low) < 1 << 20


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


# one 9000-point orbit: a dense check of it against itself takes two
# 9000 x 9000 float arrays, 1.3 GB; the placer's grid measures next to no
# pairs
HUGE_ORBIT = 9000


def test_realize_places_one_9000_point_orbit():
    script = (
        "import sys\n"
        "from bipsym import BipartiteShape, parse_cycles, realize\n"
        "aut = parse_cycles(BipartiteShape(int(sys.argv[1]), int(sys.argv[1])), sys.argv[2])\n"
        "print(len(realize(aut, 'op', 1)[1].points))\n"
    )
    out = _run_limited(["-c", script, str(HUGE_ORBIT), _cycles(HUGE_ORBIT, HUGE_ORBIT)], 60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"{2 * HUGE_ORBIT}\n"


def test_cli_realize_places_one_9000_point_orbit():
    graph = f"{HUGE_ORBIT},{HUGE_ORBIT}"
    perm = _cycles(HUGE_ORBIT, HUGE_ORBIT)
    out = _run_limited(
        ["-m", "bipsym.cli", "realize", "--graph", graph, "--perm", perm, "--orientation", "op"],
        60,
    )
    assert out.returncode == 0, out.stderr
    assert len(json.loads(out.stdout)["vertices"]) == 2 * HUGE_ORBIT


def test_cli_realizes_k2000_in_ten_cycles():
    # each point is measured only against the points filed under its cell of
    # the placer's grid, so memory stays linear in the 4000 points
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
    with pytest.raises(TooLarge, match="more than 47 vertices"):
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
