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


# 2^6 3^3 5^2 7 11 13 17, below MAX_CLAIMED_ORDER, has 1344 divisors.  The
# identity of K_{1000,1000} claiming it, every vertex at one point, gets a
# verdict: verify makes M^d for each of the 1343 proper divisors and holds
# no row of edges for any of them; M = I fails order and the separation 0
# fails induces, so π is not established
MANY_DIVISORS = 735_134_400
NOT_ESTABLISHED = "pi not established: order, induces failed"


def test_verify_answers_the_identity_with_many_divisors(tmp_path):
    path = tmp_path / "divisors.json"
    _write_unit_points(path, 1000, 1000, MANY_DIVISORS)
    triple = realization_from_obj(json.loads(path.read_text()))
    start = time.perf_counter()
    cert = verify(*triple)
    assert time.perf_counter() - start < 0.5
    assert not cert.overall
    assert cert.check("induces").detail.startswith("min separation 0 < 1e-6; ")
    assert cert.check("order").detail == f"|M^{MANY_DIVISORS} - I| = 0; M^1 is already the identity"
    assert {cert.check(f"eel{i}").detail for i in range(1, 5)} == {NOT_ESTABLISHED}


def test_cli_verify_answers_the_identity_with_many_divisors(tmp_path):
    path = tmp_path / "divisors.json"
    _write_unit_points(path, 1000, 1000, MANY_DIVISORS)
    out = _run_limited(["-m", "bipsym.cli", "verify", str(path)], 10)
    assert out.returncode == 5, out.stderr
    assert out.stderr == ""
    checks = {c["name"]: c for c in json.loads(out.stdout)["checks"]}
    assert checks["induces"]["detail"].startswith("min separation 0 < 1e-6; ")
    assert checks["eel2"]["detail"] == NOT_ESTABLISHED


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
    failed = {c["name"]: c for c in cert["checks"] if not c["pass"]}
    assert set(failed) == {"orthogonal", "order", "orientation", "induces", "eel1", "eel2", "eel3", "eel4"}
    measured = [failed[name]["measured"] for name in ("orthogonal", "order", "induces")]
    assert measured == ["inf", "nan", "inf"]
    assert {failed[f"eel{i}"]["detail"] for i in range(1, 5)} == {
        "pi not established: orthogonal, order, induces failed"
    }


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


def _write_fixed_circle(path: Path, order: int) -> None:
    """The identity of K_{3,3} on the circle x1 = x2 = 0, evenly spaced,
    under R(2π/order) on the plane x3 = x4 = 0: an exact realization of
    ``order``, whose every proper power fixes that circle and all six
    vertices on it."""
    angles = 2 * np.pi * np.arange(6) / 6
    points = [[0.0, 0.0, float(np.cos(a)), float(np.sin(a))] for a in angles]
    c, s = np.cos(2 * np.pi / order), np.sin(2 * np.pi / order)
    matrix = [[c, -s, 0.0, 0.0], [s, c, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    labels = ["v1", "v2", "v3", "w1", "w2", "w3"]
    obj = {
        "n": 3, "m": 3, "perm": "()", "case": "OP6", "seed": 1, "order": order,
        "orientation": "op", "matrix": [[float(x) for x in row] for row in matrix],
        "vertices": dict(zip(labels, points)), "subdivision": {}, "landmarks": {},
    }
    path.write_text(json.dumps(obj))


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
    # π is established, and each of the 499 999 powers below 500 000 fixes
    # the circle with all 3 + 3 vertices on it, which fails eel3; the
    # certificate names each of the 41 proper divisors once, with the count
    # of its powers
    path = tmp_path / "circle.json"
    _write_fixed_circle(path, 500_000)
    out = _run_limited(["-m", "bipsym.cli", "verify", str(path)], 20)
    assert out.returncode == 5, out.stderr
    assert out.stderr == ""
    assert len(out.stdout.encode()) < 4096
    checks = {c["name"]: c for c in json.loads(out.stdout)["checks"]}
    assert [name for name, c in checks.items() if not c["pass"]] == ["eel3"]
    assert checks["eel3"]["measured"] == 499_999.0
    found = re.findall(r"(\d+) powers i with gcd\(i, 500000\) = (\d+): 3\+3 vertices of a part on circle",
                       checks["eel3"]["detail"])
    assert [(int(c), int(d)) for c, d in found] == [(c, d) for d, c in _gcd_counts(500_000).items()]


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


def _write_antipodal_pairs(path: Path, pairs: int, order: int) -> None:
    """(v1 w1)…(vp wp) of K_{p,p}, p = ``pairs``, the ends of each edge (v_i,
    w_i) antipodal on the circle x3 = x4 = 0, under -I on that plane and
    R(2π/order) on the other: an exact realization of the even ``order``,
    whose odd powers interchange the ends of each edge (v_i, w_i)."""
    vertices = {}
    for i in range(1, pairs + 1):
        a = np.pi * i / pairs
        vertices[f"v{i}"] = [float(np.cos(a)), float(np.sin(a)), 0.0, 0.0]
        vertices[f"w{i}"] = [-float(np.cos(a)), -float(np.sin(a)), 0.0, 0.0]
    c, s = float(np.cos(2 * np.pi / order)), float(np.sin(2 * np.pi / order))
    obj = {
        "n": pairs, "m": pairs, "perm": "".join(f"(v{i} w{i})" for i in range(1, pairs + 1)),
        "case": "OP1", "seed": 1, "order": order, "orientation": "op",
        "matrix": [[-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0], [0.0, 0.0, c, -s], [0.0, 0.0, s, c]],
        "vertices": vertices, "subdivision": {}, "landmarks": {},
    }
    path.write_text(json.dumps(obj))


# the 2-cycles (v_i w_i) invert their edges at every odd power
OR13 = ((4, 4), "(v1 w1)(v2 w2)(v3 w3 v4 w4)", "or", "OR13")


@pytest.mark.parametrize(
    "write, measured",
    [
        # OR13 without its subdivision vertices, claiming 10^8 for its matrix
        # of order 4: M^4 = I fails order, so π is not established and eel2
        # fails naming it, without reading any power of π
        pytest.param(lambda path: _write_without_subdivision(path, *OR13, 10**8), None, id="OR13"),
        # exact: each of the 100 inverted edges is reported at the odd proper
        # divisors of 10^6, its hits counted for each of the 500 000 odd powers
        pytest.param(lambda path: _write_antipodal_pairs(path, 100, 10**6), 50_000_000,
                     id="mixed-2-cycles"),
    ],
)
def test_verify_counts_candidate_swaps_by_divisor(tmp_path, write, measured):
    path = tmp_path / "inverted.json"
    write(path)
    triple = realization_from_obj(json.loads(path.read_text()))
    start = time.perf_counter()
    eel2 = verify(*triple).check("eel2")
    assert time.perf_counter() - start < 1.0
    assert not eel2.passed
    assert eel2.measured == measured
    if measured is None:
        assert eel2.detail == "pi not established: order failed"


@pytest.mark.parametrize("order", [40_000, 10**8])
def test_cli_verify_of_candidate_swaps_is_small(tmp_path, order):
    # (v1 w1) of K_{1,1}, antipodal under -I.  At 40 000, π is established
    # and the edge is reported once per odd proper divisor, counted for each
    # of the 20 000 odd powers.  At 10^8, M^2 = -I * -I + R(4π/10^8) lies
    # within IDENTITY_GAP of I, so order fails and eel2 names it
    path = tmp_path / "pair.json"
    _write_antipodal_pairs(path, 1, order)
    out = _run_limited(["-m", "bipsym.cli", "verify", str(path)], 10)
    assert out.returncode == 5, out.stderr
    assert out.stderr == ""
    assert len(out.stdout.encode()) < 4096
    checks = {c["name"]: c for c in json.loads(out.stdout)["checks"]}
    if order > 10**6:
        assert checks["order"]["detail"].endswith("; M^2 is already the identity")
        assert checks["eel2"]["detail"] == "pi not established: order failed"
        return
    assert [name for name, c in checks.items() if not c["pass"]] == ["eel2"]
    assert checks["eel2"]["measured"] == order // 2
    divisors = re.findall(rf"powers i with gcd\(i, {order}\) = (\d+): interchanges v1,w1",
                          checks["eel2"]["detail"])
    assert divisors == [str(d) for d in _gcd_counts(order) if d % 2]


def test_cli_verify_of_a_moved_point_is_not_established(tmp_path):
    # K_{1000,1000} in 10-cycles with v1 moved off its place, claiming 2520:
    # M^10 = I fails order and v1 fails induces, so π is not established,
    # and eel1-eel4 fail naming both without testing any edge
    aut = parse_cycles(BipartiteShape(1000, 1000), _cycles(1000, 10))
    iso, emb = realize(aut, Orientation.OP, 1)
    iso = dataclasses.replace(iso, claimed_order=2520)
    p = emb.points[0] + [0.0, 0.0, 0.0, 0.01]
    emb.points[0] = p / np.linalg.norm(p)
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(realization_to_obj(aut, iso, emb, "OP1", 1)))
    out = _run_limited(["-m", "bipsym.cli", "verify", str(path)], 10)
    assert out.returncode == 5, out.stderr
    assert out.stderr == ""
    checks = {c["name"]: c for c in json.loads(out.stdout)["checks"]}
    assert not checks["induces"]["pass"]
    assert {checks[f"eel{i}"]["detail"] for i in range(1, 5)} == {NOT_ESTABLISHED}


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
