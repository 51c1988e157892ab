"""The census counts automorphisms per conjugacy class; these tests compare
that count with brute-force enumeration and with closed-form arithmetic."""

from collections import Counter

import pytest

from bipsym import (
    BipartiteShape,
    SideAction,
    automorphism_count,
    census,
    enumerate_automorphisms,
    signature,
)
from bipsym.census import _representative, signature_tallies
from bipsym.classifier import classify
from bipsym.jsonio import write_text_atomic

# number of partitions p(k) of k = 1..12
PARTITION_COUNTS = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]

SMALL_SHAPES = [BipartiteShape(n, m) for n in range(3, 6) for m in range(3, 6)]


@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
def test_tally_matches_enumeration(shape):
    oracle = Counter(signature(aut) for aut in enumerate_automorphisms(shape))
    assert signature_tallies(shape) == oracle


@pytest.mark.parametrize(
    "n, m", [(n, m) for n in range(1, 13) for m in range(1, 13)]
)
def test_class_sizes_sum_to_group_order(n, m):
    shape = BipartiteShape(n, m)
    tally = signature_tallies(shape)
    assert sum(tally.values()) == automorphism_count(shape)
    p_n, p_m = PARTITION_COUNTS[n - 1], PARTITION_COUNTS[m - 1]
    assert len(tally) == p_n * p_m + (p_n if n == m else 0)
    swapping = sum(1 for sig in tally if sig.side_action is SideAction.SWAPPING)
    assert swapping == (p_n if n == m else 0)


@pytest.mark.parametrize(
    "n, m", [(n, m) for n in range(3, 13) for m in range(3, 13)]
)
def test_representative_has_its_signature(n, m):
    for sig in signature_tallies(BipartiteShape(n, m)):
        assert signature(_representative(sig)) == sig


def test_k66_report_pinned():
    # counts from exhaustive enumeration of all 1,036,800 automorphisms
    report = census(BipartiteShape(6, 6))
    assert report.total == 1_036_800
    assert report.per_case == {
        "OP1": 142945,
        "OP2": 5351,
        "OP3": 32211,
        "OP4": 13200,
        "OP6": 1200,
        "OP7": 8100,
        "OP9": 75600,
        "OR10": 14625,
        "OR11": 120,
        "OR12a": 16200,
        "OR12b": 15975,
        "OR12c": 14400,
        "OR12d": 9600,
        "OR13": 194400,
    }
    assert report.unrealizable_op == 770343
    assert report.unrealizable_or == 781305
    assert report.realized_verified is None

    # every realizable (class, orientation) of K_{6,6} verifies, so the
    # realize-all count is every realizable (automorphism, orientation) pair
    realized = census(BipartiteShape(6, 6), realize_all=True)
    assert realized.realized_verified == 521952
    pairs = sum(
        count * (classify(sig).op_realizable + classify(sig).or_realizable)
        for sig, count in signature_tallies(BipartiteShape(6, 6)).items()
    )
    assert pairs == 521952


def test_atomic_write_leaves_old_file_on_failure(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    write_text_atomic(path, "old")
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def fail(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr("bipsym.jsonio.os.replace", fail)
    with pytest.raises(OSError):
        write_text_atomic(path, "new")
    assert path.read_text("utf-8") == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

