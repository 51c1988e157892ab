import random
from collections import Counter
from pathlib import Path

import pytest

import bipsym
from bipsym.cli import cli_main
from perfbench import checks, inputs
from perfbench.workloads import CertifyClasses, CliOneshot, malformed

ROOT = Path(__file__).resolve().parents[2]


def class_of(conj: inputs.Conjugate) -> str:
    """Recover the class key from a conjugate's cycles."""
    if conj.cycles and {p for p, _ in conj.cycles[0]} == {"v", "w"}:
        lam = sorted((len(c) // 2 for c in conj.cycles), reverse=True)
        return f"{conj.n},{conj.m}:S:" + ".".join(map(str, lam))
    parts = {}
    for part, size in (("v", conj.n), ("w", conj.m)):
        lens = [len(c) for c in conj.cycles if c[0][0] == part]
        lens += [1] * (size - sum(lens))
        parts[part] = ".".join(map(str, sorted(lens, reverse=True)))
    return f"{conj.n},{conj.m}:P:{parts['v']}:{parts['w']}"


def draw(seed: int, shapes) -> list[inputs.Conjugate]:
    rng = random.Random(seed)
    return [inputs.conjugate(k, rng) for k in inputs.class_keys(shapes)]


def test_class_count_matches_partition_arithmetic():
    assert len(inputs.class_keys(inputs.certify_shapes())) == 5324
    assert [len(inputs.partitions(n)) for n in range(1, 10)] == [1, 2, 3, 5, 7, 11, 15, 22, 30]


def test_inputs_are_deterministic_in_the_seed():
    shapes = [(3, 3), (4, 6), (5, 5)]
    assert draw(7, shapes) == draw(7, shapes)
    a, b = draw(7, shapes), draw(8, shapes)
    assert [c.text() for c in a] != [c.text() for c in b]
    # another seed draws other conjugates of the same class multiset
    assert Counter(map(class_of, a)) == Counter(map(class_of, b))
    assert [class_of(c) for c in a] == [c.key for c in a]


def test_conjugates_belong_to_their_class_in_bipsym():
    for conj in draw(3, [(3, 3), (3, 5), (4, 4)]):
        aut = bipsym.parse_cycles(bipsym.BipartiteShape(conj.n, conj.m), conj.text())
        assert aut.cycle_string() == conj.canonical_text()
        sig = bipsym.signature(aut)
        _, _, kind, lam, mu = inputs.parse_key(conj.key)
        if kind == "S":
            assert sig.mixed_cycles == tuple(sorted(2 * k for k in lam if k))
        else:
            assert sig.pure_v_cycles == tuple(sorted(k for k in lam if k > 1))
            assert sig.pure_w_cycles == tuple(sorted(k for k in mu if k > 1))


def test_sweeps_are_deterministic_in_the_seed(tmp_path: Path):
    def sweep_keys(seed):
        wl = CertifyClasses(tmp_path, seed, tmp_path)
        wl.setup()
        return [c.text() for c, _ in wl.items]

    assert sweep_keys(5) == sweep_keys(5)
    assert sweep_keys(5) != sweep_keys(6)


def test_classify_stdout_rebuild_matches_the_cli(capsys):
    verdicts = checks.load_reference("classes.json")["verdicts"]
    for conj in draw(11, [(3, 3), (3, 4), (4, 4), (4, 6)]):
        assert cli_main(["classify", "--graph", f"{conj.n},{conj.m}", "--perm", conj.text()]) == 0
        out = capsys.readouterr().out.encode()
        assert out == checks.classify_stdout(verdicts.get(conj.key, "|"))


def test_malformed_perms_are_rejected_with_exit_2(capsys):
    rng = random.Random(1)
    for conj in draw(2, [(3, 4), (5, 5)]):
        if not conj.cycles:
            continue
        text = malformed(conj, rng)
        with pytest.raises(bipsym.BipsymError):
            bipsym.parse_cycles(bipsym.BipartiteShape(conj.n, conj.m), text)
    assert cli_main(["classify", "--graph", "3,3", "--perm", "(v1 v4)"]) == 2


def test_cli_round_checks_pass_in_process(tmp_path: Path):
    wl = CliOneshot(ROOT, 4, tmp_path, in_process=True)
    wl.setup()
    for i in range(6):
        for op in wl.sweep(i):
            assert op.check(op.run()) is None, op.kind
    # a changed byte in a census stdout is caught
    launch = wl.census_launch(3)
    code, out = wl.launch_in_process(launch)
    assert launch.check(out) is None
    assert launch.check(out.replace(b'"total":72', b'"total":71')) is not None
