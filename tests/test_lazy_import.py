"""classify, census and every usage error run without numpy.

Only ``realize``, ``verify`` and ``census --realize-all`` compute with
matrices, so only they may import numpy (through ``bipsym.geometry`` and
``bipsym.verifier``).  Each CLI case runs twice in a fresh interpreter:
once as usual, and once with ``sys.modules["numpy"] = None``, which makes
any import of numpy fail.  Both runs must agree byte for byte.

The launches that do import numpy load it with one BLAS thread unless the
user chose a thread count; the count must never change a byte of output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bipsym
from bipsym.cli import cli_main

SRC = str(Path(bipsym.__file__).resolve().parents[1])

WITHOUT_NUMPY = (
    "import runpy, sys\n"
    "sys.modules['numpy'] = None\n"
    "runpy.run_module('bipsym.cli', run_name='__main__', alter_sys=True)\n"
)

# (argv, exit code)
CASES = {
    "classify": (["classify", "--graph", "4,4", "--perm", "(v1 v2)(w1 w2 w3)"], 0),
    "census_3_3_json": (["census", "3", "3"], 0),
    "census_3_3_csv": (["census", "3", "3", "--format", "csv"], 0),
    "census_4_4_json": (["census", "4", "4"], 0),
    "census_4_4_csv": (["census", "4", "4", "--format", "csv"], 0),
    "out_of_scope_exit_3": (["classify", "--graph", "2,5", "--perm", "(w1 w2 w3)"], 3),
    "not_realizable_exit_4": (
        ["realize", "--graph", "3,3", "--perm", "(v1 v2 v3)(w1 w2 w3)",
         "--orientation", "or"],
        4,
    ),
    "malformed_perm_exit_2": (["classify", "--graph", "3,3", "--perm", "(v1 v2"], 2),
    "missing_argument_exit_2": (["classify", "--graph", "3,3"], 2),
    "version": (["--version"], 0),
}


# the variables OpenBLAS reads for its thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# records the BLAS thread variables as they stand when numpy is first looked
# up, then runs the CLI as the console script does, and prints the record last
RECORD_BLAS_THREADS = (
    "import os, runpy, sys\n"
    "class Probe:\n"
    "    seen = []\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'numpy' and not self.seen:\n"
    f"            self.seen.append(tuple(map(os.environ.get, {BLAS_THREAD_VARS!r})))\n"
    "sys.meta_path.insert(0, Probe())\n"
    "try:\n"
    "    runpy.run_module('bipsym.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(repr(Probe.seen), file=sys.stderr)\n"
)


def _env(**blas_threads: str) -> dict:
    """The test's environment with the BLAS thread variables set as given."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_threads)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run(
    prefix: list[str], argv: list[str], **blas_threads: str
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *prefix, *argv],
        env=_env(**blas_threads),
        capture_output=True,
        timeout=60,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_runs_without_numpy(case):
    argv, code = CASES[case]
    usual = _run(["-m", "bipsym.cli"], argv)
    blocked = _run(["-c", WITHOUT_NUMPY], argv)
    assert usual.returncode == code, usual.stderr
    assert blocked.returncode == code, blocked.stderr
    assert blocked.stdout == usual.stdout
    assert blocked.stderr == usual.stderr


def test_realize_needs_numpy():
    # the control: a subcommand that builds an isometry does import numpy
    argv = ["realize", "--graph", "3,4", "--perm", "(w3 w4)", "--orientation", "or"]
    blocked = _run(["-c", WITHOUT_NUMPY], argv)
    assert blocked.returncode == 1
    assert b"numpy" in blocked.stderr


REALIZE = ["realize", "--graph", "3,4", "--perm", "(w3 w4)", "--orientation", "or"]


@pytest.mark.parametrize(
    "blas_threads, expected",
    [
        ({}, ("1", None, None)),
        ({"OPENBLAS_NUM_THREADS": "2"}, ("2", None, None)),
        ({"GOTO_NUM_THREADS": "2"}, (None, "2", None)),
        ({"OMP_NUM_THREADS": "2"}, (None, None, "2")),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "2"}, ("4", None, "2")),
    ],
)
def test_numpy_loads_with_one_blas_thread_unless_the_user_chose(blas_threads, expected):
    out = _run(["-c", RECORD_BLAS_THREADS], REALIZE, **blas_threads)
    assert out.returncode == 0, out.stderr
    assert out.stderr.decode().splitlines() == [repr([expected])]


def test_importing_bipsym_leaves_the_environment_alone():
    probe = (
        "import os\n"
        "before = dict(os.environ)\n"
        "import bipsym.cli, bipsym.geometry, bipsym.verifier\n"
        "print(dict(os.environ) == before)\n"
    )
    out = _run(["-c", probe], [])
    assert out.returncode == 0, out.stderr
    assert out.stdout == b"True\n"


def test_cli_main_leaves_the_environment_alone(capsys):
    before = dict(os.environ)
    assert cli_main(REALIZE) == 0
    assert dict(os.environ) == before
    assert capsys.readouterr().out.startswith("{")


# (graph, perm, orientation): a few classes, the last one subdivided (z1)
BLAS_CLASSES = [
    ("3,4", "(w3 w4)", "or"),
    ("4,4", "(v1 v2 v3 v4)(w1 w2 w3 w4)", "op"),
    ("4,4", "(v1 w1 v2 w2 v3 w3 v4 w4)", "or"),
    ("6,6", "(v1 v2 v3)(v4 v5 v6)(w1 w2 w3 w4 w5 w6)", "op"),
    ("3,3", "(v1 w1 v2 w2 v3 w3)", "op"),
]


@pytest.mark.parametrize("graph, perm, orientation", BLAS_CLASSES)
def test_blas_threads_change_no_output(tmp_path, graph, perm, orientation):
    argv = ["realize", "--graph", graph, "--perm", perm, "--orientation", orientation]
    outputs = []
    for blas_threads in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        realized = _run(["-m", "bipsym.cli"], argv, **blas_threads)
        assert realized.returncode == 0, realized.stderr
        path = tmp_path / "realization.json"
        path.write_bytes(realized.stdout)
        verified = _run(["-m", "bipsym.cli"], ["verify", str(path)], **blas_threads)
        assert verified.returncode == 0, verified.stderr
        outputs.append((realized.stdout, verified.stdout))
    assert outputs[0] == outputs[1]
    if graph == "3,3":
        assert b'"z1"' in outputs[0][0]


def test_import_bipsym_loads_no_numpy():
    probe = (
        "import sys, bipsym\n"
        "print(sorted(m for m in ('numpy', 'bipsym.geometry', 'bipsym.verifier')"
        " if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_env(), capture_output=True, timeout=60,
        check=True, text=True,
    )
    assert out.stdout == "[]\n"


def test_every_public_name_resolves():
    for name in bipsym.__all__:
        getattr(bipsym, name)
    assert set(bipsym._LAZY) <= set(bipsym.__all__)
    assert set(bipsym.__all__) <= set(dir(bipsym))
    # a resolved name is cached, so later lookups skip __getattr__
    assert vars(bipsym)["realize"] is bipsym.geometry.realize
    with pytest.raises(AttributeError, match="no_such_name"):
        bipsym.no_such_name
