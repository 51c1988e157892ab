"""classify, census and every usage error run without numpy.

Only ``realize``, ``verify`` and ``census --realize-all`` compute with
matrices, so only they may import numpy (through ``bipsym.geometry`` and
``bipsym.verifier``).  Each CLI case runs twice in a fresh interpreter:
once as usual, and once with ``sys.modules["numpy"] = None``, which makes
any import of numpy fail.  Both runs must agree byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bipsym

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


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run(prefix: list[str], argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *prefix, *argv], env=_env(), capture_output=True, timeout=60
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
