"""Fuzzing of ``bipsym verify`` with mutated realization files.

A real realization file is mutated (keys dropped, values retyped, lists
shortened or lengthened, NaN or infinity inserted, the claimed order set to
any size) and handed to the CLI.  Whatever the file holds, ``cli_main`` must
return 0, 2 or 5 and let no exception escape.

Other integers written into the file are at most 64.  The claimed ``order``
may take any value, up to 10^13 and beyond: ``verify`` refuses an order
above MAX_CLAIMED_ORDER before any product and makes only M^r and M^d for
each proper divisor d of the order, by repeated squaring, so every order
ends in a certificate or exit 2 within seconds.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipsym import BipartiteShape, parse_cycles, realize
from bipsym.cli import cli_main
from bipsym.jsonio import canonical_json, realization_to_obj
from bipsym.verifier import MAX_CLAIMED_ORDER

MAX_INT = 64


def _base() -> dict:
    # OR13 on K_{4,4}: every field, a non-empty subdivision and landmarks
    aut = parse_cycles(BipartiteShape(4, 4), "(v1 w1)(v2 w2)(v3 w3 v4 w4)")
    iso, emb = realize(aut, "or", seed=3)
    return json.loads(canonical_json(realization_to_obj(aut, iso, emb, "OR13", 3)))


BASE = _base()


def _paths(node, prefix=()):
    """Every path from the root to a value below it."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_paths(child, prefix + (key,)))
    return out


PATHS = _paths(BASE)

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, MAX_INT),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=6),
    st.sampled_from(["v1", "w4", "op", "or", "(v1 v2)", "z1"]),
    st.just([]),
    st.just({}),
    st.just([0.0, 0.0, 0.0]),
)
ORDERS = st.one_of(
    st.integers(-3, 10**16),
    st.integers(1, 4 * MAX_CLAIMED_ORDER),
    st.sampled_from([MAX_CLAIMED_ORDER, MAX_CLAIMED_ORDER + 1, 10**13, 2**63, 2**64]),
)
ACTIONS = ("drop", "replace", "nonfinite", "shorten", "lengthen", "wrap", "stringify", "order")


def _parent(obj, path):
    """The container holding ``path``'s last key, or None if it is gone."""
    node = obj
    for key in path[:-1]:
        if isinstance(node, dict) and key in node:
            node = node[key]
        elif isinstance(node, list) and isinstance(key, int) and key < len(node):
            node = node[key]
        else:
            return None
    key = path[-1]
    if isinstance(node, dict) and key in node:
        return node
    if isinstance(node, list) and isinstance(key, int) and key < len(node):
        return node
    return None


@st.composite
def mutated_files(draw):
    obj = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(PATHS))
        action = draw(st.sampled_from(ACTIONS))
        if action == "order":
            obj["order"] = draw(ORDERS)
            continue
        parent = _parent(obj, path)
        if parent is None:
            continue
        key = path[-1]
        value = parent[key]
        if action == "drop":
            del parent[key]
        elif action == "replace":
            parent[key] = copy.deepcopy(draw(LEAVES))
        elif action == "nonfinite":
            parent[key] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        elif action == "shorten" and isinstance(value, list) and value:
            value.pop(draw(st.integers(0, len(value) - 1)))
        elif action == "lengthen" and isinstance(value, list):
            value.append(copy.deepcopy(draw(LEAVES)))
        elif action == "wrap":
            parent[key] = [value]
        elif action == "stringify":
            parent[key] = json.dumps(value)
    return obj


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "realization.json"


@settings(max_examples=300, deadline=None)
@given(obj=mutated_files())
def test_verify_exits_cleanly(obj, fuzz_path):
    path = fuzz_path
    path.write_text(json.dumps(obj), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["verify", str(path)])
    assert code in (0, 2, 5), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


def test_unmutated_file_verifies(tmp_path):
    path = tmp_path / "realization.json"
    path.write_text(json.dumps(BASE), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["verify", str(path)]) == 0
