"""Every top-level function, class and assigned name under ``src/bipsym`` is
used.

A definition counts as used when ``bipsym.__all__`` lists it, or when code
outside its own body in some ``src/bipsym`` module names it: as a name, as an
attribute or in an import.  Tests and the benchmark harness do not count, so
a helper that only they call belongs with them.  Module hooks such as
``__getattr__`` are called by the interpreter and are exempt.
"""

import ast
from pathlib import Path

import bipsym

SRC = Path(bipsym.__file__).resolve().parent


def _names(node: ast.AST) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def unused_definitions(src: Path) -> list[str]:
    """``module.name`` of each top-level def, class or assigned name that
    nothing else names."""
    defs = []
    used = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # a recursive call does not keep a function alive
                defs.append((path.stem, node.name, _names(node) - {node.name}))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = {
                    sub.id
                    for target in targets
                    for sub in ast.walk(target)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
                }
                defs.extend((path.stem, name, set()) for name in sorted(bound))
                used |= _names(node) - bound
            else:
                used |= _names(node)
    for _, _, names in defs:
        used |= names
    return [
        f"{module}.{name}"
        for module, name, _ in defs
        if name not in used
        and name not in bipsym.__all__
        and not (name.startswith("__") and name.endswith("__"))
    ]


def test_every_definition_is_used():
    assert unused_definitions(SRC) == []


def test_guard_flags_an_unused_helper(tmp_path):
    (tmp_path / "mod.py").write_text(
        "LIMIT = 3\nUNUSED: int = 2\n\n\n"
        "def used():\n    return helper() + LIMIT\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def recursive(k):\n    return recursive(k - 1) if k else 0\n\n\n"
        "class Orphan:\n    pass\n\n\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n\n\n"
        "print(used())\n",
        encoding="utf-8",
    )
    assert unused_definitions(tmp_path) == ["mod.UNUSED", "mod.recursive", "mod.Orphan"]
