"""Every top-level function, class and assigned name under ``src/bipsym`` is
used, and every name ``bipsym`` exports is used.

A definition counts as used when code outside its own body in some
``src/bipsym`` module names it: as a name, as an attribute or in an import.
Tests and the benchmark harness do not count, so a helper that only they
call belongs with them.  Module hooks such as ``__getattr__`` are called by
the interpreter and are exempt.

``bipsym.__all__`` keeps a definition alive only if the export itself is
used: each exported name must be named, counted the same way, by
``src/bipsym`` code outside ``__init__.py``, or appear in a code span or
block of the README, the documented API.  ``EXPORT_EXEMPT`` lists the
exports that are neither, each with its reason.
"""

import ast
import re
from pathlib import Path

import bipsym

SRC = Path(bipsym.__file__).resolve().parent
README = SRC.parents[1] / "README.md"

# exports that neither src/bipsym nor the README names, each with its reason
EXPORT_EXEMPT = {
    "enumerate_automorphisms": "perfbench/make_reference.py imports it from bipsym",
}


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


def _definitions(src: Path, skip: str = "") -> tuple[list, set[str]]:
    """(module, name, names in its body) of each top-level def, class or
    assigned name in the modules under ``src`` other than ``skip``, and
    every name named outside the body that defines it."""
    defs = []
    used = set()
    for path in sorted(src.glob("*.py")):
        if path.name == skip:
            continue
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
    return defs, used


def unused_definitions(src: Path) -> list[str]:
    """``module.name`` of each top-level def, class or assigned name that
    nothing else names."""
    defs, used = _definitions(src)
    return [
        f"{module}.{name}"
        for module, name, _ in defs
        if name not in used
        and name not in bipsym.__all__
        and not (name.startswith("__") and name.endswith("__"))
    ]


def code_words(markdown: str) -> set[str]:
    """The identifiers in the fenced code blocks and inline code spans of
    ``markdown``; its prose does not count."""
    blocks = re.compile(r"^```.*?^```", re.M | re.S)
    code = blocks.findall(markdown) + re.findall(r"`([^`\n]+)`", blocks.sub("", markdown))
    return {word for text in code for word in re.findall(r"[A-Za-z_]\w*", text)}


def unused_exports(src: Path, readme: str, exports, exempt) -> list[str]:
    """Names in ``exports`` that no module under ``src`` other than
    ``__init__.py`` names and no README code mentions, less ``exempt``."""
    _, used = _definitions(src, skip="__init__.py")
    documented = code_words(readme)
    return [
        name
        for name in exports
        if name not in used and name not in documented and name not in exempt
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


def test_every_export_is_used():
    readme = README.read_text(encoding="utf-8")
    assert unused_exports(SRC, readme, bipsym.__all__, EXPORT_EXEMPT) == []
    assert set(EXPORT_EXEMPT) <= set(bipsym.__all__)


def test_export_guard_reads_code_not_prose(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .mod import documented, helper, internal, prose, rec\n", encoding="utf-8"
    )
    (tmp_path / "mod.py").write_text(
        "def internal():\n    return 1\n\n\n"
        "def helper():\n    return internal()\n\n\n"
        "def rec(k):\n    return rec(k - 1) if k else 0\n\n\n"
        "def documented():\n    return 2\n\n\n"
        "def prose():\n    return 3\n",
        encoding="utf-8",
    )
    readme = "Raise to a power: prose.\n\n```python\ndocumented()\n```\n\nSee `helper`.\n"
    exports = ["documented", "helper", "internal", "prose", "rec"]
    assert unused_exports(tmp_path, readme, exports, {}) == ["prose", "rec"]
    assert unused_exports(tmp_path, readme, exports, {"rec": "why"}) == ["prose"]
