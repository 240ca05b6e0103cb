"""A stdlib ``ast`` scan of the package for four kinds of dead code.

* A module-level import that its module never reads (pyflakes' F401). An
  import line marked ``# noqa: F401`` is kept on purpose and passes.
* A private (``_name``) top-level function, class or constant that no module
  of the package reads: not by name, not as an attribute and not by import.
* A ``NamedTuple`` field that no module of the package reads as an attribute
  (a field only unpacked by position counts as unread).
* A public top-level function, or public method of a top-level class, that no
  module of the package reads by name or as an attribute, that the package
  does not export and that ``README.md`` never calls.
"""

import ast
import re
from pathlib import Path

import goldenslant

PACKAGE = Path(goldenslant.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def _package_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _loaded(tree: ast.AST) -> set[str]:
    """Names read through a plain name."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a literal ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(sources: dict[str, str]) -> list[str]:
    """``file:line: name`` for each module-level import its module never reads."""
    found = []
    for filename, text in sources.items():
        tree, lines = ast.parse(text), text.splitlines()
        used = _loaded(tree) | _exported(tree)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    found.append(f"{filename}:{alias.lineno}: {bound}")
    return found


def _reads(tree: ast.AST) -> set[str]:
    """Names read by name, as an attribute, or by a ``from ... import``."""
    out = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """``file:line: name`` for each private top-level definition no module reads."""
    trees = {filename: ast.parse(text) for filename, text in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return [f"{filename}:{lineno}: {name}"
            for filename, tree in trees.items()
            for name, lineno in _top_level_names(tree)
            if name.startswith("_") and not name.startswith("__") and name not in read]


def _namedtuple_fields(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield f"{node.name}.{stmt.target.id}", stmt.target.id, stmt.lineno


def unread_fields(sources: dict[str, str]) -> list[str]:
    """``file:line: Class.field`` for each NamedTuple field no module reads as an attribute."""
    trees = {filename: ast.parse(text) for filename, text in sources.items()}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{filename}:{lineno}: {qualified}"
            for filename, tree in trees.items()
            for qualified, field, lineno in _namedtuple_fields(tree)
            if field not in read]


def _public_definitions(tree: ast.Module):
    """``(name, qualified name, line)`` of each public function and method."""
    for node in tree.body:
        methods = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for fn in methods:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                yield fn.name, prefix + fn.name, fn.lineno


def unused_public(sources: dict[str, str], exported: set[str], readme: str) -> list[str]:
    """``file:line: name`` for each public function or method that no module reads by
    name or as an attribute, that is not ``exported`` and that ``readme`` never calls."""
    trees = {filename: ast.parse(text) for filename, text in sources.items()}
    read = set()
    for tree in trees.values():
        read |= _loaded(tree)
        read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return [f"{filename}:{lineno}: {qualified}"
            for filename, tree in trees.items()
            for name, qualified, lineno in _public_definitions(tree)
            if name not in read and name not in exported
            and not re.search(rf"\b{re.escape(name)}\(", readme)]


def test_no_unused_module_level_import():
    assert unused_imports(_package_sources()) == []


def test_no_unreferenced_private_helper():
    assert unreferenced_privates(_package_sources()) == []


def test_no_unread_namedtuple_field():
    assert unread_fields(_package_sources()) == []


def test_no_public_function_only_tests_reach():
    assert unused_public(_package_sources(), set(goldenslant.__all__), README.read_text()) == []


def test_the_scan_finds_dead_code_and_honours_noqa():
    sources = {
        "a.py": ("from __future__ import annotations\n"
                 "import os\n"
                 "import sys  # noqa: F401\n"
                 "from .b import _used, used_too\n"
                 "def _dead():\n"
                 "    return used_too\n"
                 "_CONST = 1\n"),
        "b.py": ("import numpy as np\n"
                 "def _used():\n"
                 "    return np.pi\n"
                 "def _aliased():\n"
                 "    pass\n"
                 "used_too = _aliased\n"),
    }
    assert unused_imports(sources) == ["a.py:2: os", "a.py:4: _used"]
    assert unreferenced_privates(sources) == ["a.py:5: _dead", "a.py:7: _CONST"]


def test_the_scan_finds_unread_namedtuple_fields():
    sources = {
        "a.py": ("from typing import NamedTuple\n"
                 "class Pair(NamedTuple):\n"
                 "    \"\"\"Doc.\"\"\"\n"
                 "    left: int\n"
                 "    right: int\n"
                 "    unpacked: int = 0\n"
                 "class Plain:\n"
                 "    ignored: int\n"),
        "b.py": ("def f(pair):\n"
                 "    left, right, unpacked = pair\n"
                 "    pair.right = 1\n"
                 "    return pair.left\n"),
    }
    assert unread_fields(sources) == ["a.py:5: Pair.right", "a.py:6: Pair.unpacked"]


def test_the_scan_finds_public_functions_nothing_reaches():
    sources = {
        "a.py": ("def exported():\n"
                 "    return helper()\n"
                 "def helper():\n"
                 "    pass\n"
                 "def documented():\n"
                 "    pass\n"
                 "def orphan():\n"
                 "    pass\n"
                 "class Model:\n"
                 "    def read(self):\n"
                 "        return self\n"
                 "    def unread(self):\n"
                 "        return self.read()\n"
                 "    def _private(self):\n"
                 "        pass\n"),
        "b.py": ("def g(model):\n"
                 "    return model.unread\n"
                 "def mentioned():\n"
                 "    pass\n"),
    }
    readme = "Call `documented(x)`; `mentioned` and orphan are only named.\n"
    assert unused_public(sources, {"exported"}, readme) == [
        "a.py:7: orphan", "b.py:1: g", "b.py:3: mentioned"]
