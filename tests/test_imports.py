"""No flatscape module imports a name it does not use, the package reads
every private function, method and class it defines, and each module reads
every UPPER_CASE constant it defines.

An import, a private helper or a constant left behind by a refactor keeps
dead code alive and misleads a reader about what a module needs.  The
package ``__init__`` is excepted from the import check: its imports are the
public re-exports.
"""
import ast
import re
from pathlib import Path

import pytest

import flatscape

PACKAGE = sorted(Path(flatscape.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value))
                         if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: imported but unused {unused}"


def test_check_flags_an_unused_import():
    tree = ast.parse("from .bits import Space, popcount\n"
                     "import numpy as np\n"
                     "def f(x) -> 'Space':\n"
                     "    return np.sum(x)\n")
    assert set(_imported(tree)) - _used(tree) == {"popcount"}


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private (underscored, not dunder) function, method and class
    the module defines, with the line of its definition."""
    return {node.name: node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_")
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _read(tree: ast.Module) -> set[str]:
    """Every name and attribute the module reads."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and isinstance(node.ctx, ast.Load)})


def _unread(trees: dict[str, ast.Module]) -> dict[str, int]:
    read = set().union(*(_read(tree) for tree in trees.values()))
    return {f"{module}:{name}": line for module, tree in trees.items()
            for name, line in _private_definitions(tree).items()
            if name not in read}


def test_package_reads_every_private_definition():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in PACKAGE}
    unread = _unread(trees)
    assert not unread, f"defined but never read: {unread}"


def test_check_flags_an_unread_private_definition():
    trees = {"a.py": ast.parse("def _kept(x):\n"
                               "    return x\n"
                               "def _dead(x):\n"
                               "    return x\n"
                               "class Space:\n"
                               "    def __init__(self):\n"
                               "        self._dead = 1\n"
                               "    def _method(self):\n"
                               "        return self._unused\n"
                               "    def _orphan(self):\n"
                               "        pass\n"),
             "b.py": ast.parse("from .a import _kept\n"
                               "print(_kept(1), Space()._method())\n")}
    assert set(_unread(trees)) == {"a.py:_dead", "a.py:_orphan"}


def _unread_constants(tree: ast.Module) -> dict[str, int]:
    """Each module-level UPPER_CASE name the module assigns and never reads
    by name itself, with the line of its assignment."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assigned = {}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name)
                        and re.fullmatch(r"[A-Z][A-Z0-9_]*", name.id)):
                    assigned.setdefault(name.id, node.lineno)
    return {name: line for name, line in assigned.items() if name not in read}


@pytest.mark.parametrize("path", PACKAGE, ids=[p.stem for p in PACKAGE])
def test_module_reads_every_constant_it_defines(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = _unread_constants(tree)
    assert not unread, f"{path.name}: constant never read here {unread}"


def test_check_flags_an_unread_constant():
    tree = ast.parse("LIMIT = 4\n"
                     "STALE: int = 2\n"
                     "A, B = 1, 2\n"
                     "_private = 3\n"
                     "def f(x):\n"
                     "    LOCAL = 1\n"
                     "    return x < LIMIT + A + other.STALE\n")
    assert set(_unread_constants(tree)) == {"STALE", "B"}
