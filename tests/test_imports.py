"""No flatscape module imports a name it does not use, the package reads
every private function, method and class it defines, code outside tests/
reads every one, and each module reads every UPPER_CASE constant it defines.

An import, a helper or a constant left behind by a refactor keeps dead code
alive and misleads a reader about what a module needs; what only tests read
belongs in tests/oracles.py.  The package ``__init__`` is excepted from the
import check: its imports are the public re-exports.
"""
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import flatscape

PACKAGE = sorted(Path(flatscape.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
REPO = Path(__file__).resolve().parents[1]
READERS = sorted([*REPO.glob("scripts/*.py"), *REPO.glob("perfbench/*.py")])


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


def _parse(paths) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in paths}


def _definitions(tree: ast.AST, prefix: str = "") -> list[ast.AST]:
    """Each function, method and class the tree defines whose name starts
    with ``prefix``, dunders excepted."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith(prefix)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _read_counts(tree: ast.AST, names: bool = True) -> Counter:
    """How often the tree reads each name: as a name (if ``names``) or an
    attribute, or as a part of a dotted-name string constant, the way
    ``perfbench/spans.py`` names the functions it wraps."""
    reads = Counter()
    for node in ast.walk(tree):
        if (names and isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value)):
            reads.update(node.value.split("."))
    return reads


def _unread(trees: dict[str, ast.Module], readers=(),
            prefix: str = "") -> dict[str, int]:
    """Each definition in ``trees`` that neither ``readers`` nor the trees
    outside the definition's own body read, with the line it starts on.  A
    method (a def directly in a class body) is read only through an
    attribute or a dotted-name string: a bare name can be a module function
    of the same name."""
    methods = {node for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    unread = {}
    for names in (True, False):  # functions and classes, then methods
        outside = sum((_read_counts(r, names) for r in readers), Counter())
        inside = sum((_read_counts(t, names) for t in trees.values()),
                     Counter())
        unread.update({f"{module}:{node.name}": node.lineno
                       for module, tree in trees.items()
                       for node in _definitions(tree, prefix)
                       if (node in methods) != names
                       and not outside[node.name]
                       and inside[node.name]
                       <= _read_counts(node, names)[node.name]})
    return unread


def test_package_reads_every_private_definition():
    unread = _unread(_parse(PACKAGE), prefix="_")
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
    assert set(_unread(trees, prefix="_")) == {"a.py:_dead", "a.py:_orphan"}


def test_library_reads_every_definition_outside_tests():
    readers = [ast.parse(path.read_text()) for path in READERS]
    unread = _unread(_parse(PACKAGE), readers)
    assert not unread, ("read only from tests/, so it belongs in "
                        f"tests/oracles.py: {unread}")


def test_check_flags_a_test_only_definition():
    trees = {"a.py": ast.parse("def kept(): pass\n"
                               "def recursive(x): return recursive(x)\n"
                               "def wrapped(): pass\n"
                               "class Space:\n"
                               "    def __len__(self): return 0\n"
                               "    def build(self): pass\n"
                               "    def orphan(self): return self.build()\n"
                               "class Node:\n"
                               "    def leaf(self): return Node()\n"
                               "class Grid:\n"
                               "    def size(self): pass\n"
                               "    def helper(self): pass\n"),
             "b.py": ast.parse("from .a import Grid, kept\nkept()\n"
                               "Grid().size()\n"
                               "def helper(): pass\nhelper()\n")}
    readers = [ast.parse("from flatscape.a import wrapped\nwrapped()\n"
                         "TARGETS = (('a', 'Space.build', 'span'),)\n")]
    assert set(_unread(trees, readers)) == {"a.py:recursive", "a.py:orphan",
                                            "a.py:Node", "a.py:leaf",
                                            "a.py:helper"}


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
