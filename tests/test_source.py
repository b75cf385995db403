"""Checks on the package source text; they parse it and import nothing from it."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "superbracket"
# __init__.py imports names to re-export them, not to use them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn):
    """The nodes of ``fn``'s body, nested function, lambda and class bodies left out."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list:
    """Names a function body stores but never reads, ``_``-prefixed names aside.

    Reads in nested functions and lambdas count, so a local that only a
    closure reads is used; a ``global`` or ``nonlocal`` name is not a local.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        stored, outer = {}, set()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored[node.id] = min(node.lineno, stored.get(node.id, node.lineno))
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
        found += [f"{name} (line {line})" for name, line in stored.items()
                  if name not in read and name not in outer and not name.startswith("_")]
    return sorted(found)


def _module_level_names(tree):
    """(name, line) for each name a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, n.lineno


def _reads(trees) -> set:
    """Every name the trees read: a loaded name, a loaded attribute (``ex._sweep_max``) or a
    from-import."""
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(alias.name for alias in n.names)
    return read


def unused_private_names(sources: dict) -> list:
    """Module-level ``_``-prefixed names of ``sources`` (module -> text) that none of them reads.

    Dunder names are exempt.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _reads(trees.values())
    return sorted(f"{module}: {name} (line {line})"
                  for module, tree in trees.items()
                  for name, line in _module_level_names(tree)
                  if name.startswith("_") and not name.startswith("__") and name not in read)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_defs(tree):
    """(qualified name, name, line) for each public top-level function and class, and
    each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m.name, m.lineno) for m in node.body
                        if isinstance(m, _FUNCTIONS) and not m.name.startswith("_"))


def unread_public_names(sources: dict) -> list:
    """Public functions, classes and methods of ``sources`` (module -> text) that none of them
    reads.

    A method counts as read when any attribute of its name is loaded, whatever the object.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _reads(trees.values())
    return sorted(f"{module}: {qualified} (line {line})"
                  for module, tree in trees.items()
                  for qualified, name, line in _public_defs(tree) if name not in read)


def test_detector_flags_only_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from typing import Dict\n"
        "from . import expressions as ex\n"
        "def f() -> Dict: return np.pi + ex.ONE\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_only_unread_locals():
    source = (
        "def f(xs):\n"
        "    total, seen, _skip = 0, 0, 1\n"
        "    memo = {}\n"
        "    def g(x):\n"
        "        nonlocal total\n"
        "        dead = x\n"
        "        total += memo.setdefault(x, x)\n"
        "    key = lambda x: -x\n"
        "    for x in sorted(xs, key=key):\n"
        "        g(x)\n"
        "    return total\n"
    )
    assert unused_locals(source) == ["dead (line 6)", "seen (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []


def test_detector_flags_only_unread_private_names():
    sources = {
        "a": (
            "__version__ = '1'\n"
            "_TABLE = {}\n"
            "_x, _y = 1, 2\n"
            "_SLICE: int = 256\n"
            "class _Helper: pass\n"
            "def _by_attr(): return _TABLE\n"
            "def _by_import(): return _y\n"
            "def public(): return _Helper()\n"
        ),
        "b": (
            "from .a import _by_import\n"
            "from . import a\n"
            "def f(): return a._by_attr() + _by_import()\n"
        ),
    }
    assert unused_private_names(sources) == ["a: _SLICE (line 4)", "a: _x (line 3)"]


def test_no_unused_private_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_detector_flags_only_unread_public_names():
    sources = {
        "a": (
            "class Node:\n"
            "    def eval(self): return 1\n"
            "    def probe(self): return 2\n"
            "    def _hook(self): return 3\n"
            "    @property\n"
            "    def size(self): return 4\n"
            "def build(): return Node().eval()\n"
            "def helper(): return 5\n"
            "def _private(): return 6\n"
        ),
        "b": (
            "from .a import build\n"
            "def run(n): return build() + n.size\n"
            "run(None)\n"
        ),
    }
    assert unread_public_names(sources) == ["a: Node.probe (line 3)", "a: helper (line 8)"]


# Public names that no package module reads, each kept for the reason given.
UNREAD_PUBLIC_KEPT = {
    "mutate_row": "bench and the mutation tests build their negative controls with it",
    "transformed_algebra_spec": "the algebra side of the paper's family relationships, "
                                "which ROADMAP item 7 turns into a check",
    "Expr.eval_at": "the one-point form of Expr.eval",
}


def test_no_unread_public_names():
    # A public name that only tests call is a hook: delete it, or say above why it stays.
    found = unread_public_names({p.name: p.read_text() for p in MODULES})
    assert sorted(f.split(": ")[1].split(" (line")[0] for f in found) == sorted(UNREAD_PUBLIC_KEPT)


def _assigned_names(tree, target: str) -> set:
    """The names in the module-level value assigned to ``target``: a dict's keys, a set's items."""
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == [target]:
            value = node.value
            if isinstance(value, ast.Call):  # frozenset({...})
                [value] = value.args
            items = value.keys if isinstance(value, ast.Dict) else value.elts
            return {item.id for item in items}
    raise LookupError(target)


def unclassed_node_kinds(source: str) -> list:
    """Concrete ``Expr`` subclasses in both or neither of the two tape-class tables.

    The tables are ``_FLOAT64_KERNELS`` and ``_COMPLEX_ONLY``.

    A concrete node class is one that sets its ``kind``; the abstract bases
    (``_NAry``, ``_Unary``, ...) do not.
    """
    tree = ast.parse(source)
    classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
    nodes = {"Expr"}
    for cls in classes:  # bases come before their subclasses
        if any(getattr(b, "id", None) in nodes for b in cls.bases):
            nodes.add(cls.name)
    concrete = [cls.name for cls in classes if cls.name in nodes and cls.name != "Expr" and any(
        isinstance(s, ast.Assign) and [getattr(t, "id", None) for t in s.targets] == ["kind"]
        for s in cls.body)]
    kernels = _assigned_names(tree, "_FLOAT64_KERNELS")
    complex_only = _assigned_names(tree, "_COMPLEX_ONLY")
    return sorted(name for name in concrete if (name in kernels) == (name in complex_only))


def test_detector_flags_node_kinds_outside_or_in_both_tables():
    source = (
        "class Expr: kind = '?'\n"
        "class _Base(Expr): pass\n"
        "class Leaf(Expr): kind = 'leaf'\n"
        "class Both(_Base): kind = 'both'\n"
        "class New(_Base): kind = 'new'\n"
        "class Plain: kind = 'other'\n"
        "_FLOAT64_KERNELS = {Leaf: f, Both: g}\n"
        "_COMPLEX_ONLY = frozenset({Both})\n"
    )
    assert unclassed_node_kinds(source) == ["Both", "New"]


def test_every_node_kind_has_one_tape_class():
    # A new node kind must say whether a tape may run it in float64: it cannot
    # fall into either class by default.
    assert unclassed_node_kinds((PACKAGE / "expressions.py").read_text()) == []


BENCH = PACKAGE.parent.parent / "bench"


def package_reads(source: str) -> set:
    """(package file, name) for each name a client source takes from the package.

    The names are ``<alias>.<name>`` after ``import superbracket as <alias>`` or
    ``from superbracket import <module> as <alias>``, and each name of
    ``from superbracket[.<module>] import <name>``.
    """
    tree = ast.parse(source)
    files, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            files.update((a.asname or a.name, "__init__.py") for a in node.names
                         if a.name == "superbracket")
        elif isinstance(node, ast.ImportFrom) and node.module == "superbracket":
            for a in node.names:
                if (PACKAGE / f"{a.name}.py").exists():
                    files[a.asname or a.name] = f"{a.name}.py"
                else:
                    reads.add(("__init__.py", a.name))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("superbracket."):
            reads.update((node.module.partition(".")[2] + ".py", a.name) for a in node.names)
    reads.update((files[n.value.id], n.attr) for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                 and n.value.id in files)
    return reads


def _defined_names(tree) -> set:
    """The names a module's top-level statements define or import."""
    names = {name for name, _ in _module_level_names(tree)}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
    return names


def test_package_reads_follow_aliases():
    source = (
        "import superbracket as sb\n"
        "from superbracket import expressions as ex, Sampler\n"
        "from superbracket.algebra import bracket\n"
        "import numpy as np\n"
        "x = sb.Gen.J_L, ex.ONE, np.pi, sb.Gen\n"
    )
    assert package_reads(source) == {("__init__.py", "Gen"), ("__init__.py", "Sampler"),
                                     ("expressions.py", "ONE"), ("algebra.py", "bracket")}


def test_the_names_the_benchmark_reads_exist():
    # bench/ imports the package; a name it reads that the package drops
    # would crash the benchmark, so tier-1 catches it first.
    reads = set().union(*(package_reads(p.read_text()) for p in BENCH.glob("*.py")))
    assert reads
    files = {f for f, _ in reads}
    defined = {f: _defined_names(ast.parse((PACKAGE / f).read_text())) for f in files}
    assert sorted(f"{f}: {name}" for f, name in reads if name not in defined[f]) == []
