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

    A method counts as read when any attribute of its name is loaded, whatever the object,
    and only then: a bare name or an import of the same name does not read it.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _reads(trees.values())
    attributes = {n.attr for tree in trees.values() for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{module}: {qualified} (line {line})"
                  for module, tree in trees.items()
                  for qualified, name, line in _public_defs(tree)
                  if name not in (attributes if "." in qualified else read))


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
            "    def replace(self): return 7\n"
            "def build(): return Node().eval()\n"
            "def helper(): return 5\n"
            "def _private(): return 6\n"
        ),
        "b": (
            "from .a import build\n"
            "from dataclasses import replace\n"
            "def run(n): return build() + n.size + replace(n)\n"
            "run(None)\n"
        ),
    }
    assert unread_public_names(sources) == ["a: Node.probe (line 3)", "a: Node.replace (line 7)",
                                            "a: helper (line 9)"]


# Public names that no package module reads, each kept for the reason given.
UNREAD_PUBLIC_KEPT = {
    "mutate_row": "bench and the mutation tests build their negative controls with it",
    "transformed_algebra_spec": "the algebra side of the paper's family relationships, "
                                "which ROADMAP item 7 turns into a check",
    "ConsistencyReport.summary": "bench/workloads.py::report_ok calls it",
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
    (``_NAry``, ``_Unary``, ...) do not.  ``Const`` and ``Var`` are the
    compiler's leaves, in neither table: a constant's class is its value's,
    and a variable is real.
    """
    tree = ast.parse(source)
    classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
    nodes = {"Expr"}
    for cls in classes:  # bases come before their subclasses
        if any(getattr(b, "id", None) in nodes for b in cls.bases):
            nodes.add(cls.name)
    leaves = {"Expr", "Const", "Var"}
    concrete = [cls.name for cls in classes if cls.name in nodes and cls.name not in leaves and any(
        isinstance(s, ast.Assign) and [getattr(t, "id", None) for t in s.targets] == ["kind"]
        for s in cls.body)]
    kernels = _assigned_names(tree, "_FLOAT64_KERNELS")
    complex_only = _assigned_names(tree, "_COMPLEX_ONLY")
    return sorted(name for name in concrete if (name in kernels) == (name in complex_only))


def test_detector_flags_node_kinds_outside_or_in_both_tables():
    source = (
        "class Expr: kind = '?'\n"
        "class _Base(Expr): pass\n"
        "class Const(Expr): kind = 'const'\n"
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


def _defaulted(fn, bound: bool) -> list:
    """(position, name) of each parameter of ``fn`` that has a default.

    Positions count the arguments a caller passes (``self`` or ``cls`` left out when
    ``bound``); a keyword-only parameter has position None.
    """
    a = fn.args
    positional = [*a.posonlyargs, *a.args][1 if bound else 0:]
    first = len(positional) - len(a.defaults)
    return ([(i, p.arg) for i, p in enumerate(positional) if i >= first]
            + [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])


def _options(tree):
    """(called name, qualified name, defaulted parameters) for each public top-level function
    and each public method and ``__init__`` of a public top-level class.

    An ``__init__`` is called by its class's name.
    """
    for node in tree.body:
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, _FUNCTIONS):
            yield node.name, node.name, _defaulted(node, bound=False)
            continue
        for m in node.body:
            if isinstance(m, _FUNCTIONS) and m.name == "__init__":
                yield node.name, node.name, _defaulted(m, bound=True)
            elif isinstance(m, _FUNCTIONS) and not m.name.startswith("_"):
                static = any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
                yield m.name, f"{node.name}.{m.name}", _defaulted(m, bound=not static)


def unset_options(sources: dict, callers: list) -> list:
    """``name(parameter)`` for each defaulted parameter of ``sources`` (module -> text) that no
    call in ``callers`` (texts) passes.

    A call passes a parameter by keyword, by position, or through a ``*`` or ``**`` splat.
    Calls are matched by the called name alone, whatever the object, so two blind spots
    remain: a parameter the package passes only on to itself, and one that a same-named
    call with more arguments seems to pass (``ex.add`` with four addends hides
    ``ConsistencyReport.add``'s ``note``).
    """
    calls = {}
    for text in callers:
        for call in ast.walk(ast.parse(text)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            splat = (any(isinstance(a, ast.Starred) for a in call.args)
                     or any(k.arg is None for k in call.keywords))
            keywords = {k.arg for k in call.keywords}
            calls.setdefault(name, []).append((len(call.args), keywords, splat))

    def passed(called, position, param):
        return any(splat or param in keywords or position is not None and position < n
                   for n, keywords, splat in calls.get(called, ()))

    return sorted(f"{qualified}({param})"
                  for text in sources.values()
                  for called, qualified, params in _options(ast.parse(text))
                  for position, param in params if not passed(called, position, param))


def test_detector_flags_only_options_no_caller_sets():
    sources = {
        "a": (
            "def build(x, scale=1.0, *, strict=False, tag=None): return x\n"
            "def run(argv=None): return argv\n"
            "def _private(flag=True): return flag\n"
            "class Engine:\n"
            "    def __init__(self, table, budget=10): self.table = table\n"
            "    def step(self, n=1, note=''): return n\n"
            "    def _hook(self, flag=True): return flag\n"
            "    @staticmethod\n"
            "    def make(c=1.0): return c\n"
        ),
    }
    callers = [
        "build(1, 2.0, tag='t')\n"
        "e = Engine(t)\n"
        "e.step(note='x')\n"
        "run(**opts)\n"
        "Engine.make(2.0)\n"
    ]
    assert unset_options(sources, callers) == ["Engine(budget)", "Engine.step(n)",
                                               "build(strict)"]


# Options that no package module and no benchmark call sets, each kept for the reason given.
UNSET_OPTIONS_KEPT = {
    "main(argv)": "the console entry point calls main() and argparse reads sys.argv",
    "mutate_row(factor)": "the mutation tests pass NaN, pole and 1 + 1e-10 factors",
}


def test_no_option_only_tests_set():
    # An option that only tests set is a negative control or a fixed value: make it a
    # mutant in the test that uses it, or a constant, or say above why it stays.
    callers = [p.read_text() for p in [*MODULES, *sorted(BENCH.glob("*.py"))]]
    found = unset_options({p.name: p.read_text() for p in MODULES}, callers)
    assert found == sorted(UNSET_OPTIONS_KEPT)


def _fields(tree):
    """(qualified name, name, line) for each field of a top-level class: an annotated
    class-level name, or an attribute a method stores on ``self``."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        found = {}
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                found.setdefault(item.target.id, item.lineno)
            elif isinstance(item, _FUNCTIONS):
                for n in ast.walk(item):
                    if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                            and getattr(n.value, "id", None) == "self"):
                        found.setdefault(n.attr, n.lineno)
        yield from ((f"{node.name}.{name}", name, line) for name, line in found.items())


def unread_fields(sources: dict, readers: list) -> list:
    """Fields of the classes in ``sources`` (module -> text) whose name no text in
    ``readers`` loads as an attribute, whatever the object."""
    loaded = {n.attr for text in readers for n in ast.walk(ast.parse(text))
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{module}: {qualified} (line {line})"
                  for module, text in sources.items()
                  for qualified, name, line in _fields(ast.parse(text)) if name not in loaded)


def test_detector_flags_only_unread_fields():
    sources = {
        "a": (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Map:\n"
            "    ops: dict\n"
            "    spec: object\n"
            "    kind = 'map'\n"
            "    def __init__(self, ops):\n"
            "        self.ops = ops\n"
            "        self.cache, self.hits = {}, 0\n"
            "    def get(self, g):\n"
            "        self.hits += 1\n"
            "        return self.ops[g]\n"
            "def build(m): m.note = 'x'; return m\n"
        ),
    }
    readers = [sources["a"], "def f(m): return m.get(1), m.kind\n"]
    # a counter that is only incremented is stored, never read
    assert unread_fields(sources, readers) == ["a: Map.cache (line 9)", "a: Map.hits (line 9)",
                                               "a: Map.spec (line 5)"]


# Fields that nothing reads, each kept for the reason given.
UNREAD_FIELDS_KEPT: dict = {}


def test_no_unread_fields():
    # A stored value that no module and no benchmark reads is built for nothing:
    # delete it, or say above why it stays.
    readers = [p.read_text() for p in [*MODULES, *sorted(BENCH.glob("*.py"))]]
    found = unread_fields({p.name: p.read_text() for p in MODULES}, readers)
    assert sorted(f.split(": ")[1].split(" (line")[0] for f in found) == sorted(UNREAD_FIELDS_KEPT)
