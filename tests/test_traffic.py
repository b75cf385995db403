"""Every package function runs in the product's traffic.

The traffic is what users and the benchmark run: every bundled suite through
``superbracket.cli.main`` (as JSON at a fixed seed into a file, and as text
with timing), the unbraided ``d_plus_one`` pair that the benchmark's
``coproduct_dense`` workload runs, ``list-checks`` and ``explain``.  It runs
in a fresh interpreter under ``sys.setprofile``, so calls made while the
package is imported count too.  A function, method or property that never
runs there is code that no verdict needs: delete it, or say below why it
stays.
"""
import ast
import json
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "superbracket"

# Run in a fresh interpreter: argv[1] is the directory to import from, argv[2]
# the package directory whose code is recorded, argv[3] the traffic's source and
# argv[4] the file the (file, first line) of each code object that ran goes to.
_PROFILED = """
import json, sys
sys.path.insert(0, sys.argv[1])
root = sys.argv[2]
ran = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        ran.add((code.co_filename, code.co_firstlineno))

traffic = compile(sys.argv[3], "<traffic>", "exec")
sys.setprofile(profile)
try:
    exec(traffic, {})
finally:
    sys.setprofile(None)
with open(sys.argv[4], "w") as out:
    json.dump(sorted(r for r in ran if r[0].startswith(root)), out)
"""


def ran_code(src: Path, package: Path, traffic: str, tmp: Path) -> set:
    """(file, first line) of each code object of ``package`` that ran while ``traffic`` did.

    ``traffic`` runs in a fresh interpreter that imports from ``src``; its
    output is discarded and a failure raises.
    """
    out = tmp / "ran.json"
    subprocess.run([sys.executable, "-c", _PROFILED, str(src.resolve()), str(package.resolve()),
                    traffic, str(out)], check=True, stdout=subprocess.DEVNULL)
    return {tuple(r) for r in json.loads(out.read_text())}


_EXEMPT = {"__repr__", "_repr", "__str__"}


def _only_raises(fn) -> bool:
    """Whether ``fn``'s body, its docstring aside, is one ``raise``."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return len(body) == 1 and isinstance(body[0], ast.Raise)


def _defs(tree, prefix=""):
    """(qualified name, def) for each function, method and property in ``tree``, nested
    ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _defs(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node, f"{prefix}{node.name}.")
        else:
            yield from _defs(node, prefix)


def never_ran(package: Path, ran: set) -> list:
    """``module: qualified name`` of each def in ``package`` whose code is not in ``ran``.

    A def's code starts at its first decorator.  ``__repr__``, ``_repr``,
    ``__str__`` and bodies that only raise are exempt.
    """
    found = []
    for path in sorted(package.glob("*.py")):
        for name, fn in _defs(ast.parse(path.read_text())):
            first = min([fn.lineno, *(d.lineno for d in fn.decorator_list)])
            if (fn.name not in _EXEMPT and not _only_raises(fn)
                    and (str(path.resolve()), first) not in ran):
                found.append(f"{path.stem}: {name}")
    return sorted(found)


def test_detector_flags_only_functions_that_never_ran(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import run\n")
    (pkg / "a.py").write_text(
        "import functools\n"
        "def table(n): return list(range(n))\n"
        "TABLE = table(3)  # runs only while the module is imported\n"
        "class Node:\n"
        "    def __repr__(self): return 'Node'\n"
        "    def diff(self):\n"
        "        '''Each subclass says.'''\n"
        "        raise NotImplementedError\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    @functools.lru_cache\n"
        "    def cached(self): return 2\n"
        "    def dead(self): return 3\n"
        "def run():\n"
        "    def inner(): return Node().size\n"
        "    def unused(): return 4\n"
        "    return inner()\n"
        "def helper(): return 5\n"
    )
    ran = ran_code(tmp_path, pkg, "import pkg\npkg.run()\n", tmp_path)
    assert never_ran(pkg, ran) == ["a: Node.cached", "a: Node.dead", "a: helper", "a: run.unused"]


TRAFFIC = f"""
import tempfile
from pathlib import Path
from superbracket.cli import main
from superbracket.runner import CHECKS

suites = sorted(Path({str(PACKAGE / "suites")!r}).glob("*.suite"))
with tempfile.TemporaryDirectory() as tmp:
    unbraided = Path(tmp) / "unbraided.suite"
    text = (Path({str(PACKAGE / "suites")!r}) / "d_plus_one.suite").read_text()
    unbraided.write_text(text.replace("braiding = braided", "braiding = unbraided"))
    for suite in [*suites, unbraided]:
        main(["run", str(suite), "--seed", "7", "--out", str(Path(tmp) / "out.json")])
        main(["run", str(suite), "--format", "text", "--timing"])
main(["list-checks"])
for check in CHECKS:
    main(["explain", check])
"""

# Functions that the traffic never runs, each kept for the reason given.
NEVER_RAN_KEPT = {
    "algebra: mutate_row": "bench builds its negative controls with it",
    "reports: ConsistencyReport.summary": "bench/workloads.py::report_ok calls it",
    "families: transformed_algebra_spec": "the algebra side of the paper's family "
                                          "relationships, which ROADMAP item 7 turns into a check",
    "errors: PoleError.__init__": "the error path of an evaluation at a pole",
    "suite: SuiteParseError.__init__": "the error path of a suite that does not parse",
}


def test_every_package_function_runs_in_the_traffic(tmp_path):
    ran = ran_code(PACKAGE.parent, PACKAGE, TRAFFIC, tmp_path)
    assert never_ran(PACKAGE, ran) == sorted(NEVER_RAN_KEPT)
