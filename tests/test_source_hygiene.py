"""Static checks over the package source (no linter is required to run them)."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rdarp"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never mentions again."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_detector_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom math import inf, pi\n"
              "def f():\n    return np.zeros(1), pi\n")
    assert unused_imports(source) == ["line 2: os", "line 4: inf"]


def test_no_unused_imports_in_package():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def module_level_containers(source: str) -> list[str]:
    """Names bound at module level to a mutable dict, list or set.

    Such a value is shared by every caller in the process, so state kept in
    it (a cache, a cap) leaks from one solve into the next. Only statements
    at the top of the module count, not those inside functions or classes.
    """
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        mutable = isinstance(value, MUTABLE_DISPLAYS) or (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in MUTABLE_CALLS)
        if mutable:
            names = [ast.unparse(t) for t in targets]
            found.append(f"line {node.lineno}: {', '.join(names)}")
    return found


def test_container_detector_flags_only_mutable_module_bindings():
    source = ("import types\n"
              "A = {}\nB: list[int] = []\nC = set()\nD = (1, 2)\nE = frozenset({1})\n"
              "F = types.MappingProxyType({'a': 1})\nG = {i: i for i in D}\n"
              "def f():\n    local = {}\n    return local\n"
              "class K:\n    table = {}\n")
    assert module_level_containers(source) == ["line 2: A", "line 3: B", "line 4: C",
                                               "line 8: G"]


def test_no_mutable_module_level_containers_in_package():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: module_level_containers(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """Sibling modules or names a module imports that are private (their
    name starts with an underscore; dunders like ``__version__`` are
    public): ``from . import _m``, ``from ._m import x``, ``from .m import
    _x`` and ``import rdarp._m``, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "rdarp"
                                                 or (node.module or "").startswith("rdarp.")):
            parts = (node.module or "").split(".")
            names = [a.name for a in node.names]
            if any(_private(p) for p in parts) or any(_private(n) for n in names):
                found.append(f"line {node.lineno}: from {'.' * node.level}{node.module or ''} "
                             f"import {', '.join(names)}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "rdarp" and any(_private(p) for p in parts[1:]):
                    found.append(f"line {node.lineno}: import {alias.name}")
    return found


def test_private_import_detector_flags_only_private_siblings():
    source = ("from __future__ import annotations\nimport os._x\n"
              "from . import _engine\nfrom ._engine import run\nfrom .pricing import _Label\n"
              "from . import __version__, pricing\nimport rdarp._engine\n"
              "from rdarp.oracle import _route\n"
              "def f():\n    from .lp import _solve\n    from .lp import solve_lp\n")
    assert private_imports(source) == [
        "line 3: from . import _engine", "line 4: from ._engine import run",
        "line 5: from .pricing import _Label", "line 7: import rdarp._engine",
        "line 8: from rdarp.oracle import _route", "line 10: from .lp import _solve"]


def test_no_module_imports_a_private_sibling():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {p.name: private_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def sibling_imports(source: str, modules: set[str]) -> set[str]:
    """The ``modules`` of the package a module imports, at any depth:
    ``from .m import x``, ``from . import m``, ``from rdarp.m import x``,
    ``from rdarp import m`` and ``import rdarp.m``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            dotted = node.module or ""
            if not node.level:
                root, _, dotted = dotted.partition(".")
                if root != "rdarp":
                    continue
            first = dotted.split(".")[0]
            found.update([first] if first else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("rdarp."))
    return found & modules


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """A cycle of ``graph`` (module -> modules it imports) as the path that
    closes it, ``[a, b, a]``; empty when the graph is acyclic."""
    done: set[str] = set()

    def visit(node: str, path: list[str]) -> list[str]:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return []
        for nxt in sorted(graph[node]):
            cycle = visit(nxt, path + [node])
            if cycle:
                return cycle
        done.add(node)
        return []

    for node in sorted(graph):
        cycle = visit(node, [])
        if cycle:
            return cycle
    return []


def reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    """The modules ``start`` imports, directly or through others."""
    seen, todo = set(), [start]
    while todo:
        for nxt in graph[todo.pop()] - seen:
            seen.add(nxt)
            todo.append(nxt)
    return seen


def test_import_graph_detectors():
    source = ("from __future__ import annotations\nimport os.path\nimport rdarp.lp\n"
              "from . import __version__, oracle\nfrom .instance import Instance\n"
              "from rdarp.pricing import solve_pricing\nfrom rdarp import cuts as c\n"
              "def f():\n    from .master import COST\n    from .lp.sub import x\n")
    modules = {"lp", "oracle", "instance", "pricing", "cuts", "master", "bcp"}
    assert sibling_imports(source, modules) == modules - {"bcp"}
    graph = {"a": {"b"}, "b": {"c"}, "c": set(), "d": {"a"}}
    assert import_cycle(graph) == []
    assert reachable(graph, "a") == {"b", "c"}
    assert reachable(graph, "c") == set()
    assert import_cycle({**graph, "c": {"d"}}) == ["a", "b", "c", "d", "a"]


SOLVER_LAYERS = {"oracle", "pricing", "master", "cuts", "bcp", "cli"}


def test_package_imports_are_layered():
    """The package's imports, inside functions too, form no cycle, and the
    problem data (``instance``) and the extension semantics
    (``calibration``) reach none of the oracle's or the solver's modules. A
    formula both sides need, such as the exposure a schedule gives, lives
    low, in one place, and is imported from there."""
    modules = {p.stem for p in SRC.glob("*.py") if p.name != "__init__.py"}
    graph = {m: sibling_imports((SRC / f"{m}.py").read_text(), modules) for m in modules}
    assert graph["oracle"] and graph["master"]
    assert import_cycle(graph) == []
    for low in ("instance", "calibration"):
        assert reachable(graph, low) & SOLVER_LAYERS == set(), low


ROOT = SRC.parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _mentions(tree: ast.AST) -> list[tuple[str, int]]:
    """Every ``(name, line)`` a module names: a variable, an attribute, an
    imported name, or a string that is exactly an identifier (as
    ``monkeypatch.setattr(module, "name", ...)`` names one)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name.split(".")[-1], node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.append((node.value, node.lineno))
    return out


def unreferenced_definitions(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """Functions and classes, at any depth, defined in the ``package``
    sources (file name -> source) whose name is mentioned nowhere outside
    their own definition, in the package or in the ``others`` sources.
    Dunder methods are called by the language and do not count."""
    trees = {name: ast.parse(src) for name, src in {**others, **package}.items()}
    mentions = {name: _mentions(tree) for name, tree in trees.items()}
    found = []
    for file in package:
        for node in ast.walk(trees[file]):
            if not isinstance(node, DEFINITIONS) or node.name.startswith("__"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and (where != file or line not in inside)
                       for where, names in mentions.items() for name, line in names):
                found.append(f"{file} line {node.lineno}: {node.name}")
    return found


def test_unreferenced_detector_flags_only_names_used_nowhere_else():
    package = {"m.py": ("def used():\n    return 1\n"
                        "def lonely():\n    return lonely()\n"
                        "class K:\n    def __init__(self):\n        self.x = used()\n"
                        "    def method(self):\n        def inner():\n            return 1\n"
                        "        return inner()\n"
                        "    def patched(self):\n        return 2\n")}
    others = {"t.py": "from m import K\nK().method()\nsetattr(K, 'patched', None)\n"}
    assert unreferenced_definitions(package, others) == ["m.py line 3: lonely"]
    assert unreferenced_definitions(package, {}) == [
        "m.py line 3: lonely", "m.py line 5: K", "m.py line 8: method", "m.py line 12: patched"]


def test_every_function_and_class_in_the_package_is_named_elsewhere():
    """No dead code: each function and class defined in the package is
    named by some code other than its own definition, in the package, the
    tests or the benchmark."""
    def sources(paths):
        return {str(p.relative_to(ROOT)): p.read_text() for p in sorted(paths)}

    package = sources(SRC.glob("*.py"))
    others = sources([*(ROOT / "tests").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")])
    assert package
    assert unreferenced_definitions(package, others) == []


FOOTPRINT_PROBE = """
import json, sys
before = set(sys.modules)
import rdarp.bcp
solver = sorted(name for name in sys.modules if name.startswith("rdarp."))
from rdarp.fixtures import random_instance
from rdarp.instance import preprocess
report = rdarp.bcp.solve(preprocess(random_instance(4, n=3, fleet_size=2)))
assert report.status == "Optimal", report.status
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"solver": solver,
                  "foreign": sorted(added - set(sys.stdlib_module_names) - {"rdarp"})}))
"""

SOLVE_PATH_MODULES = ["bcp", "calibration", "cuts", "errors", "instance", "lp", "master",
                      "oracle", "pricing"]


def test_importing_and_running_the_solver_loads_only_the_standard_library():
    """The solve path imports nothing but the standard library, so importing
    it stays cheap: neither importing the solver nor running a solve pulls
    in numpy, and scipy, for one, may be installed but must not be loaded.
    ``import rdarp.bcp`` loads exactly the solve path's own modules: each
    process compiles them when no bytecode is cached, so a module more is a
    start-up cost on every solve."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FOOTPRINT_PROBE], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    probe = json.loads(done.stdout)
    assert probe["foreign"] == []
    assert probe["solver"] == [f"rdarp.{name}" for name in SOLVE_PATH_MODULES]
