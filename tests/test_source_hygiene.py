"""Static checks over the package source (no linter is required to run them)."""

import ast
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
