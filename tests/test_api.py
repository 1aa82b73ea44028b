"""The public API: names resolve, every import is used, and the API does not grow."""

import ast
import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

MODULES = [
    "rice_game",
    "rice_game.calibration",
    "rice_game.cli",
    "rice_game.cooperative",
    "rice_game.model",
    "rice_game.noncooperative",
    "rice_game.reporting",
    "rice_game.solver",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def _unused_imports(path: Path) -> list:
    """Names ``path`` imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used)


def test_every_import_is_used():
    package = Path(importlib.import_module("rice_game").__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [u for path in modules for u in _unused_imports(path)] == []


def _import_graph(package: Path) -> dict:
    """Each module of ``package`` and the package modules it imports.

    Imports inside functions count as well as those at module level;
    ``__init__`` stands for the package itself.
    """
    modules = {p.stem for p in package.glob("*.py")}
    graph = {}
    for path in package.glob("*.py"):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [(alias.name, []) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:
                    module = ".".join(filter(None, [package.name, module]))
                targets = [(module, [alias.name for alias in node.names])]
            else:
                continue
            for module, names in targets:
                parts = module.split(".")
                if parts[0] != package.name:
                    continue
                if len(parts) > 1:
                    deps.add(parts[1])
                else:
                    deps.update(n if n in modules else "__init__" for n in names or [""])
        graph[path.stem] = deps & modules
    return graph


def _find_cycle(graph: dict) -> list:
    """Modules that import one another in a ring, first repeated last; [] if none."""
    state = {}

    def visit(path):
        state[path[-1]] = "open"
        for dep in sorted(graph[path[-1]]):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state and (ring := visit(path + [dep])):
                return ring
        state[path[-1]] = "done"
        return []

    for module in sorted(graph):
        if module not in state and (ring := visit([module])):
            return ring
    return []


def test_import_does_not_load_scipy_optimize():
    # The solver loads scipy's compiled L-BFGS-B routine on its own; the
    # scipy.optimize package init would triple start-up time and double RSS.
    code = (
        "import sys, rice_game, rice_game.cli\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
        "assert callable(rice_game.solver._lbfgsb.setulb)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr


def test_package_imports_are_acyclic():
    package = Path(importlib.import_module("rice_game").__file__).parent
    graph = _import_graph(package)
    assert {"model", "solver", "noncooperative"} <= graph["cooperative"]
    assert _find_cycle(graph) == []
    # The ring finder does see one: cli imports model by way of cooperative.
    assert {"cli", "model"} <= set(_find_cycle({**graph, "model": {"cli"}}))


def test_public_api_does_not_grow():
    # A new public name or settable value must raise these ceilings here.
    package = importlib.import_module("rice_game")
    settable = len(dataclasses.fields(package.SolveOptions))
    for name in package.__all__:
        obj = getattr(package, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            settable += sum(p.default is not inspect.Parameter.empty for p in params)
    assert len(package.__all__) <= 35
    assert settable <= 11
