"""The public API: names resolve, every import is used, and the API does not grow."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

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
    assert settable <= 26
