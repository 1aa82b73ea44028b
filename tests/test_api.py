"""The public API: every exported name exists."""

import importlib

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
