"""Every name a module exports in __all__ exists."""

import importlib

import pytest

MODULES = ["cli", "forestlab", "forests", "optimizer", "treekit", "weights"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"bridgeforest.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
