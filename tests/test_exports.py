"""Every exported name resolves, so deleting code cannot leave a stale export."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import eqlef

MODULE_NAMES = ["eqlef"] + [
    f"eqlef.{info.name}" for info in pkgutil.iter_modules(eqlef.__path__)
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
