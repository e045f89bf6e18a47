"""Run every module's doctests under pytest."""

from __future__ import annotations

import doctest
import importlib

import pytest

MODULE_NAMES = [
    "eqlef.exact_algebra",
    "eqlef.zassenhaus",
    "eqlef.uz",
    "eqlef.equivariant_groups",
    "eqlef.complex_model",
    "eqlef.corpus",
    "eqlef.invariants",
    "eqlef.realize",
    "eqlef.cli",
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    # every core module should document at least part of its surface
    if name not in ("eqlef.corpus", "eqlef.cli"):
        assert results.attempted > 0
