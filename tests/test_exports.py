"""Every exported name resolves, so deleting code cannot leave a stale export,
and README's "Public API" list names exactly the package's exports."""

from __future__ import annotations

import importlib
import pathlib
import pkgutil
import re

import pytest

import eqlef

MODULE_NAMES = ["eqlef"] + [
    f"eqlef.{info.name}" for info in pkgutil.iter_modules(eqlef.__path__)
]

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_readme_lists_exactly_the_public_api():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([^`]+)`", section, re.M)
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert sorted(set(listed) ^ set(eqlef.__all__)) == []
