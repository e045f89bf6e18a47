"""README's python examples run, and the second prints what its comments say.

Uses the standard library only, so it runs under pytest and also as a plain
script, ``python tests/test_readme.py``, wherever ``eqlef`` is importable
(an install without the ``test`` extra included).
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# the exact output lines that the comments of the second block name
CLASS_AND_REALIZATION_LINES = ["+1·(x−1) +1·(x+1)", "+1·(x−1) +1·(x+1) −1·(x−3)"]


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def run_block(source: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        encoding="utf-8",
        env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        timeout=120,
    )


def test_every_python_block_exits_zero():
    blocks = python_blocks()
    assert len(blocks) >= 2
    for index, block in enumerate(blocks):
        result = run_block(block)
        assert result.returncode == 0, f"README python block {index + 1}:\n{result.stderr}"


def test_class_and_realization_block_prints_its_comments():
    block = python_blocks()[1]
    commented = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert commented == CLASS_AND_REALIZATION_LINES
    assert run_block(block).stdout.splitlines() == CLASS_AND_REALIZATION_LINES


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"{test.__name__}: ok")
