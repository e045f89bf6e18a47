"""Every demo script runs cleanly and prints exactly its pinned output."""

from __future__ import annotations

import hashlib
import pathlib
import subprocess
import sys

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))

# sha256 of each demo's stdout; a change to any printed byte must update it here
STDOUT_SHA256 = {
    "01_matrix_classes.py": "d4516a2b312b11f380a4837471461ebd88db3fca7d3f39d8e70ed9b24f5cba57",
    "02_builtin_examples.py": "3bb5668982ebb0ac1bd6bbfb1290226d60d77862db7e64997b9fae68360b7753",
    "03_realization.py": "1c736576f72f30b6903f48f6a3041974652009733bf5993e5c9a8d49a5f1e24e",
    "04_twisted_classes.py": "e00d041a8a591a486ff8983388b3dd6642804e510fec03a072557ee800d1259b",
    "05_induction.py": "e6b8a7e34b491ffbcc0bf830a8b93d77a1f092644c4399064312022b28701155",
}


def test_demo_directory_is_populated():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[script.name]
