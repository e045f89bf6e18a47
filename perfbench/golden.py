"""Capture sha256 digests of byte-stable ``eqlef invariants --json`` output.

The digests cover the three builtins and every degree vector the torus
workload can draw for k = 3 and 4.  Run ``python3 perfbench/golden.py`` from
the repository root to rewrite ``perfbench/golden.json``; do so only when a
change to the report bytes is intended.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from eqlef import cli, corpus  # noqa: E402

import torus_docs  # noqa: E402
import workloads  # noqa: E402


def golden_documents() -> dict[str, str]:
    """Golden key -> CLI input (a builtin name or an inline document)."""
    documents = {f"builtin:{name}": name for name in sorted(corpus.BUILTIN_COMPLEXES)}
    for k in (3, 4):
        for degrees in workloads.all_torus_degrees(k):
            documents[workloads.golden_key(degrees)] = json.dumps(torus_docs.torus_document(degrees))
    return documents


def capture() -> dict[str, str]:
    digests = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as work_dir:
        out = pathlib.Path(work_dir) / "report.json"
        for key, source in golden_documents().items():
            code = cli.main(["invariants", source, "--json", "--output", str(out)])
            if code != 0:
                raise SystemExit(f"eqlef invariants exited {code} on {key}")
            digests[key] = workloads.digest(out.read_bytes())
    return digests


if __name__ == "__main__":
    workloads.GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
