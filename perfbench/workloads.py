"""The four seeded workloads of the eqlef benchmark and their oracle checks.

Each workload is a list of cycles; a cycle is a list of ops with a fixed
structure (which sizes, groups and families appear, and how often), and the
seed fixes only the values inside it: matrix entries, degree vectors,
renumberings.  Keeping the structure fixed is what keeps throughput steady
from one seed to the next.  All inputs are built here, before the timed
loop, and eqlef only ever receives documents or matrices.

Every op calls eqlef through module attributes (``cli.main``,
``complex_model.load_complex`` ...) so that the tracer's wrappers are seen.
An op's ``check`` runs outside the timed region and raises
:class:`CheckFailed` when an output disagrees with its oracle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import itertools
import json
import pathlib
import random
from typing import Any, Callable, Sequence

import sympy

from eqlef import cli, complex_model, corpus, equivariant_groups, invariants
from eqlef.exact_algebra import IntMatrix

import torus_docs

# The package attribute ``eqlef.realize`` is the function, not the module.
realize_module = importlib.import_module("eqlef.realize")

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden.json"


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


@dataclasses.dataclass(frozen=True)
class Op:
    label: str
    family: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_bytes(report: dict) -> bytes:
    """The bytes ``eqlef invariants --json --output`` writes for a report."""
    return (json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode()


# ---------------------------------------------------------------------------
# oracles shared by several workloads


def check_report(report: dict) -> None:
    """aug(R) = L for every class, and ℓ and λ vanish together."""
    for entry in report["classes"]:
        augmentation = sum(int(term["coeff"]) for term in entry["reidemeister"])
        _require(
            augmentation == int(entry["lefschetz"]),
            f"aug(R) = {augmentation} but L = {entry['lefschetz']} "
            f"for component {entry['component']!r}",
        )
    _require(report["vanishing"]["consistent"], "ell and lambda do not vanish together")


def check_rendered_report(text: str) -> None:
    """The same oracle as :func:`check_report`, read off the human rendering."""
    traces = []
    numbers = []
    consistent = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("R = "):
            body = stripped[4:].replace("−", "-")
            traces.append(
                0 if body == "0" else sum(int(token.split("[")[0]) for token in body.split())
            )
        elif stripped.startswith("L = "):
            numbers.append(int(stripped[4:].replace("−", "-")))
        elif stripped.startswith("vanishing:"):
            consistent = stripped.endswith("consistent: yes")
    _require(bool(numbers) and len(traces) == len(numbers), "report lacks R or L lines")
    _require(traces == numbers, f"aug(R) {traces} differs from L {numbers}")
    _require(consistent is True, "ell and lambda do not vanish together")


def check_complex(c: complex_model.EquivariantComplex) -> None:
    """:func:`check_report` computed directly on a loaded complex."""
    for iso in c.classes:
        augmentation = invariants.reidemeister_trace(iso).total()
        number = invariants.lefschetz_number(iso)
        _require(augmentation == number, f"aug(R) = {augmentation} but L = {number}")
    _require(invariants.vanishing_report(c)["consistent"], "ell and lambda do not vanish together")


_X = sympy.Symbol("x")


def _poly(coefficients: Sequence[int]) -> sympy.Poly:
    """A polynomial from its coefficients, lowest degree first."""
    return sympy.Poly([int(c) for c in reversed(coefficients)], _X, domain="ZZ")


def check_char_poly(factors: Sequence[tuple[Sequence[int], int]], rows: list[list[int]]) -> None:
    """Π factor^multiplicity equals sympy's characteristic polynomial.

    ``factors`` holds (coefficients, lowest degree first; multiplicity) pairs.
    """
    product = sympy.Poly(1, _X, domain="ZZ")
    for coefficients, multiplicity in factors:
        product *= _poly(coefficients) ** multiplicity
    expected = sympy.Poly(sympy.Matrix(rows).charpoly(_X).as_expr(), _X, domain="ZZ")
    _require(product == expected, f"factors multiply to {product.as_expr()}, not {expected.as_expr()}")


def _random_matrix(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]


# ---------------------------------------------------------------------------
# report_mix: `eqlef invariants` on builtins and free inductions


REPORT_GROUPS = ("Z2", "Zn:12", "Sym:3", "Sym:4", "Zn:60")
_REPORT_CYCLES = 6


@dataclasses.dataclass(frozen=True)
class _Document:
    family: str
    group: str
    text: str
    induction_ok: bool
    golden_key: str | None


def _free_induction(
    source: complex_model.EquivariantComplex, group_name: str
) -> tuple[dict, bool]:
    group = equivariant_groups.FiniteGroup.builtin(group_name)
    induced, ell = invariants.induce(source, group, {"1": group.labels[group.identity]})
    return complex_model.serialize_complex(induced), ell == invariants.klein_williams(induced)


def _report_documents(rng: random.Random) -> list[_Document]:
    documents = [
        _Document(
            "builtin",
            name,
            json.dumps(complex_model.serialize_complex(complex_model.load_builtin(name))),
            True,
            f"builtin:{name}",
        )
        for name in sorted(corpus.BUILTIN_COMPLEXES)
    ]
    for group in REPORT_GROUPS:
        a = IntMatrix.from_rows(_random_matrix(rng, 2))
        b_prime = IntMatrix.from_rows(_random_matrix(rng, 1))
        sources = {
            "wedge": realize_module.realize(realize_module.RealizationTarget(a, b_prime)),
            "T1": complex_model.load_complex(torus_docs.torus_document([rng.randint(-2, 3)])),
            "T2": complex_model.load_complex(
                torus_docs.torus_document([rng.randint(-2, 3) for _ in range(2)])
            ),
        }
        for family, source in sources.items():
            document, induction_ok = _free_induction(source, group)
            documents.append(_Document(family, group, json.dumps(document), induction_ok, None))
    return documents


def _report_op(document: _Document, as_json: bool, out: pathlib.Path, golden: dict) -> Op:
    argv = ["invariants", document.text, "--output", str(out)] + (["--json"] if as_json else [])
    expected_digest = golden.get(document.golden_key) if as_json and document.golden_key else None

    def check(code: int) -> None:
        _require(code == 0, f"eqlef invariants exited {code}")
        _require(document.induction_ok, "induce returned an ell different from klein_williams")
        data = out.read_bytes()
        if as_json:
            check_report(json.loads(data))
        else:
            check_rendered_report(data.decode("utf-8"))
        if expected_digest is not None:
            _require(digest(data) == expected_digest, f"{document.golden_key} bytes changed")

    mode = "json" if as_json else "text"
    family = "builtin" if document.family == "builtin" else document.group
    return Op(f"{document.family}/{document.group}/{mode}", family, lambda: cli.main(argv), check)


def report_mix(seed: int, out_dir: pathlib.Path) -> list[list[Op]]:
    """Every document but Zn:60 twice per cycle (both renderings), and one
    Zn:60 document per cycle; no group takes half the run time."""
    rng = random.Random(seed)
    golden = _load_golden()
    out = out_dir / "report.out"
    documents = _report_documents(rng)
    twice = [d for d in documents if d.group != "Zn:60"]
    zn60 = [d for d in documents if d.group == "Zn:60"]
    cycles = []
    for i in range(_REPORT_CYCLES):
        ops = [_report_op(d, as_json, out, golden) for d in twice for as_json in (True, False)]
        ops.append(_report_op(zn60[i % len(zn60)], (i // len(zn60)) % 2 == 0, out, golden))
        rng.shuffle(ops)
        cycles.append(ops)
    return cycles


# ---------------------------------------------------------------------------
# torus_ladder: load_complex + build_report on self-maps of T^k


# |d_i| for the coordinates of T^k.  Fixing the magnitudes (the seed picks
# their order and the sign of each 2) keeps the op cost of each k steady;
# a magnitude 1 is always d = -1, so L = prod(1 - d_i) is never 0 and the
# Nielsen check never holds vacuously.
TORUS_PROFILE = (2, 1, 3, 0, 2, 1, 2)
TORUS_CYCLE_KS = (3,) * 20 + (4,) * 16 + (5,) * 7 + (6,) * 6 + (7,)
_TORUS_CYCLES = 8
_MAGNITUDE_VALUES = {0: (0,), 1: (-1,), 2: (2, -2), 3: (3,)}


def torus_degrees(rng: random.Random, k: int) -> tuple[int, ...]:
    magnitudes = list(TORUS_PROFILE[:k])
    rng.shuffle(magnitudes)
    return tuple(rng.choice(_MAGNITUDE_VALUES[m]) for m in magnitudes)


def all_torus_degrees(k: int) -> list[tuple[int, ...]]:
    """Every degree vector :func:`torus_degrees` can return for ``k``."""
    choices = (
        itertools.product(*(_MAGNITUDE_VALUES[m] for m in order))
        for order in itertools.permutations(TORUS_PROFILE[:k])
    )
    return sorted({vector for product in choices for vector in product})


def golden_key(degrees: Sequence[int]) -> str:
    return "torus:" + ",".join(str(d) for d in degrees)


def check_nielsen(report: dict, degrees: Sequence[int]) -> None:
    """L = prod(1 - d_i); R has |L| classes, each with coefficient sign(L)."""
    (entry,) = report["classes"]
    number = torus_docs.lefschetz(degrees)
    _require(int(entry["lefschetz"]) == number, f"L = {entry['lefschetz']}, expected {number}")
    coefficients = [int(term["coeff"]) for term in entry["reidemeister"]]
    _require(len(coefficients) == abs(number), f"{len(coefficients)} classes, expected {abs(number)}")
    sign = 1 if number > 0 else -1
    _require(all(c == sign for c in coefficients), f"coefficients {coefficients} are not all {sign}")


def _torus_op(degrees: tuple[int, ...], golden: dict) -> Op:
    document = torus_docs.torus_document(degrees)
    expected_digest = golden.get(golden_key(degrees))

    def run() -> dict:
        return invariants.build_report(complex_model.load_complex(document))

    def check(report: dict) -> None:
        check_nielsen(report, degrees)
        check_report(report)
        if expected_digest is not None:
            _require(digest(report_bytes(report)) == expected_digest, f"{golden_key(degrees)} bytes changed")

    return Op(f"T^{len(degrees)} {degrees}", f"k={len(degrees)}", run, check)


def torus_ladder(seed: int, out_dir: pathlib.Path) -> list[list[Op]]:
    rng = random.Random(seed)
    golden = _load_golden()
    cycles = []
    for _ in range(_TORUS_CYCLES):
        ops = [_torus_op(torus_degrees(rng, k), golden) for k in TORUS_CYCLE_KS]
        rng.shuffle(ops)
        cycles.append(ops)
    return cycles


# ---------------------------------------------------------------------------
# dense_blocks: `eqlef realize A B'` then `eqlef class A` on dense matrices


DENSE_CYCLE_NS = (8,) * 36 + (10,) * 14 + (12,) * 6 + (14,) * 3 + (16,) * 2 + (20,) * 7 + (24, 32)
_DENSE_CYCLES = 6


def _dense_op(a: list[list[int]], b_prime: list[list[int]], out_dir: pathlib.Path) -> Op:
    realize_out = out_dir / "realize.out"
    class_out = out_dir / "class.out"
    a_text = json.dumps(a)
    realize_argv = ["realize", a_text, json.dumps(b_prime), "--json", "--output", str(realize_out)]
    class_argv = ["class", a_text, "--json", "--output", str(class_out)]

    def run() -> tuple[int, int]:
        return cli.main(realize_argv), cli.main(class_argv)

    def check(codes: tuple[int, int]) -> None:
        _require(codes == (0, 0), f"eqlef realize/class exited {codes}")
        realized = json.loads(realize_out.read_bytes())
        _require(realized["verified"] is True, "realization not verified")
        check_complex(complex_model.load_complex(realized["document"]))
        payload = json.loads(class_out.read_bytes())
        terms = payload["class"]["terms"]
        factors = payload["factorization"]["factors"]
        _require(
            [(t["polynomial"], int(t["coeff"])) for t in terms]
            == [(f["polynomial"], f["multiplicity"]) for f in factors],
            "class terms and factorization disagree",
        )
        check_char_poly([(t["coefficients"], int(t["coeff"])) for t in terms], a)

    n = len(a)
    return Op(f"dense n={n}", f"n={n}", run, check)


def dense_blocks(seed: int, out_dir: pathlib.Path) -> list[list[Op]]:
    """A is n×n and B′ is (n/2)×(n/2), entries in [−3, 3]."""
    rng = random.Random(seed)
    cycles = []
    for _ in range(_DENSE_CYCLES):
        ops = [_dense_op(_random_matrix(rng, n), _random_matrix(rng, n // 2), out_dir) for n in DENSE_CYCLE_NS]
        rng.shuffle(ops)
        cycles.append(ops)
    return cycles


# ---------------------------------------------------------------------------
# tied_blocks: canonical forms of blocks whose rows all look alike


TIED_CYCLE = tuple((kind, n) for kind in ("cycle", "circulant") for n in (4, 5, 6, 6, 7))
_TIED_CYCLES = 12


def renumber(rows: list[list[int]], permutation: Sequence[int]) -> list[list[int]]:
    return [[rows[i][j] for j in permutation] for i in permutation]


def tied_block(rng: random.Random, kind: str, n: int) -> list[list[int]]:
    """A renumbered n-cycle permutation block, or a circulant with nonzero entries."""
    if kind == "cycle":
        rows = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    else:
        first = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
        rows = [[first[(j - i) % n] for j in range(n)] for i in range(n)]
    permutation = list(range(n))
    rng.shuffle(permutation)
    return renumber(rows, permutation)


def _tied_op(rows: list[list[int]], permutation: list[int], kind: str) -> Op:
    target = realize_module.RealizationTarget(IntMatrix.from_rows(rows), IntMatrix.zeros(0, 0))

    def run():
        realized = realize_module.realize(target)
        universal = invariants.universal_invariant(realized)
        block = realized.classes[0].degrees[2].chain_map
        copy = invariants.KClass.from_terms([(block.submatrix(permutation, permutation), 1)])
        return realized, universal, copy

    def check(result) -> None:
        realized, universal, copy = result
        entry = universal.entries[0]
        if entry.kclass.exact and copy.exact:
            _require(entry.kclass.compare(copy) == "equal", "renumbered block has another normal form")
        check_char_poly([(p.coefficients, m) for p, m in entry.uz_image.terms], rows)
        check_complex(realized)

    n = len(rows)
    return Op(f"{kind} n={n}", f"{kind} n={n}", run, check)


def tied_blocks(seed: int, out_dir: pathlib.Path) -> list[list[Op]]:
    rng = random.Random(seed)
    cycles = []
    for _ in range(_TIED_CYCLES):
        ops = []
        for kind, n in TIED_CYCLE:
            rows = tied_block(rng, kind, n)
            permutation = list(range(n))
            rng.shuffle(permutation)
            ops.append(_tied_op(rows, permutation, kind))
        rng.shuffle(ops)
        cycles.append(ops)
    return cycles


WORKLOADS = {
    "report_mix": report_mix,
    "torus_ladder": torus_ladder,
    "dense_blocks": dense_blocks,
    "tied_blocks": tied_blocks,
}
