"""Command-line surface for the equivariant invariant library.

Subcommands:

* ``class`` / ``factor`` -- canonical class and factored characteristic
  polynomial of a square integer matrix,
* ``invariants`` -- full report (u, λ, R, L per class, ℓ, vanishing) for a
  complex given as a builtin name, a file path, or inline JSON,
* ``realize`` -- build and verify the wedge-of-spheres model for a pair of
  matrices, printing the verified class and emitting the document,
* ``check`` -- validation-only run of the loader,
* ``example`` -- emit one of the builtin example documents.

Flags ``--json``, ``--output PATH``, ``--verbose`` are accepted by every
subcommand; ``--verbose`` prints progress notes, and the traceback of an
internal error, to stderr.  :func:`main` parses with one parser per
process, built on its first call; :func:`build_parser` returns a fresh one.
Each subparser names its handler function through
``set_defaults(handler="cmd_...")``, and :func:`main` looks that name up in
this module when it dispatches, so the shared parser holds no function.
Handlers read the parsed namespace directly.  Exit codes: 0 success, 1
validation/parse failure, 2 internal error.  JSON output is byte-stable:
keys are sorted and all ordering is canonical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import pathlib
import sys
import traceback
from typing import Any, Sequence

from .complex_model import (
    EquivariantComplex,
    _decode_int,
    _TooManyDigits,
    load_builtin,
    load_complex,
    serialize_complex,
)
from .corpus import BUILTIN_COMPLEXES
from .equivariant_groups import _MAX_SHOWN, _shown
from .exact_algebra import MAX_MATRIX_ORDER, IntMatrix, IntPolynomial
from .invariants import _encode_uz, _integer_class, _sign, build_report, render_report
from .realize import RealizationTarget, realize
from .uz import class_of_matrix

__all__ = ["main", "build_parser"]


class _InputError(ValueError):
    """A parse or validation failure attributable to the command input."""


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON output"
    )
    common.add_argument(
        "--output", metavar="PATH", help="write the primary output to PATH"
    )
    common.add_argument(
        "--verbose", action="store_true", help="print progress details to stderr"
    )

    parser = _Parser(
        prog="eqlef",
        description=(
            "Exact invariants of equivariant cellular self-maps: the universal "
            "class u, the generalized Lefschetz class λ, Reidemeister traces, "
            "and the subgroup-decomposed fixed-point invariant ℓ."
        ),
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    for name in ("class", "factor"):
        sub = subparsers.add_parser(
            name,
            parents=[common],
            help="canonical class and factored characteristic polynomial of a matrix",
        )
        sub.add_argument(
            "matrix",
            help='square integer matrix as JSON rows, e.g. "[[0,-1],[1,0]]"',
        )
        sub.set_defaults(handler="cmd_class")

    sub = subparsers.add_parser(
        "invariants",
        parents=[common],
        help="compute every invariant of a complex (builtin name, file, or inline JSON)",
    )
    sub.add_argument("input", help="builtin name, document path, or inline JSON")
    sub.set_defaults(handler="cmd_invariants")

    sub = subparsers.add_parser(
        "realize",
        parents=[common],
        help="build the wedge-of-spheres model realizing [a] − [b'] and verify it",
    )
    sub.add_argument("a", help='square integer matrix a as JSON rows ("[]" for empty)')
    sub.add_argument(
        "b_prime", help='square integer matrix b\' as JSON rows ("[]" for empty)'
    )
    sub.set_defaults(handler="cmd_realize")

    sub = subparsers.add_parser(
        "check",
        parents=[common],
        help="validate a complex document without computing invariants",
    )
    sub.add_argument("input", help="builtin name, document path, or inline JSON")
    sub.set_defaults(handler="cmd_check")

    sub = subparsers.add_parser(
        "example",
        parents=[common],
        help="emit a builtin example document",
    )
    sub.add_argument("name", choices=sorted(BUILTIN_COMPLEXES), help="builtin name")
    sub.set_defaults(handler="cmd_example")

    return parser


# ---------------------------------------------------------------------------
# input parsing


def _json_loads(text: str, name: str, shown: str) -> Any:
    """``json.loads``, with its failures as input errors naming the input.

    ``shown`` names the input in a syntax error; ``name`` names it, without
    echoing the text, for an overlong bare number or too deep a nesting.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(f"could not parse {shown}: {exc}.") from exc
    except RecursionError:
        raise _InputError(f"{name} is nested too deeply to parse.") from None
    except ValueError:  # a bare JSON number beyond the interpreter's digit limit
        raise _InputError(
            f"{name} has an integer with more digits than "
            f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}."
        ) from None


def _parse_matrix(text: str) -> IntMatrix:
    shown = _shown(repr(text))
    value = _json_loads(text, "matrix input", f"matrix {shown}")
    if not isinstance(value, list) or any(not isinstance(row, list) for row in value):
        raise _InputError(f"matrix input must be a JSON list of rows, got {shown}.")
    rows = []
    for i, row in enumerate(value):
        converted = []
        for j, entry in enumerate(row):
            try:
                converted.append(_decode_int(entry, f"matrix entry ({i}, {j})"))
            except _TooManyDigits:
                raise
            except ValueError as exc:
                raise _InputError(
                    f"matrix entry ({i}, {j}) must be an integer, got {_shown(repr(entry))}."
                ) from exc
        rows.append(converted)
    if not rows:
        return IntMatrix.zeros(0, 0)
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise _InputError("matrix rows must all have the same length.")
    return IntMatrix.from_rows(rows)


def _parse_square_matrix(text: str, name: str) -> IntMatrix:
    matrix = _parse_matrix(text)
    if not matrix.is_square:
        raise _InputError(
            f"{name} must be square, got {matrix.rows}×{matrix.cols}."
        )
    if matrix.rows > MAX_MATRIX_ORDER:
        raise _InputError(
            f"{name} is {matrix.rows}×{matrix.cols}; matrices are limited to "
            f"MAX_MATRIX_ORDER = {MAX_MATRIX_ORDER} rows."
        )
    return matrix


def _load_input_complex(text: str) -> EquivariantComplex:
    if text in BUILTIN_COMPLEXES:
        return load_builtin(text)
    stripped = text.strip()
    if stripped.startswith("{"):
        document = _json_loads(stripped, "inline JSON document", "inline JSON document")
        return load_complex(document)
    path = pathlib.Path(text)
    try:
        exists = path.exists()
    except OSError:  # a name too long for the file system names no file
        exists = False
    if exists:
        # a path of up to _MAX_SHOWN characters is echoed whole, quotes and all
        name = f"document {repr(text) if len(text) <= _MAX_SHOWN else _shown(repr(text))}"
        return load_complex(_json_loads(path.read_text(encoding="utf-8"), name, name))
    builtin_names = ", ".join(sorted(BUILTIN_COMPLEXES))
    raise _InputError(
        f"input {_shown(repr(text))} is not a builtin name ({builtin_names}), an existing "
        "file, or an inline JSON document."
    )


# ---------------------------------------------------------------------------
# output helpers


def _dump_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _note(message: str, args: argparse.Namespace) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_class(args: argparse.Namespace) -> int:
    matrix = _parse_square_matrix(args.matrix, "matrix")
    uz = class_of_matrix(matrix)
    if matrix.rows == 0:
        _emit(_dump_json({"class": _encode_uz(uz)}) if args.json else str(uz), args)
        return 0
    factors = uz.terms  # χ is monic: its factors are the class's terms, χ their product
    polynomial = math.prod((factor**power for factor, power in factors), start=IntPolynomial.one())
    _note(f"{matrix.rows}×{matrix.cols} matrix, {len(factors)} irreducible factors", args)
    if args.json:
        payload = {
            "class": _encode_uz(uz),
            "characteristic_polynomial": str(polynomial),
            "factorization": {
                "content": 1,
                "factors": [
                    {"polynomial": str(factor), "multiplicity": multiplicity}
                    for factor, multiplicity in factors
                ],
            },
        }
        _emit(_dump_json(payload), args)
    else:
        factored = " · ".join(
            f"({factor})" + ("" if multiplicity == 1 else f"^{multiplicity}")
            for factor, multiplicity in factors
        )
        _emit(
            f"{uz}\ncharacteristic polynomial: {polynomial}\nfactorization: {factored}",
            args,
        )
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    complex_data = _load_input_complex(args.input)
    _note(
        f"loaded complex ({len(complex_data.classes)} iso classes, "
        f"group order {complex_data.group.order})",
        args,
    )
    if args.json:
        _emit(_dump_json(build_report(complex_data)), args)
    else:
        _emit(render_report(complex_data), args)
    return 0


def cmd_realize(args: argparse.Namespace) -> int:
    """Realize ``[a] − [b']`` as a wedge model and check its integer class.

    The class is summed over each degree's relative map, whose diagonal
    blocks :func:`class_of_matrix` factors, with no canonical search.
    """
    a = _parse_square_matrix(args.a, "matrix a")
    b_prime = _parse_square_matrix(args.b_prime, "matrix b'")
    complex_data = realize(RealizationTarget(a, b_prime))
    uz_image = _integer_class(
        (entry.relative_map, _sign(entry.degree)) for entry in complex_data.classes[0].degrees
    )
    expected = class_of_matrix(a) - class_of_matrix(b_prime)
    if uz_image != expected:
        raise RuntimeError(
            "realization round trip failed: computed class "
            f"{uz_image} does not match target {expected}."
        )
    _note(
        f"realized [a ({a.rows}×{a.rows})] − [b' ({b_prime.rows}×{b_prime.rows})]; "
        "round trip verified",
        args,
    )
    document = serialize_complex(complex_data)
    if args.json:
        payload = {
            "class": _encode_uz(uz_image),
            "verified": True,
            "document": document,
        }
        _emit(_dump_json(payload), args)
        return 0
    if args.output:
        pathlib.Path(args.output).write_text(
            _dump_json(document) + "\n", encoding="utf-8"
        )
        print(str(uz_image))
    else:
        print(str(uz_image))
        print(_dump_json(document))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    complex_data = _load_input_complex(args.input)
    summary = {
        "valid": True,
        "iso_classes": len(complex_data.classes),
        "group_order": complex_data.group.order,
        "fixed_points": len(complex_data.fixed_points),
    }
    if args.json:
        _emit(_dump_json(summary), args)
    else:
        _emit(
            f"OK: {summary['iso_classes']} iso classes, group order "
            f"{summary['group_order']}, {summary['fixed_points']} fixed points",
            args,
        )
    return 0


def cmd_example(args: argparse.Namespace) -> int:
    document = serialize_complex(load_builtin(args.name))
    _emit(_dump_json(document), args)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return globals()[args.handler](args)
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError) and isinstance(exc.filename, str):
            exc.filename = _shown(exc.filename)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        if args.verbose:
            traceback.print_exc()
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
