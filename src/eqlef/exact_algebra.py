"""Exact integer linear algebra and univariate polynomial arithmetic.

Everything in this module works over arbitrary-precision integers; no
floating point is used anywhere.  The module provides:

* :class:`IntPolynomial` -- immutable integer polynomials (coefficients
  stored lowest degree first),
* :class:`IntMatrix` -- immutable integer matrices in row-major order,
* :func:`char_poly` -- division-free characteristic polynomials via the
  Berkowitz algorithm,
* :func:`factor_over_Q` -- factorization into irreducible factors over the
  rationals (content split off, factors in a deterministic canonical order)
  by Zassenhaus's algorithm in :mod:`eqlef.zassenhaus`, with at most
  :data:`MAX_RECOMBINATION_SUBSETS` recombination subsets,
* :class:`FormalSum` -- finitely supported integer combinations in one
  normal form, the base of every class group eqlef computes in.

Integer-polynomial arithmetic has one home: the coefficient-list kernels
``_add``, ``_sub``, ``_mul``, ``_exact_divide`` and ``_split_content`` below
serve both :class:`IntPolynomial` and the factorizer in
:mod:`eqlef.zassenhaus`.

:func:`char_poly` and :func:`factor_over_Q` each keep their last
:data:`CLASS_CACHE_SIZE` results in a ``functools.lru_cache`` keyed by the
frozen argument (see that constant for what the caches hold); their
results are immutable, so callers share them safely.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "MAX_MATRIX_ORDER",
    "MAX_RECOMBINATION_SUBSETS",
    "CLASS_CACHE_SIZE",
    "IntPolynomial",
    "IntMatrix",
    "char_poly",
    "factor_over_Q",
    "block_diagonal",
    "polynomial_sort_key",
    "FormalSum",
]

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_MINUS = "−"

MAX_MATRIX_ORDER = 64
"""The largest matrix order ``eqlef class``/``realize`` and document ranks accept.

Berkowitz's :func:`char_poly` is O(n⁴), and :func:`factor_over_Q` is
bounded by :data:`MAX_RECOMBINATION_SUBSETS`.  On a 2-vCPU Xeon virtual
machine, a dense matrix with entries in [−3, 3] took 0.6 + 0.2 s
(char_poly + factor_over_Q) at n = 64, 2.6 + 0.2 s at n = 96 and
8.6 + 0.8 s at n = 128.  The order is checked before any of that work.
It also bounds each document degree's expanded rank, one row per (row,
Weyl coset of its stabilizer) pair, since the expanded maps are the
matrices validation, R and L multiply; a rank-r degree over a Weyl group
of order |W| can expand to r·|W| rows.
"""

MAX_RECOMBINATION_SUBSETS = 65536
"""The most subsets of modular factors :func:`factor_over_Q` tries to recombine.

Zassenhaus recombination tries the subsets of the lifted modular factors by
size, so a polynomial that is irreducible over ℚ but splits into many
factors modulo every prime needs exponentially many.  The Swinnerton-Dyer
polynomial of degree 32, which splits into 16 quadratics, needs 39,202; its
degree-64 successor would need more than 2³² and is refused after 2¹⁶,
with a ``ValueError`` that names this limit.
"""

CLASS_CACHE_SIZE = 32
"""How many results :func:`char_poly` and :func:`factor_over_Q` each remember.

One matrix's class is often derived several times: ``eqlef realize A B′``
factors A's characteristic polynomial for the realization's universal
invariant and again to check the round trip.  Each function keeps a
least-recently-used cache of this many (argument, result) pairs, keyed by
the frozen argument.  At worst a cache keeps alive this many inputs and
their results.  Each input is a matrix or polynomial that a caller already
built; a characteristic polynomial has n + 1 coefficients where its matrix
has n² entries, and a factorization's factors multiply to its input.
Refusals (``ValueError``) are not cached, so a refused input reruns its
bounded work.  ``cache_info()`` and ``cache_clear()`` reach each cache.
"""


def _superscript(n: int) -> str:
    return str(n).translate(_SUPERSCRIPTS)


# -- coefficient-list kernels -------------------------------------------------
# A polynomial here is a list of integers, lowest degree first, with no
# trailing zeros.  A modulus m > 0 reduces every coefficient into [0, m);
# m = 0 keeps integers.


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _reduce(a: list[int], m: int) -> list[int]:
    return _trim([c % m for c in a] if m else a)


def _add(a: Sequence[int], b: Sequence[int], m: int = 0) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    total = list(a)
    for i, c in enumerate(b):
        total[i] += c
    return _reduce(total, m)


def _sub(a: Sequence[int], b: Sequence[int], m: int = 0) -> list[int]:
    return _add(a, [-c for c in b], m)


def _mul(a: Sequence[int], b: Sequence[int], m: int = 0) -> list[int]:
    if not a or not b:
        return []
    product = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                product[i + j] += c * d
    return _reduce(product, m)


def _exact_divide(a: Sequence[int], b: Sequence[int]) -> list[int] | None:
    """The quotient ``a / b`` over ℤ for ``b`` ≠ 0, or None when a step is inexact.

    Zero divided by ``b`` is zero; a nonzero ``a`` of lower degree gives None.
    """
    if not a:
        return []
    db = len(b) - 1
    if len(a) <= db:
        return None
    lead = b[-1]
    remainder = list(a)
    quotient = [0] * (len(a) - db)
    for pos in range(len(quotient) - 1, -1, -1):
        head = remainder[pos + db]
        if head % lead != 0:
            return None
        q = head // lead
        quotient[pos] = q
        if q != 0:
            for i, c in enumerate(b):
                remainder[pos + i] -= q * c
    return None if any(remainder) else quotient


def _split_content(a: Sequence[int]) -> tuple[int, list[int]]:
    """The content of ``a`` ≠ 0, signed like its leading coefficient, and ``a`` divided by it."""
    content = math.gcd(*a)
    if a[-1] < 0:
        content = -content
    return content, [c // content for c in a]


_INT_ONLY = frozenset({int})
_KIND_NAMES = {bool: "a boolean", float: "a float", str: "a string"}
_DIMENSIONS = ("row count", "column count")  # where a matrix's (rows, cols) are named


def _require_ints(values: Sequence[Any], where: Callable[[int], str]) -> Sequence[Any]:
    """Raise unless every value is an ``int``, naming ``where(i)`` of the first that is not.

    A boolean, float or string is refused, not converted.  Returns ``values``.
    """
    if not _INT_ONLY.issuperset(map(type, values)):
        i, value = next((i, v) for i, v in enumerate(values) if type(v) is not int)
        kind = _KIND_NAMES.get(type(value), f"of type {type(value).__name__}")
        raise ValueError(f"{where(i)} is {kind}, not an integer.")
    return values


@dataclasses.dataclass(frozen=True)
class IntPolynomial:
    """An integer polynomial, coefficients lowest degree first.

    Trailing zero coefficients are stripped on construction, so the zero
    polynomial has an empty coefficient tuple and every nonzero polynomial
    has a nonzero leading coefficient.  Each coefficient must be an ``int``;
    a boolean, float or string is refused, not converted.

    >>> p = IntPolynomial((-5, 2, 0, 1))
    >>> str(p)
    'x³+2x−5'
    >>> p.degree
    3
    """

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coefficients)
        _require_ints(coeffs, lambda k: f"polynomial coefficient of degree {k}")
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> int:
        if self.is_zero:
            return 0
        return self.coefficients[-1]

    @property
    def is_monic(self) -> bool:
        return self.leading_coefficient == 1

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(tuple(_add(self.coefficients, other.coefficients)))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(tuple(_sub(self.coefficients, other.coefficients)))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(tuple(_mul(self.coefficients, other.coefficients)))

    def __pow__(self, exponent: int) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError(f"polynomial exponent must be nonnegative, got {exponent}.")
        result = IntPolynomial.one()
        for _ in range(exponent):
            result = result * self
        return result

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[tuple[str, str]] = []
        for degree in range(self.degree, -1, -1):
            c = self.coefficients[degree]
            if c == 0:
                continue
            sign = _MINUS if c < 0 else "+"
            magnitude = abs(c)
            if degree == 0:
                body = str(magnitude)
            else:
                variable = "x" if degree == 1 else "x" + _superscript(degree)
                body = variable if magnitude == 1 else f"{magnitude}{variable}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        rendered = (first_sign if first_sign == _MINUS else "") + first_body
        for sign, body in parts[1:]:
            rendered += sign + body
        return rendered


@dataclasses.dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix stored row-major.

    Each entry must be an ``int``; a boolean, float or string is refused,
    not converted.

    >>> m = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> m.entry(1, 0)
    3
    >>> (m @ IntMatrix.identity(2)) == m
    True
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_ints((self.rows, self.cols), _DIMENSIONS.__getitem__)
        if self.rows < 0 or self.cols < 0:
            raise ValueError(
                f"matrix dimensions must be nonnegative, got {self.rows}×{self.cols}."
            )
        entries = tuple(self.entries)
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries for a "
                f"{self.rows}×{self.cols} matrix, got {len(entries)}."
            )
        _require_ints(entries, lambda k: f"matrix entry at ({k // self.cols}, {k % self.cols})")
        object.__setattr__(self, "entries", entries)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        row_list = [list(r) for r in rows]
        n = len(row_list)
        c = len(row_list[0]) if row_list else 0
        for i, row in enumerate(row_list):
            if len(row) != c:
                raise ValueError(
                    f"ragged matrix rows: row 0 has {c} entries, row {i} has {len(row)}."
                )
        return cls(n, c, tuple(itertools.chain.from_iterable(row_list)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    # -- access -------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}×{self.cols} matrix.")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._require_same_shape(other)
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._require_same_shape(other)
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-e for e in self.entries))

    def __mul__(self, scalar: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(scalar * e for e in self.entries))

    __rmul__ = __mul__

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Row by row: the right rows scaled by the left row's nonzero entries, summed."""
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}×{self.cols} by {other.rows}×{other.cols}."
            )
        right = [other.row(k) for k in range(other.rows)]
        entries: list[int] = []
        for i in range(self.rows):
            total = [0] * other.cols
            for a, row in zip(self.row(i), right):
                if a:
                    total = list(map(operator.add, total, row if a == 1 else [a * b for b in row]))
            entries += total
        return IntMatrix(self.rows, other.cols, tuple(entries))

    def apply_to_vector(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product with a column vector."""
        if len(vector) != self.cols:
            raise ValueError(
                f"vector of length {len(vector)} does not match {self.rows}×{self.cols}."
            )
        return tuple(sum(map(operator.mul, self.row(i), vector)) for i in range(self.rows))

    def trace(self) -> int:
        if not self.is_square:
            raise ValueError(f"trace requires a square matrix, got {self.rows}×{self.cols}.")
        return sum(self.entry(i, i) for i in range(self.rows))

    def _require_same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}×{self.cols} vs {other.rows}×{other.cols}."
            )


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def char_poly(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI − m), monic, by Berkowitz's algorithm.

    The computation is division-free, so every intermediate value is an
    integer.  The last :data:`CLASS_CACHE_SIZE` matrices and their
    polynomials are cached; at worst that keeps alive that many matrices
    and polynomials of about the same size.

    >>> str(char_poly(IntMatrix.identity(3)))
    'x³−3x²+3x−1'
    >>> str(char_poly(IntMatrix.from_rows([[0, 1], [1, 0]])))
    'x²−1'
    """
    if not m.is_square:
        raise ValueError(
            f"characteristic polynomial requires a square matrix, got {m.rows}×{m.cols}."
        )
    n = m.rows
    if n == 0:
        return IntPolynomial.one()
    rows = m.to_rows()
    # Coefficient vector of the char poly of the leading principal r×r
    # submatrix, highest degree first; extended one submatrix at a time.
    # map() stops at its shorter argument, so a full row of ``rows`` is read
    # as its first r − 1 entries.
    mul = operator.mul
    coeffs = [1, -rows[0][0]]
    for r in range(2, n + 1):
        principal = rows[: r - 1]
        row_part = rows[r - 1]
        power_of_col = [row[r - 1] for row in principal]
        toeplitz_column = [1, -row_part[r - 1]]
        for _ in range(r - 1):
            toeplitz_column.append(-sum(map(mul, row_part, power_of_col)))
            power_of_col = [sum(map(mul, row, power_of_col)) for row in principal]
        # extended[i] = Σ_j toeplitz_column[i − j] · coeffs[j]
        reversed_column = toeplitz_column[::-1]
        coeffs = [sum(map(mul, reversed_column[r - i :], coeffs)) for i in range(r + 1)]
    return IntPolynomial(tuple(reversed(coeffs)))


def polynomial_sort_key(p: IntPolynomial) -> tuple:
    """Canonical ordering key for factor lists and class terms.

    Sorts by degree, then by coefficient magnitudes, then by signed
    coefficients, so x−1 precedes x+1 and x+1 precedes x−3.
    """
    return (p.degree, tuple(abs(c) for c in p.coefficients), p.coefficients)


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def factor_over_Q(p: IntPolynomial) -> tuple[int, tuple[tuple[IntPolynomial, int], ...]]:
    """Factor ``p`` into content and irreducible integer polynomials over ℚ.

    Returns ``(content, factors)`` where ``factors`` is a tuple of
    ``(irreducible, multiplicity)`` pairs in canonical order (see
    :func:`polynomial_sort_key`) and ``content`` carries the integer content
    and sign, so that content · Π factorᵢ^multᵢ = p exactly.  Each factor is
    primitive with positive leading coefficient; when ``p`` is monic every
    factor is monic.

    The pipeline, in :mod:`eqlef.zassenhaus`, is Zassenhaus's algorithm
    with integers only (Zassenhaus 1969; Cantor & Zassenhaus 1981; von zur
    Gathen & Gerhard, *Modern Computer Algebra*, ch. 14–15): square-free
    decomposition, factorization modulo a prime, Hensel lifting and
    recombination by subset size.  Recombination can need exponentially
    many subsets (the Swinnerton-Dyer polynomials are the classic case), so
    past :data:`MAX_RECOMBINATION_SUBSETS` of them it raises ``ValueError``.

    The last :data:`CLASS_CACHE_SIZE` polynomials and their factorizations
    are cached; a refusal is not, so it reruns its bounded work each time.

    >>> content, factors = factor_over_Q(IntPolynomial((-1, 0, 0, 0, 1)))
    >>> content
    1
    >>> [str(f) for f, _ in factors]
    ['x−1', 'x+1', 'x²+1']
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial.")
    # Imported on first use: loading a document never factors, and without
    # a bytecode cache every interpreter would compile the pipeline.
    from .zassenhaus import factor_primitive

    content, primitive = _split_content(p.coefficients)
    if len(primitive) == 1:
        return content, ()
    factors = [
        (IntPolynomial(tuple(factor)), multiplicity)
        for factor, multiplicity in factor_primitive(primitive)
    ]
    factors.sort(key=lambda pair: polynomial_sort_key(pair[0]))
    return content, tuple(factors)


def block_diagonal(*blocks: IntMatrix) -> IntMatrix:
    """Direct sum of square or rectangular blocks along the diagonal."""
    total_rows = sum(b.rows for b in blocks)
    total_cols = sum(b.cols for b in blocks)
    entries = [[0] * total_cols for _ in range(total_rows)]
    row_offset = col_offset = 0
    for block in blocks:
        for i in range(block.rows):
            for j in range(block.cols):
                entries[row_offset + i][col_offset + j] = block.entry(i, j)
        row_offset += block.rows
        col_offset += block.cols
    return IntMatrix(total_rows, total_cols, tuple(itertools.chain.from_iterable(entries)))


@dataclasses.dataclass(frozen=True)
class FormalSum:
    """A finitely supported integer combination of keys, kept in normal form.

    ``terms`` holds ``(key, coefficient)`` pairs.  In normal form each key
    appears once, with a nonzero coefficient, in ascending :meth:`sort_key`
    order; construction brings any terms to it, so two sums are equal
    exactly when their ``terms`` are.  The hook :meth:`check_key` validates
    each key and returns the form it is stored in (or raises ``ValueError``);
    the hook :meth:`normal_keys` lets a subclass rewrite one key into
    several, each counted with the key's coefficient.  :meth:`scale`, ``+``
    and ``−`` combine terms that are already normal, so they skip the hooks;
    both operands of ``+`` and ``−`` are sums of the same kind.  A coefficient
    must be an ``int``: a boolean, float or string is refused, not converted.

    >>> a = FormalSum.from_mapping({"y": 2, "x": 1})
    >>> a.terms, (a - a.scale(2) + a).is_zero
    ((('x', 1), ('y', 2)), True)
    """

    terms: tuple[tuple[Any, int], ...] = ()

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        _require_ints([c for _, c in terms], lambda k: f"coefficient of term {k}")
        normal_keys = self.normal_keys
        self._combine(
            (part, coefficient)
            for key, coefficient in terms
            for part in normal_keys(key)
        )

    def _combine(self, terms: Iterable[tuple[Any, int]]) -> None:
        """Store ``terms``, whose keys are normal, combined, without zeros and sorted."""
        combined: dict[Any, int] = {}
        for key, coefficient in terms:
            combined[key] = combined.get(key, 0) + coefficient
        nonzero = (term for term in combined.items() if term[1] != 0)
        sort_key = self.sort_key
        normalized = sorted(nonzero, key=lambda term: sort_key(term[0]))
        object.__setattr__(self, "terms", tuple(normalized))

    @classmethod
    def _from_normal(cls, terms: Iterable[tuple[Any, int]]) -> "FormalSum":
        """The sum of ``terms`` whose keys are already normal, without the hooks."""
        result = cls.__new__(cls)
        result._combine(terms)
        return result

    @staticmethod
    def check_key(key: Any) -> Any:
        return key

    @staticmethod
    def sort_key(key: Any) -> Any:
        return key

    @classmethod
    def normal_keys(cls, key: Any) -> Iterable[Any]:
        """The normal-form keys that ``key`` stands for: by default, its checked form."""
        return (cls.check_key(key),)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Any, int]]) -> "FormalSum":
        return cls(tuple(terms))

    @classmethod
    def from_mapping(cls, mapping: Mapping[Any, int]) -> "FormalSum":
        return cls.from_terms(mapping.items())

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, factor: int) -> "FormalSum":
        return self._from_normal((key, factor * c) for key, c in self.terms)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return self._from_normal(self.terms + other.terms)

    def __neg__(self) -> "FormalSum":
        return self.scale(-1)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)
