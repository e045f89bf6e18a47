"""Exact integer linear algebra and univariate polynomial arithmetic.

Everything in this module works over arbitrary-precision integers; no
floating point is used anywhere.  The module provides:

* :class:`IntPolynomial` -- immutable integer polynomials (coefficients
  stored lowest degree first),
* :class:`IntMatrix` -- immutable integer matrices in row-major order,
* :func:`char_poly` -- division-free characteristic polynomials via the
  Berkowitz algorithm,
* :func:`inverse_unimodular` -- exact inverses of unimodular matrices as
  det · adj, with the determinant by Bareiss elimination,
* :func:`factor_over_Q` -- factorization into irreducible factors over the
  rationals (content split off, factors in a deterministic canonical order),
* :class:`FormalSum` -- finitely supported integer combinations in one
  normal form, the base of every class group eqlef computes in.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "MAX_MATRIX_ORDER",
    "IntPolynomial",
    "IntMatrix",
    "char_poly",
    "factor_over_Q",
    "companion_matrix",
    "block_diagonal",
    "block_upper_triangular",
    "inverse_unimodular",
    "polynomial_sort_key",
    "FormalSum",
]

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_MINUS = "−"

MAX_MATRIX_ORDER = 64
"""The largest matrix order ``eqlef class``/``realize`` and document ranks accept.

Berkowitz's :func:`char_poly` is O(n⁴) and factoring a dense characteristic
polynomial grows faster still.  On a 2-vCPU Xeon virtual machine, a dense
matrix took 0.8 + 0.2 s (char_poly + factor_over_Q) at n = 64, 4.8 + 2.4 s
at n = 96 and 14 + 14 s at n = 128.  The order is checked before any of
that work.
"""


def _superscript(n: int) -> str:
    return str(n).translate(_SUPERSCRIPTS)


@dataclasses.dataclass(frozen=True)
class IntPolynomial:
    """An integer polynomial, coefficients lowest degree first.

    Trailing zero coefficients are stripped on construction, so the zero
    polynomial has an empty coefficient tuple and every nonzero polynomial
    has a nonzero leading coefficient.

    >>> p = IntPolynomial((-5, 2, 0, 1))
    >>> str(p)
    'x³+2x−5'
    >>> p.degree
    3
    >>> p.evaluate(1)
    -2
    """

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: int) -> "IntPolynomial":
        return cls((c,))

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

    def coefficient(self, degree: int) -> int:
        """Coefficient of ``x**degree`` (zero when out of range)."""
        if 0 <= degree < len(self.coefficients):
            return self.coefficients[degree]
        return 0

    def evaluate(self, value: int) -> int:
        """Evaluate at an integer by Horner's rule.

        >>> IntPolynomial((-1, 0, 1)).evaluate(3)
        8
        """
        result = 0
        for c in reversed(self.coefficients):
            result = result * value + c
        return result

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return IntPolynomial(tuple(summed))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        product = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                product[i + j] += a * b
        return IntPolynomial(tuple(product))

    def scale(self, factor: int) -> "IntPolynomial":
        return IntPolynomial(tuple(factor * c for c in self.coefficients))

    def __pow__(self, exponent: int) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError(f"polynomial exponent must be nonnegative, got {exponent}.")
        result = IntPolynomial.one()
        for _ in range(exponent):
            result = result * self
        return result

    def try_exact_divide(self, divisor: "IntPolynomial") -> "IntPolynomial | None":
        """Quotient ``self / divisor`` over the integers, or None.

        Returns the quotient when the division is exact with integer
        coefficients at every step of the long division, otherwise None.

        >>> p = IntPolynomial((-1, 0, 1))
        >>> str(p.try_exact_divide(IntPolynomial((1, 1))))
        'x−1'
        >>> p.try_exact_divide(IntPolynomial((2, 1))) is None
        True
        """
        if divisor.is_zero:
            raise ValueError("cannot divide by the zero polynomial.")
        remainder = list(self.coefficients)
        dlead = divisor.leading_coefficient
        ddeg = divisor.degree
        if self.is_zero:
            return IntPolynomial(())
        if self.degree < ddeg:
            return None
        quotient = [0] * (self.degree - ddeg + 1)
        for pos in range(len(quotient) - 1, -1, -1):
            head = remainder[pos + ddeg]
            if head % dlead != 0:
                return None
            q = head // dlead
            quotient[pos] = q
            if q != 0:
                for i, c in enumerate(divisor.coefficients):
                    remainder[pos + i] -= q * c
        if any(remainder):
            return None
        return IntPolynomial(tuple(quotient))

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
        if self.rows < 0 or self.cols < 0:
            raise ValueError(
                f"matrix dimensions must be nonnegative, got {self.rows}×{self.cols}."
            )
        entries = tuple(int(e) for e in self.entries)
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries for a "
                f"{self.rows}×{self.cols} matrix, got {len(entries)}."
            )
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
        flat = tuple(int(e) for row in row_list for e in row)
        return cls(n, c, flat)

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
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}×{self.cols} by {other.rows}×{other.cols}."
            )
        rows = []
        for i in range(self.rows):
            left_row = self.row(i)
            rows.append(
                [
                    sum(left_row[k] * other.entries[k * other.cols + j] for k in range(self.cols))
                    for j in range(other.cols)
                ]
            )
        return IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, other.cols)

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

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix(
            len(row_indices),
            len(col_indices),
            tuple(self.entry(i, j) for i in row_indices for j in col_indices),
        )

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination.

        >>> IntMatrix.from_rows([[2, 0], [0, 3]]).det()
        6
        """
        if not self.is_square:
            raise ValueError(
                f"determinant requires a square matrix, got {self.rows}×{self.cols}."
            )
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        previous_pivot = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot_row is None:
                    return 0
                a[k], a[pivot_row] = a[pivot_row], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous_pivot
                a[i][k] = 0
            previous_pivot = a[k][k]
        return sign * a[n - 1][n - 1]

    def _require_same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}×{self.cols} vs {other.rows}×{other.cols}."
            )

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"[empty {self.rows}×{self.cols}]"
        body = "; ".join(
            " ".join(str(e) for e in self.row(i)) for i in range(self.rows)
        )
        return f"[{body}]"


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI − m), monic, by Berkowitz's algorithm.

    The computation is division-free, so every intermediate value is an
    integer.

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
    coeffs = [1, -rows[0][0]]
    for r in range(2, n + 1):
        principal = [row[: r - 1] for row in rows[: r - 1]]
        row_part = rows[r - 1][: r - 1]
        col_part = [rows[i][r - 1] for i in range(r - 1)]
        corner = rows[r - 1][r - 1]
        toeplitz_column = [1, -corner]
        power_of_col = col_part[:]
        for _ in range(r - 1):
            toeplitz_column.append(
                -sum(row_part[i] * power_of_col[i] for i in range(r - 1))
            )
            power_of_col = [
                sum(principal[i][j] * power_of_col[j] for j in range(r - 1))
                for i in range(r - 1)
            ]
        extended = [0] * (r + 1)
        for i in range(r + 1):
            total = 0
            for j in range(max(0, i - r), min(i, r - 1) + 1):
                total += toeplitz_column[i - j] * coeffs[j]
            extended[i] = total
        coeffs = extended
    return IntPolynomial(tuple(reversed(coeffs)))


def polynomial_sort_key(p: IntPolynomial) -> tuple:
    """Canonical ordering key for factor lists and class terms.

    Sorts by degree, then by coefficient magnitudes, then by signed
    coefficients, so x−1 precedes x+1 and x+1 precedes x−3.
    """
    return (p.degree, tuple(abs(c) for c in p.coefficients), p.coefficients)


def factor_over_Q(p: IntPolynomial) -> tuple[int, tuple[tuple[IntPolynomial, int], ...]]:
    """Factor ``p`` into content and irreducible integer polynomials over ℚ.

    Returns ``(content, factors)`` where ``factors`` is a tuple of
    ``(irreducible, multiplicity)`` pairs in canonical order (see
    :func:`polynomial_sort_key`) and ``content`` carries the integer content
    and sign, so that content · Π factorᵢ^multᵢ = p exactly.  Each factor is
    primitive with positive leading coefficient; when ``p`` is monic every
    factor is monic.

    >>> content, factors = factor_over_Q(IntPolynomial((-1, 0, 0, 0, 1)))
    >>> content
    1
    >>> [str(f) for f, _ in factors]
    ['x−1', 'x+1', 'x²+1']
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial.")
    import sympy  # costs about 0.4 s, so only a factorization pays it

    variable = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(p.coefficients)), variable, domain="ZZ")
    content, factor_pairs = poly.factor_list()
    factors = []
    for factor, multiplicity in factor_pairs:
        coeffs = tuple(int(v) for v in reversed(factor.all_coeffs()))
        factors.append((IntPolynomial(coeffs), int(multiplicity)))
    factors.sort(key=lambda pair: polynomial_sort_key(pair[0]))
    return int(content), tuple(factors)


def companion_matrix(p: IntPolynomial) -> IntMatrix:
    """Companion matrix of a monic polynomial.

    >>> str(char_poly(companion_matrix(IntPolynomial((-5, 2, 0, 1)))))
    'x³+2x−5'
    """
    if p.is_zero or not p.is_monic:
        raise ValueError(f"companion matrix requires a monic polynomial, got {p}.")
    n = p.degree
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -p.coefficients[i]
    return IntMatrix.from_rows(rows) if n else IntMatrix.zeros(0, 0)


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


def block_upper_triangular(top_left: IntMatrix, top_right: IntMatrix, bottom_right: IntMatrix) -> IntMatrix:
    """Assemble ``[[B, C], [0, D]]`` from compatible blocks."""
    if top_right.rows != top_left.rows or top_right.cols != bottom_right.cols:
        raise ValueError(
            "off-diagonal block shape "
            f"{top_right.rows}×{top_right.cols} does not fit "
            f"{top_left.rows}×{top_left.cols} over {bottom_right.rows}×{bottom_right.cols}."
        )
    rows = []
    for i in range(top_left.rows):
        rows.append(list(top_left.row(i)) + list(top_right.row(i)))
    for i in range(bottom_right.rows):
        rows.append([0] * top_left.cols + list(bottom_right.row(i)))
    return IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, 0)


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix.

    The inverse is adj(m) / det(m); since det(m) = ±1 that equals
    det(m) · adj(m), with every cofactor a Bareiss determinant.

    >>> u = IntMatrix.from_rows([[2, 1], [1, 1]])
    >>> inverse_unimodular(u) @ u == IntMatrix.identity(2)
    True
    """
    if not m.is_square:
        raise ValueError(f"inverse requires a square matrix, got {m.rows}×{m.cols}.")
    det = m.det()
    if det not in (1, -1):
        raise ValueError(f"matrix is not unimodular (determinant {det}, not ±1).")
    n = m.rows
    indices = range(n)

    def cofactor(i: int, j: int) -> int:
        minor = m.submatrix([r for r in indices if r != i], [c for c in indices if c != j])
        return (-1) ** (i + j) * minor.det()

    # adj(m)[i][j] is the (j, i) cofactor.
    return IntMatrix(n, n, tuple(det * cofactor(j, i) for i in indices for j in indices))


@dataclasses.dataclass(frozen=True)
class FormalSum:
    """A finitely supported integer combination of keys, kept in normal form.

    ``terms`` holds ``(key, coefficient)`` pairs.  In normal form each key
    appears once, with a nonzero coefficient, in ascending :meth:`sort_key`
    order; construction brings any terms to it, so two sums are equal
    exactly when their ``terms`` are.  The hook :meth:`check_key` validates
    each key and returns the form it is stored in (or raises ``ValueError``).
    Sums and :meth:`from_mapping` go through :meth:`from_terms`, which a
    subclass overrides when one key must be rewritten into several.

    >>> a = FormalSum.from_mapping({"y": 2, "x": 1})
    >>> a.terms, (a - a.scale(2) + a).is_zero
    ((('x', 1), ('y', 2)), True)
    """

    terms: tuple[tuple[Any, int], ...] = ()

    def __post_init__(self) -> None:
        combined: dict[Any, int] = {}
        check_key, sort_key = self.check_key, self.sort_key
        for key, coefficient in self.terms:
            key = check_key(key)
            combined[key] = combined.get(key, 0) + int(coefficient)
        nonzero = (term for term in combined.items() if term[1] != 0)
        normalized = sorted(nonzero, key=lambda term: sort_key(term[0]))
        object.__setattr__(self, "terms", tuple(normalized))

    @staticmethod
    def check_key(key: Any) -> Any:
        return key

    @staticmethod
    def sort_key(key: Any) -> Any:
        return key

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

    def coefficient(self, key: Any) -> int:
        return dict(self.terms).get(self.check_key(key), 0)

    def scale(self, factor: int) -> "FormalSum":
        return type(self)(tuple((key, factor * c) for key, c in self.terms))

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return self.from_terms(self.terms + other.terms)

    def __neg__(self) -> "FormalSum":
        return self.scale(-1)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)
