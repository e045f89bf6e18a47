"""The universal abelian group of integer-matrix endomorphism classes.

The class of a square integer matrix is determined by the multiset of
irreducible factors of its characteristic polynomial; the group is free
abelian on the irreducible monic integer polynomials.  The two defining
relations — additivity on block-triangular matrices and invariance under
conjugation — both follow from the characteristic polynomial, so
:func:`class_of_matrix` factors the characteristic polynomial and records
multiplicities.
"""

from __future__ import annotations

from .exact_algebra import (
    FormalSum,
    IntMatrix,
    IntPolynomial,
    char_poly,
    factor_over_Q,
    polynomial_sort_key,
)

__all__ = ["UZClass", "class_of_matrix", "uz_add", "uz_neg", "uz_eq"]

_MIDDLE_DOT = "·"
_MINUS = "−"


class UZClass(FormalSum):
    """A finitely supported integer combination of irreducible monic polynomials.

    Keys must be monic polynomials.  They are ordered by degree, then by
    coefficient magnitudes, then by signed coefficients (so x−1 precedes
    x+1, which precedes x−3).

    >>> a = class_of_matrix(IntMatrix.identity(2))
    >>> str(a)
    '+2·(x−1)'
    >>> uz_eq(uz_add(a, uz_neg(a)), UZClass.zero())
    True
    """

    @staticmethod
    def check_key(polynomial: IntPolynomial) -> IntPolynomial:
        if polynomial.is_zero or not polynomial.is_monic:
            raise ValueError(f"universal-class keys must be monic polynomials, got {polynomial}.")
        return polynomial

    sort_key = staticmethod(polynomial_sort_key)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        rendered = []
        for polynomial, coefficient in self.terms:
            sign = "+" if coefficient > 0 else _MINUS
            rendered.append(f"{sign}{abs(coefficient)}{_MIDDLE_DOT}({polynomial})")
        return " ".join(rendered)


def class_of_matrix(a: IntMatrix) -> UZClass:
    """Canonical universal class of a square integer matrix.

    The characteristic polynomial is factored over ℚ and each irreducible
    factor contributes its multiplicity.  A 0×0 matrix yields the zero
    class.

    >>> str(class_of_matrix(IntMatrix.from_rows([[0, -1], [1, 0]])))
    '+1·(x²+1)'
    >>> class_of_matrix(IntMatrix.zeros(0, 0)).is_zero
    True
    """
    if not a.is_square:
        raise ValueError(f"universal class requires a square matrix, got {a.rows}×{a.cols}.")
    if a.rows == 0:
        return UZClass.zero()
    _, factors = factor_over_Q(char_poly(a))
    return UZClass(tuple(factors))


def uz_add(a: UZClass, b: UZClass) -> UZClass:
    """Coefficient-wise sum of two classes."""
    return a + b


def uz_neg(a: UZClass) -> UZClass:
    """Additive inverse of a class."""
    return -a


def uz_eq(a: UZClass, b: UZClass) -> bool:
    """Exact equality of canonical key/coefficient data."""
    return a.terms == b.terms
