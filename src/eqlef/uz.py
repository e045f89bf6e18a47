"""The universal abelian group of integer-matrix endomorphism classes.

The class of a square integer matrix is determined by the multiset of
irreducible factors of its characteristic polynomial; the group is free
abelian on the irreducible monic integer polynomials.  The two defining
relations — additivity on block-triangular matrices and invariance under
conjugation — both follow from the characteristic polynomial, so
:func:`class_of_matrix` factors the characteristic polynomial of each
diagonal block and records multiplicities; every caller goes through it.
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

__all__ = ["UZClass", "class_of_matrix"]

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
    >>> a + (-a) == UZClass.zero()
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


def _diagonal_blocks(support: list[int]) -> list[list[int]]:
    """The strongly connected components of a support digraph, by least index.

    ``support[j]`` has bit i set when entry (j, i) is nonzero.  i and j share
    a component exactly when their transitively closed reaches are equal.
    The closure stops once every row reaches every index, which shows the
    support is one block, as a matrix without zero entries does at once.
    Row k is then full too, so the rows are counted only when it is, and
    every other step pays one integer comparison for the check.

    >>> _diagonal_blocks([0b010, 0b001, 0b011])
    [[0, 1], [2]]
    """
    n = len(support)
    full = (1 << n) - 1
    reach = [row | 1 << j for j, row in enumerate(support)]
    for k in range(n):
        bit, through = 1 << k, reach[k]
        if through == full and reach.count(full) == n:
            break
        reach = [row | through if row & bit else row for row in reach]
    components: dict[int, list[int]] = {}
    for j, row in enumerate(reach):
        components.setdefault(row, []).append(j)
    return list(components.values())


def class_of_matrix(a: IntMatrix) -> UZClass:
    """Canonical universal class of a square integer matrix.

    The class is additive over the strongly connected diagonal blocks of the
    support, so only their characteristic polynomials are factored over ℚ,
    each irreducible factor counting its multiplicity; 0×0 gives zero.

    >>> str(class_of_matrix(IntMatrix.from_rows([[0, -1], [1, 0]])))
    '+1·(x²+1)'
    >>> class_of_matrix(IntMatrix.zeros(0, 0)).is_zero
    True
    """
    if not a.is_square:
        raise ValueError(f"universal class requires a square matrix, got {a.rows}×{a.cols}.")
    n, entries = a.rows, a.entries
    support = [sum(1 << i for i, e in enumerate(a.row(j)) if e) for j in range(n)]
    factors = []
    for block in _diagonal_blocks(support):
        whole = len(block) == n  # the block is ``a`` itself: the same cache key
        submatrix = a if whole else IntMatrix.from_rows([[entries[i * n + k] for k in block] for i in block])
        factors.extend(factor_over_Q(char_poly(submatrix))[1])
    return UZClass(tuple(factors))
