"""Exact integer linear algebra, cross-checked against independent oracles.

Oracles used here are deliberately naive re-derivations: cofactor-expansion
determinants and brute-force divisor searches.  Frozen values were computed
by hand.
"""

import random
import subprocess
import sys

import pytest

from eqlef.exact_algebra import (
    IntMatrix,
    IntPolynomial,
    block_diagonal,
    block_upper_triangular,
    char_poly,
    companion_matrix,
    factor_over_Q,
    inverse_unimodular,
    polynomial_sort_key,
)


# ---------------------------------------------------------------------------
# independent oracles


def laplace_det(rows):
    """Cofactor-expansion determinant over plain Python ints."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, pivot in enumerate(rows[0]):
        if pivot == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * pivot * laplace_det(minor)
    return total


def poly_laplace_det(rows):
    """Cofactor-expansion determinant over IntPolynomial entries."""
    n = len(rows)
    if n == 0:
        return IntPolynomial.one()
    if n == 1:
        return rows[0][0]
    total = IntPolynomial.zero()
    for j, pivot in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = pivot * poly_laplace_det(minor)
        if j % 2:
            term = -term
        total = total + term
    return total


def random_matrix(rng, n, m=None, bound=5):
    m = n if m is None else m
    if n == 0 or m == 0:
        return IntMatrix.zeros(n, m)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
    )


def random_unimodular(rng, n, operations=6):
    """Product of elementary row operations: always determinant ±1."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(operations):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            q = rng.randint(-2, 2)
            for col in range(n):
                rows[i][col] += q * rows[j][col]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2:
            rows[i] = [-v for v in rows[i]]
    return IntMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# determinants and characteristic polynomials


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(0, 4)
        a = random_matrix(rng, n)
        assert a.det() == laplace_det(a.to_rows())


def test_char_poly_matches_polynomial_determinant():
    rng = random.Random(102)
    x = IntPolynomial.x()
    for _ in range(200):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n)
        xi_minus_a = [
            [
                (x if i == j else IntPolynomial.zero())
                - IntPolynomial.constant(a.entry(i, j))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert char_poly(a) == poly_laplace_det(xi_minus_a)


def test_char_poly_frozen_values():
    assert str(char_poly(IntMatrix.identity(3))) == "x³−3x²+3x−1"
    assert str(char_poly(IntMatrix.from_rows([[0, 1], [1, 0]]))) == "x²−1"
    assert str(char_poly(IntMatrix.zeros(0, 0))) == "1"
    assert str(char_poly(IntMatrix.from_rows([[0]]))) == "x"


def test_char_poly_constant_term_is_sign_adjusted_determinant():
    rng = random.Random(103)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n)
        p = char_poly(a)
        assert p.coefficient(0) == (-1) ** n * a.det()
        assert p.is_monic and p.degree == n


def test_char_poly_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        char_poly(IntMatrix.zeros(2, 3))


def test_determinant_multiplicative():
    rng = random.Random(104)
    for _ in range(100):
        n = rng.randint(1, 4)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert (a @ b).det() == a.det() * b.det()


# ---------------------------------------------------------------------------
# unimodular inverses


def test_inverse_unimodular_round_trip():
    rng = random.Random(108)
    for _ in range(100):
        n = rng.randint(1, 4)
        u = random_unimodular(rng, n)
        assert u @ inverse_unimodular(u) == IntMatrix.identity(n)
        assert inverse_unimodular(u) @ u == IntMatrix.identity(n)


def test_inverse_unimodular_rejects_nonunit_determinant():
    with pytest.raises(ValueError):
        inverse_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))


# ---------------------------------------------------------------------------
# polynomials


def test_polynomial_arithmetic_respects_evaluation():
    rng = random.Random(109)
    for _ in range(200):
        p = IntPolynomial(tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 5))))
        q = IntPolynomial(tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 5))))
        for value in (-2, -1, 0, 1, 3):
            assert (p + q).evaluate(value) == p.evaluate(value) + q.evaluate(value)
            assert (p * q).evaluate(value) == p.evaluate(value) * q.evaluate(value)
            assert (p - q).evaluate(value) == p.evaluate(value) - q.evaluate(value)


def test_polynomial_exact_division_round_trip():
    rng = random.Random(110)
    for _ in range(150):
        p = IntPolynomial(
            tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))) + (1,)
        )
        q = IntPolynomial(
            tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))) + (1,)
        )
        product = p * q
        assert product.try_exact_divide(p) == q
        assert product.try_exact_divide(q) == p
    assert IntPolynomial((-1, 0, 1)).try_exact_divide(IntPolynomial((2, 1))) is None


def test_polynomial_rendering():
    assert str(IntPolynomial(())) == "0"
    assert str(IntPolynomial((1,))) == "1"
    assert str(IntPolynomial((-5, 2, 0, 1))) == "x³+2x−5"
    assert str(IntPolynomial((0, -1))) == "−x"
    assert str(IntPolynomial((1, 1))) == "x+1"
    assert str(IntPolynomial((-1, 1))) == "x−1"


def test_polynomial_sort_key_frozen_order():
    x = IntPolynomial((0, 1))
    x_minus_1 = IntPolynomial((-1, 1))
    x_plus_1 = IntPolynomial((1, 1))
    x_minus_3 = IntPolynomial((-3, 1))
    x_squared = IntPolynomial((0, 0, 1))
    shuffled = [x_squared, x_plus_1, x_minus_3, x, x_minus_1]
    assert sorted(shuffled, key=polynomial_sort_key) == [
        x,
        x_minus_1,
        x_plus_1,
        x_minus_3,
        x_squared,
    ]


# ---------------------------------------------------------------------------
# factorization and companions


def test_factor_over_Q_reconstructs_product():
    rng = random.Random(111)
    for _ in range(100):
        factors = []
        for _ in range(rng.randint(1, 3)):
            factors.append(
                IntPolynomial(
                    tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3))) + (1,)
                )
            )
        product = IntPolynomial.one()
        for f in factors:
            product = product * f
        content, found = factor_over_Q(product)
        rebuilt = IntPolynomial.constant(content)
        for factor, multiplicity in found:
            rebuilt = rebuilt * factor**multiplicity
        assert rebuilt == product


def test_factor_over_Q_frozen_order():
    content, factors = factor_over_Q(IntPolynomial((-1, 0, 0, 0, 1)))
    assert content == 1
    assert [str(f) for f, _ in factors] == ["x−1", "x+1", "x²+1"]
    assert [m for _, m in factors] == [1, 1, 1]


def test_companion_matrix_char_poly_round_trip():
    rng = random.Random(112)
    for _ in range(100):
        p = IntPolynomial(
            tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 5))) + (1,)
        )
        assert char_poly(companion_matrix(p)) == p


# ---------------------------------------------------------------------------
# block constructors


def test_block_constructors_shapes_and_determinants():
    rng = random.Random(113)
    for _ in range(100):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        a, c = random_matrix(rng, n), random_matrix(rng, m)
        b = random_matrix(rng, n, m)
        diagonal = block_diagonal(a, c)
        triangular = block_upper_triangular(a, b, c)
        assert (diagonal.rows, diagonal.cols) == (n + m, n + m)
        assert diagonal.det() == a.det() * c.det()
        assert triangular.det() == a.det() * c.det()
        assert char_poly(triangular) == char_poly(a) * char_poly(c)
        for i in range(m):
            for j in range(n):
                assert triangular.entry(n + i, j) == 0


def test_loading_a_document_does_not_import_sympy():
    """sympy costs about 0.4 s to import and is needed only to factor."""
    code = "import sys, eqlef; eqlef.load_builtin('example1'); print('sympy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
