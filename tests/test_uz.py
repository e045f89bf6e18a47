"""The universal abelian group of integer-matrix classes."""

import random

import pytest

from eqlef.exact_algebra import IntMatrix, IntPolynomial, factor_over_Q
from eqlef.uz import UZClass, class_of_matrix

from matrix_builders import block_upper_triangular, companion_matrix, unimodular_inverse
from test_exact_algebra import random_matrix, random_unimodular


def test_frozen_renderings():
    assert str(class_of_matrix(IntMatrix.identity(2))) == "+2·(x−1)"
    assert str(class_of_matrix(IntMatrix.from_rows([[0, -1], [1, 0]]))) == "+1·(x²+1)"
    assert str(class_of_matrix(IntMatrix.from_rows([[0]]))) == "+1·(x)"
    assert str(class_of_matrix(IntMatrix.zeros(0, 0))) == "0"
    combination = (
        class_of_matrix(IntMatrix.from_rows([[1]]))
        + class_of_matrix(IntMatrix.from_rows([[-1]]))
        - class_of_matrix(IntMatrix.from_rows([[3]]))
    )
    assert str(combination) == "+1·(x−1) +1·(x+1) −1·(x−3)"


def test_equal_polynomials_are_combined():
    x_minus_1 = class_of_matrix(IntMatrix.identity(1)).terms[0][0]
    cancelled = UZClass(((x_minus_1, 1), (x_minus_1, -1)))
    assert cancelled.is_zero
    assert str(cancelled) == "0"
    assert cancelled == UZClass.zero()
    doubled = UZClass(((x_minus_1, 1), (x_minus_1, 1)))
    assert doubled.terms == ((x_minus_1, 2),)
    assert doubled.coefficient(x_minus_1) == 2
    assert doubled == class_of_matrix(IntMatrix.identity(2))


def test_group_laws():
    rng = random.Random(201)
    classes = [
        class_of_matrix(random_matrix(rng, rng.randint(0, 3))) for _ in range(30)
    ]
    zero = UZClass.zero()
    for a in classes[:10]:
        assert a + zero == a
        assert a + -a == zero
    for a, b in zip(classes, classes[1:]):
        assert a + b == b + a
    for a, b, c in zip(classes, classes[1:], classes[2:]):
        assert (a + b) + c == a + (b + c)


def test_conjugation_invariance():
    rng = random.Random(202)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n)
        u = random_unimodular(rng, n)
        conjugated = u @ a @ unimodular_inverse(u)
        assert class_of_matrix(a) == class_of_matrix(conjugated)


def test_block_triangular_additivity():
    rng = random.Random(203)
    for _ in range(100):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        a, c = random_matrix(rng, n), random_matrix(rng, m)
        b = random_matrix(rng, n, m)
        whole = class_of_matrix(block_upper_triangular(a, b, c))
        assert whole == class_of_matrix(a) + class_of_matrix(c)


def test_companion_class_is_factored_polynomial():
    rng = random.Random(204)
    for _ in range(100):
        p = IntPolynomial(
            tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 5))) + (1,)
        )
        _, factors = factor_over_Q(p)
        assert class_of_matrix(companion_matrix(p)) == UZClass(factors)


def test_canonical_term_order_is_stable():
    a = class_of_matrix(IntMatrix.from_rows([[3, 0], [0, -1]]))
    assert [str(p) for p, _ in a.terms] == ["x+1", "x−3"]
    b = class_of_matrix(IntMatrix.from_rows([[-1, 0], [0, 3]]))
    assert a.terms == b.terms


def test_rejects_non_monic_keys():
    with pytest.raises(ValueError, match="monic"):
        UZClass(((IntPolynomial((1, 2)), 1),))
    with pytest.raises(ValueError, match="monic"):
        UZClass(((IntPolynomial.zero(), 1),))


def test_zero_coefficients_dropped():
    p = IntPolynomial((-1, 1))
    assert UZClass(((p, 0),)).is_zero
    assert UZClass(((p, 1),)).coefficient(p) == 1
    assert UZClass(((p, 1),)).coefficient(IntPolynomial((1, 1))) == 0


def test_rectangular_matrix_rejected():
    with pytest.raises(ValueError, match="square"):
        class_of_matrix(IntMatrix.zeros(2, 3))
