"""Exact integer linear algebra, cross-checked against independent oracles.

Oracles used here are deliberately naive re-derivations: cofactor-expansion
determinants and brute-force divisor searches.  Polynomial arithmetic and
factorizations are checked against sympy, which eqlef itself does not use.
Frozen values were computed by hand.
"""

import math
import random
import subprocess
import sys
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlef.exact_algebra import (
    CLASS_CACHE_SIZE,
    MAX_RECOMBINATION_SUBSETS,
    IntMatrix,
    IntPolynomial,
    _exact_divide,
    block_diagonal,
    char_poly,
    factor_over_Q,
    polynomial_sort_key,
)
from eqlef.equivariant_groups import (
    AutGroup,
    FiniteGroup,
    GroupRingMatrix,
    Subgroup,
    TwistData,
    twisted_classes,
)
from eqlef.invariants import ClassSum
from eqlef.uz import UZClass

from matrix_builders import block_upper_triangular, companion_matrix, laplace_det


# ---------------------------------------------------------------------------
# independent oracles


def poly_laplace_det(rows):
    """Cofactor-expansion determinant over IntPolynomial entries."""
    n = len(rows)
    if n == 0:
        return IntPolynomial.one()
    if n == 1:
        return rows[0][0]
    total = IntPolynomial(())
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


def test_char_poly_matches_polynomial_determinant():
    rng = random.Random(102)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n)
        xi_minus_a = [
            [IntPolynomial((-a.entry(i, j), int(i == j))) for j in range(n)]
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
        assert p.coefficients[0] == (-1) ** n * laplace_det(a.to_rows())
        assert p.is_monic and p.degree == n


def test_char_poly_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        char_poly(IntMatrix.zeros(2, 3))


def test_char_poly_matches_sympy_beyond_the_cofactor_oracle():
    # n up to 16, entries of at most 1, 7 and 61 digits
    x = sympy.Symbol("x")
    rng = random.Random(113)
    for n in range(1, 17):
        for bound in (3, 10**6, 10**60):
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            expected = sympy.Matrix(rows).charpoly(x).all_coeffs()
            assert char_poly(IntMatrix.from_rows(rows)).coefficients == tuple(
                int(c) for c in reversed(expected)
            )


def _triple_loop_product(a, b):
    return [
        [sum(a.entry(i, k) * b.entry(k, j) for k in range(a.cols)) for j in range(b.cols)]
        for i in range(a.rows)
    ]


def test_matrix_product_equals_the_triple_loop():
    """Rectangular and empty shapes, zero rows and columns, negative and large entries."""
    rng = random.Random(118)
    for _ in range(300):
        n, k, m = (rng.randint(0, 5) for _ in range(3))
        bound = rng.choice((1, 9, 10**20))
        density = rng.random()
        a, b = (
            [
                [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(c)]
                for _ in range(r)
            ]
            for r, c in ((n, k), (k, m))
        )
        if n and rng.random() < 0.3:
            a[rng.randrange(n)] = [0] * k
        if m and rng.random() < 0.3:
            j = rng.randrange(m)
            for row in b:
                row[j] = 0
        left = IntMatrix(n, k, [e for row in a for e in row])
        right = IntMatrix(k, m, [e for row in b for e in row])
        product = left @ right
        assert (product.rows, product.cols) == (n, m)
        assert product.to_rows() == _triple_loop_product(left, right)
    permutation = list(range(64))
    rng.shuffle(permutation)
    p = IntMatrix(64, 64, [int(permutation[i] == j) for i in range(64) for j in range(64)])
    assert (p @ p).to_rows() == _triple_loop_product(p, p)
    with pytest.raises(ValueError, match="cannot multiply 2×3 by 2×3"):
        IntMatrix.zeros(2, 3) @ IntMatrix.zeros(2, 3)


def test_determinant_multiplicative():
    rng = random.Random(104)
    for _ in range(100):
        n = rng.randint(1, 4)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert laplace_det((a @ b).to_rows()) == laplace_det(a.to_rows()) * laplace_det(b.to_rows())


# ---------------------------------------------------------------------------
# polynomials


X = sympy.Symbol("x")


def to_sympy(p, domain="ZZ"):
    return sympy.Poly(list(reversed(p.coefficients)) or [0], X, domain=domain)


def from_sympy(poly):
    return IntPolynomial(tuple(int(c) for c in reversed(poly.all_coeffs())))


def sympy_exact_quotient(p, d):
    """The oracle: p / d over ℚ when it is a polynomial with integer coefficients, else None."""
    quotient, remainder = sympy.div(to_sympy(p, "QQ"), to_sympy(d, "QQ"))
    coefficients = quotient.all_coeffs()
    if not remainder.is_zero or any(not c.is_integer for c in coefficients):
        return None
    return from_sympy(quotient)


def random_polynomial(rng, max_degree, bound=6):
    """Coefficients in [−bound, bound], so leading coefficients are rarely units."""
    return IntPolynomial(tuple(rng.randint(-bound, bound) for _ in range(rng.randint(0, max_degree + 1))))


def test_polynomial_kernels_match_sympy():
    # +, −, * and the exact division kernel the factorizer uses
    rng = random.Random(109)
    zero = IntPolynomial(())
    cases = exact = inexact = 0
    for _ in range(300):
        p, d = random_polynomial(rng, 5), random_polynomial(rng, 3)
        assert p + d == from_sympy(to_sympy(p) + to_sympy(d))
        assert p - d == from_sympy(to_sympy(p) - to_sympy(d))
        assert p * d == from_sympy(to_sympy(p) * to_sympy(d))
        if d.is_zero:
            continue
        # d·s divides exactly; p, p + d·s and a zero or lower-degree dividend usually do not
        s = random_polynomial(rng, 3)
        for dividend in (p, d * s, d * s + p, zero, IntPolynomial(p.coefficients[: d.degree])):
            expected = sympy_exact_quotient(dividend, d)
            quotient = _exact_divide(dividend.coefficients, d.coefficients)
            assert quotient == (None if expected is None else list(expected.coefficients))
            cases += 1
            exact += expected is not None
            inexact += expected is None
    assert _exact_divide([], [3, 2]) == []
    assert _exact_divide([1, 1], [0, 0, 2]) is None
    assert _exact_divide([2, 4, 6], [2]) == [1, 2, 3]
    assert _exact_divide([1, 4, 6], [2]) is None
    assert exact > cases // 4 and inexact > cases // 4


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
        assert _exact_divide(product.coefficients, p.coefficients) == list(q.coefficients)
        assert _exact_divide(product.coefficients, q.coefficients) == list(p.coefficients)
    assert _exact_divide([-1, 0, 1], [2, 1]) is None


def test_polynomial_rendering():
    assert str(IntPolynomial(())) == "0"
    assert str(IntPolynomial((1,))) == "1"
    assert str(IntPolynomial((-5, 2, 0, 1))) == "x³+2x−5"
    assert str(IntPolynomial((0, -1))) == "−x"
    assert str(IntPolynomial((1, 1))) == "x+1"
    assert str(IntPolynomial((-1, 1))) == "x−1"


INTEGER_CONSTRUCTOR_REFUSALS = [
    (lambda: IntMatrix(1, 1, (1.5,)), "matrix entry at (0, 0) is a float, not an integer."),
    (
        lambda: IntMatrix.from_rows([[1, 2], [3, True]]),
        "matrix entry at (1, 1) is a boolean, not an integer.",
    ),
    (lambda: IntMatrix(1, 2, (0, "7")), "matrix entry at (0, 1) is a string, not an integer."),
    (
        lambda: IntPolynomial((0.5, 2.5)),
        "polynomial coefficient of degree 0 is a float, not an integer.",
    ),
    (
        lambda: IntPolynomial((1, 0, "2")),
        "polynomial coefficient of degree 2 is a string, not an integer.",
    ),
    (lambda: ClassSum.from_mapping({(1.5,): 2}), "class vector entry 0 is a float, not an integer."),
    (
        lambda: ClassSum.from_mapping({(True,): 2}),
        "class vector entry 0 is a boolean, not an integer.",
    ),
    (lambda: ClassSum.from_mapping({(1,): 2.9}), "coefficient of term 0 is a float, not an integer."),
    (
        lambda: UZClass(((IntPolynomial((1, 1)), 1), (IntPolynomial((-1, 1)), 1.5))),
        "coefficient of term 1 is a float, not an integer.",
    ),
    (
        lambda: twisted_classes(AutGroup.translations(1), TwistData(IntMatrix.identity(1)))
        .representative((1.7,)),
        "vector entry 0 is a float, not an integer.",
    ),
    (
        lambda: twisted_classes(AutGroup.translations(1), TwistData(IntMatrix.identity(1)))
        .representative(["3"]),
        "vector entry 0 is a string, not an integer.",
    ),
    (lambda: IntMatrix(2.0, 2.0, (1, 0, 0, 1)), "row count is a float, not an integer."),
    (lambda: IntMatrix(1, True, (1,)), "column count is a boolean, not an integer."),
    (
        lambda: Subgroup(FiniteGroup.builtin("Z2"), [0, 1.7]),
        "subgroup member 1 is a float, not an integer.",
    ),
    (
        lambda: Subgroup(FiniteGroup.builtin("Z2"), ["0", "1"]),
        "subgroup member 0 is a string, not an integer.",
    ),
    (
        lambda: Subgroup(FiniteGroup.builtin("Z2"), [False, True]),
        "subgroup member 0 is a boolean, not an integer.",
    ),
    (
        lambda: AutGroup(True, FiniteGroup.builtin("Z2")),
        "translation rank is a boolean, not an integer.",
    ),
    (
        lambda: AutGroup(1.5, FiniteGroup.builtin("Z2")),
        "translation rank is a float, not an integer.",
    ),
    (
        lambda: GroupRingMatrix(AutGroup.translations(0), 1.0, 1.0, ()),
        "row count is a float, not an integer.",
    ),
    (
        lambda: GroupRingMatrix(AutGroup.translations(0), 0, "0", ()),
        "column count is a string, not an integer.",
    ),
]


@pytest.mark.parametrize("build, message", INTEGER_CONSTRUCTOR_REFUSALS)
def test_integer_constructors_refuse_values_that_are_not_ints(build, message):
    # nothing is truncated or converted: 1.5 is not read as 1, nor True as 1
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


MATRIX_AND_POLYNOMIAL_REFUSALS = [
    # (call, exception type, exact message)
    (lambda: IntMatrix(-1, 0, ()), ValueError, "matrix dimensions must be nonnegative, got -1×0."),
    (
        lambda: IntMatrix(2, 2, (1, 2, 3)),
        ValueError,
        "expected 4 entries for a 2×2 matrix, got 3.",
    ),
    (
        lambda: IntMatrix.from_rows([[1, 2], [3]]),
        ValueError,
        "ragged matrix rows: row 0 has 2 entries, row 1 has 1.",
    ),
    (lambda: IntMatrix.identity(2).entry(0, 2), IndexError, "entry (0, 2) outside 2×2 matrix."),
    (
        lambda: IntMatrix.identity(2).apply_to_vector((1,)),
        ValueError,
        "vector of length 1 does not match 2×2.",
    ),
    (
        lambda: IntMatrix.identity(2) + IntMatrix.identity(1),
        ValueError,
        "shape mismatch: 2×2 vs 1×1.",
    ),
    (
        lambda: IntMatrix.identity(2) - IntMatrix.zeros(2, 1),
        ValueError,
        "shape mismatch: 2×2 vs 2×1.",
    ),
    (
        lambda: IntMatrix.zeros(1, 2).trace(),
        ValueError,
        "trace requires a square matrix, got 1×2.",
    ),
    (lambda: factor_over_Q(IntPolynomial(())), ValueError, "cannot factor the zero polynomial."),
    (
        lambda: IntPolynomial((1, 1)) ** -1,
        ValueError,
        "polynomial exponent must be nonnegative, got -1.",
    ),
]


@pytest.mark.parametrize(
    "call, error, message",
    MATRIX_AND_POLYNOMIAL_REFUSALS,
    ids=[message for *_, message in MATRIX_AND_POLYNOMIAL_REFUSALS],
)
def test_matrix_and_polynomial_refusal_message_is_pinned(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


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
        rebuilt = IntPolynomial((content,))
        for factor, multiplicity in found:
            rebuilt = rebuilt * factor**multiplicity
        assert rebuilt == product


def test_factor_over_Q_frozen_order():
    content, factors = factor_over_Q(IntPolynomial((-1, 0, 0, 0, 1)))
    assert content == 1
    assert [str(f) for f, _ in factors] == ["x−1", "x+1", "x²+1"]
    assert [m for _, m in factors] == [1, 1, 1]


def test_factor_over_Q_degree_two_closed_forms():
    # −2·(3x − 2)²: a square, with content and sign split off
    assert factor_over_Q(IntPolynomial((-8, 24, -18))) == (-2, ((IntPolynomial((-2, 3)), 2),))
    # 6x² − x − 2 = (2x + 1)(3x − 2), and x² − 2, irreducible over ℚ
    assert factor_over_Q(IntPolynomial((-2, -1, 6))) == (
        1,
        ((IntPolynomial((1, 2)), 1), (IntPolynomial((-2, 3)), 1)),
    )
    assert factor_over_Q(IntPolynomial((-2, 0, 1))) == (1, ((IntPolynomial((-2, 0, 1)), 1),))


def sympy_factor_list(p):
    """The oracle: sympy's factorization, in eqlef's (content, sorted factors) form."""
    poly = sympy.Poly(list(reversed(p.coefficients)), sympy.Symbol("x"), domain="ZZ")
    content, pairs = poly.factor_list()
    factors = [
        (IntPolynomial(tuple(int(c) for c in reversed(f.all_coeffs()))), int(m))
        for f, m in pairs
    ]
    factors.sort(key=lambda pair: polynomial_sort_key(pair[0]))
    return int(content), tuple(factors)


def swinnerton_dyer(k):
    """Π (x ± √2 ± √3 ± … ± √p) over the first k primes, of degree 2^k.

    Built one prime q at a time over ℤ[√q]: writing f(x + √q) = A + √q·B
    with A, B in ℤ[x], the product with its conjugate is A² − q·B².
    """
    f = IntPolynomial((0, 1))
    for q in (2, 3, 5, 7, 11, 13)[:k]:
        halves = ([0] * (f.degree + 1), [0] * (f.degree + 1))
        for n, c in enumerate(f.coefficients):
            for j in range(n + 1):
                halves[j % 2][n - j] += c * math.comb(n, j) * q ** (j // 2)
        a, b = (IntPolynomial(tuple(half)) for half in halves)
        f = a * a - b * b * IntPolynomial((q,))
    return f


small_polynomials = st.lists(st.integers(-4, 4), min_size=1, max_size=5).map(
    lambda c: IntPolynomial(tuple(c))
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    factors=st.lists(st.tuples(small_polynomials, st.integers(1, 3)), max_size=3),
    scale=st.integers(-6, 6).filter(bool),
)
def test_factor_over_Q_matches_sympy_on_random_products(factors, scale):
    # non-monic and negative leading coefficients, constants, repeated factors
    p = IntPolynomial((scale,))
    for factor, multiplicity in factors:
        p = p * factor**multiplicity
    if not p.is_zero:
        assert factor_over_Q(p) == sympy_factor_list(p)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    orders=st.lists(st.integers(1, 24), max_size=3),
    roots=st.lists(st.integers(-5, 5), max_size=4),
)
def test_factor_over_Q_matches_sympy_on_cyclotomic_products(orders, roots):
    p = IntPolynomial.one()
    for n in orders:
        p = p * IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
    for r in roots:
        p = p * IntPolynomial((-r, 1))
    assert factor_over_Q(p) == sympy_factor_list(p)


def test_swinnerton_dyer_builder_matches_sympy():
    from sympy.polys.specialpolys import swinnerton_dyer_poly

    expected = swinnerton_dyer_poly(3, sympy.Symbol("x"), polys=True)
    assert swinnerton_dyer(3).coefficients == tuple(int(c) for c in reversed(expected.all_coeffs()))


@pytest.mark.parametrize("k", [4, 5])
def test_factor_over_Q_matches_sympy_on_swinnerton_dyer(k):
    # irreducible, but a product of quadratics modulo every prime
    p = swinnerton_dyer(k)
    assert factor_over_Q(p) == sympy_factor_list(p) == (1, ((p, 1),))


def test_factor_over_Q_refuses_past_the_recombination_limit():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"MAX_RECOMBINATION_SUBSETS = {MAX_RECOMBINATION_SUBSETS}"):
        factor_over_Q(swinnerton_dyer(6))
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# the class caches


def derive_class(m):
    p = char_poly(m)
    return p, factor_over_Q(p)


def test_class_cache_size_is_the_documented_constant():
    assert char_poly.cache_info().maxsize == CLASS_CACHE_SIZE
    assert factor_over_Q.cache_info().maxsize == CLASS_CACHE_SIZE


def test_cached_classes_equal_fresh_ones():
    rng = random.Random(114)
    matrices = [random_matrix(rng, rng.randint(1, 8)) for _ in range(CLASS_CACHE_SIZE // 2)]
    char_poly.cache_clear()
    factor_over_Q.cache_clear()
    computed = [derive_class(m) for m in matrices]
    hits = char_poly.cache_info().hits, factor_over_Q.cache_info().hits
    cached = [derive_class(m) for m in matrices]
    assert char_poly.cache_info().hits == hits[0] + len(matrices)
    assert factor_over_Q.cache_info().hits == hits[1] + len(matrices)
    char_poly.cache_clear()
    factor_over_Q.cache_clear()
    fresh = [derive_class(m) for m in matrices]
    assert computed == cached == fresh


def test_refusals_are_not_cached():
    companion = companion_matrix(swinnerton_dyer(6))
    factor_over_Q.cache_clear()
    sizes = []
    for _ in range(2):
        with pytest.raises(ValueError, match="MAX_RECOMBINATION_SUBSETS"):
            derive_class(companion)
        sizes.append((char_poly.cache_info().currsize, factor_over_Q.cache_info().currsize))
    assert sizes[0] == sizes[1]
    assert sizes[1][1] == 0
    assert factor_over_Q.cache_info().misses == 2  # the refusal ran both times


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
        determinant = laplace_det(a.to_rows()) * laplace_det(c.to_rows())
        assert laplace_det(diagonal.to_rows()) == determinant
        assert laplace_det(triangular.to_rows()) == determinant
        assert char_poly(triangular) == char_poly(a) * char_poly(c)
        for i in range(m):
            for j in range(n):
                assert triangular.entry(n + i, j) == 0


def test_loading_a_document_does_not_import_sympy():
    """eqlef factors without sympy, so neither loading nor `eqlef class` imports it."""
    for call in ("eqlef.load_builtin('example1')", "eqlef.cli.main(['class', '[[0,-1],[1,0]]'])"):
        code = f"import sys, eqlef, eqlef.cli; {call}; print('sympy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False"
