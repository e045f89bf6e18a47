"""The universal abelian group of integer-matrix classes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlef.exact_algebra import IntMatrix, IntPolynomial, char_poly, factor_over_Q
from eqlef.uz import UZClass, _diagonal_blocks, class_of_matrix

from matrix_builders import block_upper_triangular, companion_matrix, coupled_blocks, unimodular_inverse
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
        UZClass(((IntPolynomial(()), 1),))


def test_zero_coefficients_dropped():
    p = IntPolynomial((-1, 1))
    assert UZClass(((p, 0),)).is_zero
    assert UZClass(((p, 1),)).terms == ((p, 1),)


def test_rectangular_matrix_rejected():
    with pytest.raises(ValueError, match="square"):
        class_of_matrix(IntMatrix.zeros(2, 3))


def reference_blocks(support):
    """Strongly connected components by a search from every start, sorted."""
    n = len(support)
    reach = []
    for start in range(n):
        seen, frontier = {start}, [start]
        while frontier:
            j = frontier.pop()
            for i in range(n):
                if support[j] >> i & 1 and i not in seen:
                    seen.add(i)
                    frontier.append(i)
        reach.append(seen)
    components = {tuple(i for i in sorted(reach[j]) if j in reach[i]) for j in range(n)}
    return [list(c) for c in sorted(components)]


@st.composite
def supports(draw):
    """Random support digraphs on n ≤ 64 rows, with cycles, triangular parts,
    empty rows and disconnected unions mixed in."""
    n = draw(st.integers(0, 64))
    if n == 0:
        return []
    index = st.integers(0, n - 1)
    edges = set(draw(st.lists(st.tuples(index, index), max_size=3 * n)))
    if draw(st.booleans()):  # the cycles of a permutation
        edges |= set(enumerate(draw(st.permutations(range(n)))))
    if draw(st.booleans()):  # upper triangular: no edge back to a lesser index
        edges = {(j, i) for j, i in edges if j <= i}
    if draw(st.booleans()):  # a disconnected union of two halves
        half = draw(st.integers(0, n))
        edges = {(j, i) for j, i in edges if (j < half) == (i < half)}
    empty = set(draw(st.lists(index, max_size=n)))
    support = [0] * n
    for j, i in edges:
        if j not in empty:
            support[j] |= 1 << i
    return support


@settings(max_examples=300, deadline=None, derandomize=True)
@given(supports())
def test_diagonal_blocks_match_a_search_from_every_start(support):
    assert _diagonal_blocks(support) == reference_blocks(support)


def full_closure_blocks(support):
    """The components from the transitive closure run over every index, never stopped early."""
    reach = [row | 1 << j for j, row in enumerate(support)]
    for k in range(len(reach)):
        reach = [row | reach[k] if row >> k & 1 else row for row in reach]
    components = {}
    for j, row in enumerate(reach):
        components.setdefault(row, []).append(j)
    return list(components.values())


def seeded_supports(seed):
    """Random supports from sparse to dense, then a 64-cycle and a 64×64
    block upper triangular support with 2×2 diagonal blocks."""
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randint(1, 40)
        density = rng.choice((0.02, 0.1, 0.3, 0.7, 1.0))
        yield [sum(1 << i for i in range(n) if rng.random() < density) for _ in range(n)]
    yield [1 << (j + 1) % 64 for j in range(64)]
    yield [
        sum(1 << i for i in range(64) if i // 2 == j // 2 or (i // 2 > j // 2 and rng.random() < 0.125))
        for j in range(64)
    ]


def test_closure_stopped_once_full_matches_the_full_closure():
    for support in seeded_supports(2026):
        assert _diagonal_blocks(support) == full_closure_blocks(support)


@st.composite
def renumbered_block_triangular(draw):
    """(M, P·M·Pᵀ) for block upper triangular M with up to 12 rows."""
    sizes = draw(st.lists(st.integers(1, 4), max_size=4))
    m = coupled_blocks(random.Random(draw(st.integers(0, 2**32))), sizes, coupling=0.5)
    order = draw(st.permutations(range(m.rows)))
    renumbered = IntMatrix(m.rows, m.rows, tuple(m.entry(i, j) for i in order for j in order))
    return m, renumbered


@settings(max_examples=100, deadline=None, derandomize=True)
@given(renumbered_block_triangular())
def test_class_of_a_renumbered_block_triangular_matrix_is_its_factored_char_poly(pair):
    m, renumbered = pair
    assert class_of_matrix(renumbered) == UZClass(factor_over_Q(char_poly(m))[1])
