"""Oracles from the universality theory: u determines its integer class and λ.

Wherever u carries an integer class, it equals the whole-matrix formula
Σ_p (−1)^p class_of_matrix(relative map in degree p), although eqlef reads
it off u's normal-form blocks; and λ = tr_π(u), i.e. λ equals
Σ c · pi1_projection(block.trace()) over u's normal-form terms.  The
Lefschetz number, read off the augmented trace, equals the trace of the
entrywise-augmented expanded maps.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlef import (
    ClassSum,
    UZClass,
    class_of_matrix,
    lambda_invariant,
    lefschetz_number,
    load_builtin,
    load_complex,
    pi1_projection,
    twisted_classes,
    universal_invariant,
)
from eqlef.corpus import BUILTIN_COMPLEXES
from eqlef.exact_algebra import IntMatrix
from eqlef.realize import RealizationTarget, realize

from test_torus import torus_document


def whole_matrix_class(iso):
    """Σ_p (−1)^p class_of_matrix(relative_map.augmented()), one class per degree."""
    total = UZClass.zero()
    for entry in iso.degrees:
        part = class_of_matrix(entry.relative_map.augmented())
        total = total + (-part if entry.degree % 2 else part)
    return total


def traced_u(iso, kclass):
    """Σ c · pi1_projection(block.trace()) over the terms of ``kclass``."""
    classes = twisted_classes(iso.aut, iso.twist)
    return ClassSum(
        tuple(
            (vector, c * n)
            for block, c in kclass.terms
            for vector, n in pi1_projection(block.trace(), classes).items()
        )
    )


def assert_oracles(c):
    """Both oracles on every class of ``c``; returns how many classes carry an integer class."""
    with_image = 0
    for iso, u_entry, l_entry in zip(
        c.classes, universal_invariant(c).entries, lambda_invariant(c).entries
    ):
        if iso.aut.is_trivial:
            assert u_entry.uz_image == whole_matrix_class(iso)
            with_image += 1
        else:
            assert u_entry.uz_image is None
        assert l_entry.value == traced_u(iso, u_entry.kclass)
    return with_image


def realized(a_rows, b_rows):
    def matrix(rows):
        return IntMatrix.from_rows(rows) if rows else IntMatrix.zeros(0, 0)

    return realize(RealizationTarget(matrix(a_rows), matrix(b_rows)))


@pytest.mark.parametrize("name", sorted(BUILTIN_COMPLEXES))
def test_oracles_on_builtins(name):
    assert_oracles(load_builtin(name))


@pytest.mark.parametrize("degrees", [(2,), (-1,), (3, 2), (2, -1, 3)])
def test_lambda_oracle_on_tori(degrees):
    assert assert_oracles(load_complex(torus_document(degrees))) == 0


@pytest.mark.parametrize("seed", range(8))
def test_oracles_on_seeded_realizations(seed):
    rng = random.Random(seed)
    n, m = rng.randint(0, 8), rng.randint(0, 6)
    a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    b_prime = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
    assert assert_oracles(realized(a, b_prime)) == 1


def augmented_lefschetz(iso):
    """Σ_p (−1)^p tr(augmented expanded map): the entrywise augmentation, then the trace."""
    return sum(
        (-1) ** entry.degree * expanded_map.augmented().trace()
        for entry, _, expanded_map, _ in iso.ladder
    )


@pytest.mark.parametrize("name", sorted(BUILTIN_COMPLEXES))
def test_lefschetz_number_is_the_augmented_trace_on_builtins(name):
    for iso in load_builtin(name).classes:
        assert lefschetz_number(iso) == augmented_lefschetz(iso)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=5))
def test_lefschetz_number_is_the_augmented_trace_on_tori(degrees):
    (iso,) = load_complex(torus_document(degrees)).classes
    assert lefschetz_number(iso) == augmented_lefschetz(iso) == math.prod(1 - d for d in degrees)


@st.composite
def block_triangular(draw, max_blocks=3, max_block=3):
    """Rows of a renumbered block-upper-triangular matrix.

    ``triangular``: 1×1 diagonal blocks; ``repeated``: diag(X, X, Y), its
    off-diagonal blocks zero; ``blocks``: random block sizes.
    """
    entry = st.integers(-3, 3)
    kind = draw(st.sampled_from(["triangular", "repeated", "blocks"]))
    if kind == "triangular":
        sizes = [1] * draw(st.integers(1, 6))
    elif kind == "repeated":
        k = draw(st.integers(1, max_block))
        sizes = [k, k] + draw(st.lists(st.integers(1, max_block), max_size=1))
    else:
        sizes = draw(st.lists(st.integers(1, max_block), min_size=1, max_size=max_blocks))
    n = sum(sizes)
    block_of = [b for b, size in enumerate(sizes) for _ in range(size)]
    rows = [
        [
            draw(entry) if block_of[i] == block_of[j] or (kind != "repeated" and i < j) else 0
            for j in range(n)
        ]
        for i in range(n)
    ]
    if kind == "repeated":
        k = sizes[0]
        for i in range(k):
            rows[k + i][k : 2 * k] = rows[i][:k]
    order = draw(st.permutations(range(n)))
    return [[rows[i][j] for j in order] for i in order]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(block_triangular(), block_triangular())
def test_oracles_on_block_triangular_targets(a, b_prime):
    assert assert_oracles(realized(a, b_prime)) == 1


@settings(max_examples=30, deadline=None, derandomize=True)
@given(block_triangular(), block_triangular())
def test_lefschetz_number_is_the_augmented_trace_on_realizations(a, b_prime):
    for iso in realized(a, b_prime).classes:
        assert lefschetz_number(iso) == augmented_lefschetz(iso)
