"""Tests for the wedge-of-spheres realization constructor."""

from __future__ import annotations

import random

import pytest

from eqlef import (
    RealizationTarget,
    class_of_matrix,
    load_complex,
    realize,
    serialize_complex,
    universal_invariant,
)
from eqlef.equivariant_groups import GroupRingElement, GroupRingMatrix
from eqlef.exact_algebra import IntMatrix
from eqlef.invariants import KClass

MINUS = "−"


def target(a_rows, b_rows):
    return RealizationTarget(
        IntMatrix.from_rows(a_rows) if a_rows else IntMatrix.zeros(0, 0),
        IntMatrix.from_rows(b_rows) if b_rows else IntMatrix.zeros(0, 0),
    )


def random_square(rng, n, bound=5):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def test_empty_target_realizes_zero():
    entry = universal_invariant(realize(target([], []))).entries[0]
    assert entry.kclass.is_zero
    assert entry.uz_image is not None and entry.uz_image.is_zero


def test_pinned_single_degree_two_cell():
    entry = universal_invariant(realize(target([[2]], []))).entries[0]
    assert str(entry.kclass) == "+[2·1]"
    assert str(entry.uz_image) == f"+1·(x{MINUS}2)"


def test_pinned_mixed_target():
    entry = universal_invariant(realize(target([[0, 1], [1, 0]], [[3]]))).entries[0]
    assert str(entry.kclass) == f"{MINUS}[3·1] +[0, 1; 1, 0]"
    assert (
        str(entry.uz_image)
        == f"+1·(x{MINUS}1) +1·(x+1) {MINUS}1·(x{MINUS}3)"
    )


def test_b_prime_is_limited_one_below_the_matrix_order():
    RealizationTarget(IntMatrix.zeros(0, 0), IntMatrix.zeros(63, 63))
    with pytest.raises(ValueError, match="'b_prime' is 64×64"):
        RealizationTarget(IntMatrix.zeros(0, 0), IntMatrix.zeros(64, 64))


def test_model_structure():
    c = realize(target([[1, 2], [3, 4]], [[5]]))
    assert c.group.order == 1
    assert c.name == "wedge-realization"
    iso = c.classes[0]
    assert iso.component == "wedge"
    assert [d.degree for d in iso.degrees] == [0, 1, 2, 3]
    assert [d.rank for d in iso.degrees] == [1, 0, 2, 2]
    for d in iso.degrees:
        assert not any(d.relative_mask)
        if d.boundary is not None:
            assert d.boundary.is_zero
    # top degree carries b_prime padded with one identity cell
    top = iso.degrees[3].chain_map
    assert top.entry(0, 0).terms == (((), 0, 1),)
    assert top.entry(1, 1).terms == (((), 0, 5),)


def test_round_trip_recovers_target_classes():
    rng = random.Random(501)
    for _ in range(100):
        n = rng.randint(0, 4)
        m = rng.randint(0, 4)
        a_rows = random_square(rng, n)
        b_rows = random_square(rng, m)
        t = target(a_rows, b_rows)
        entry = universal_invariant(realize(t)).entries[0]
        expected = class_of_matrix(t.a) - class_of_matrix(t.b_prime)
        assert entry.uz_image == expected


def test_universal_class_normalizes_to_difference():
    rng = random.Random(502)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        a_rows = random_square(rng, n, bound=3)
        b_rows = random_square(rng, m, bound=3)
        c = realize(target(a_rows, b_rows))
        aut = c.classes[0].aut

        def ring_matrix(rows):
            return GroupRingMatrix(
                aut,
                len(rows),
                len(rows),
                [
                    GroupRingElement.basis(aut, (), aut.weyl.identity, v)
                    for row in rows
                    for v in row
                ],
            )

        direct = KClass.from_terms([(ring_matrix(a_rows), 1), (ring_matrix(b_rows), -1)])
        produced = universal_invariant(c).entries[0].kclass
        assert produced.compare(direct) == "equal"


def test_output_serialization_round_trips():
    c = realize(target([[2, 1], [0, 3]], [[7]]))
    document = serialize_complex(c)
    assert serialize_complex(load_complex(document)) == document


def test_rejects_rectangular_targets():
    with pytest.raises(ValueError, match=r"'a' is 1×2"):
        RealizationTarget(IntMatrix.from_rows([[1, 2]]), IntMatrix.zeros(0, 0))
    with pytest.raises(ValueError, match=r"'b_prime' is 2×1"):
        RealizationTarget(IntMatrix.zeros(0, 0), IntMatrix.from_rows([[1], [2]]))
