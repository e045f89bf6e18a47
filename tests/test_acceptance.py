"""Acceptance gate: nine end-to-end criteria, one test per criterion.

conftest.py prints one ``ACCEPTANCE criterion N: PASS/FAIL`` line per test.
Every expected value here was derived independently of the implementation:
corpus values by hand from the cell structures, matrix-class properties from
the defining relations of the canonical form, and irreducibility through an
exhaustive divisor search that shares no code with the factorizer.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from collections import Counter

from eqlef import (
    RealizationTarget,
    TwistData,
    class_of_matrix,
    induce,
    klein_williams,
    lambda_invariant,
    lefschetz_number,
    load_builtin,
    load_complex,
    pi1_projection,
    realize,
    reidemeister_trace,
    serialize_complex,
    twisted_classes,
    universal_invariant,
    vanishing_report,
)
from eqlef.cli import main as cli_main
from eqlef.equivariant_groups import FiniteGroup
from eqlef.exact_algebra import IntMatrix, IntPolynomial, factor_over_Q
from eqlef.uz import UZClass

from matrix_builders import companion_matrix, unimodular_inverse

MINUS = "−"
OPLUS = "⊕"

EXAMPLES = ("example1", "example2", "example3")


def random_int_matrix(rng, n, bound):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    )


def random_unimodular(rng, n, operations=8):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(operations):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        factor = rng.randint(-2, 2)
        for col in range(n):
            rows[i][col] += factor * rows[j][col]
        if rng.random() < 0.3:
            rows[i], rows[j] = rows[j], rows[i]
    return IntMatrix.from_rows(rows)


def random_target(rng, max_size=4, bound=5):
    n = rng.randint(0, max_size)
    m = rng.randint(0, max_size)
    a = random_int_matrix(rng, n, bound) if n else IntMatrix.zeros(0, 0)
    b = random_int_matrix(rng, m, bound) if m else IntMatrix.zeros(0, 0)
    return RealizationTarget(a, b)


# ---------------------------------------------------------------------------
# independent irreducibility oracle (criterion 5)


def _signed_divisors(n):
    magnitude = abs(n)
    divisors = [d for d in range(1, magnitude + 1) if magnitude % d == 0]
    return divisors + [-d for d in divisors]


def oracle_irreducible(p: IntPolynomial) -> bool:
    """Exhaustive irreducibility check for monic integer polynomials, degree <= 4.

    A monic integer polynomial of degree 2 or 3 is reducible over the
    rationals exactly when it has an integer root, which must divide the
    constant term.  A degree-4 polynomial can additionally split into two
    monic quadratics x^2+bx+c and x^2+dx+e; matching coefficients forces
    c*e = a0, b+d = a3 and b*d = a2-c-e, so b and d are integer roots of
    t^2 - a3*t + (a2-c-e) and every candidate is checked by exact division
    of the remaining linear constraint.
    """
    coefficients = list(p.coefficients)
    degree = len(coefficients) - 1
    if degree < 1 or coefficients[-1] != 1:
        raise ValueError("oracle expects a monic polynomial of positive degree")
    if degree > 4:
        raise ValueError("oracle only covers degree <= 4")
    if degree == 1:
        return True
    a0 = coefficients[0]
    if a0 == 0:
        return False  # x divides
    for candidate in _signed_divisors(a0):
        if sum(c * candidate**i for i, c in enumerate(coefficients)) == 0:
            return False
    if degree <= 3:
        return True
    a1, a2, a3 = coefficients[1], coefficients[2], coefficients[3]
    for c in _signed_divisors(a0):
        e, remainder = divmod(a0, c)
        if remainder:
            continue
        product_bd = a2 - c - e
        discriminant = a3 * a3 - 4 * product_bd
        if discriminant < 0:
            continue
        root = math.isqrt(discriminant)
        if root * root != discriminant:
            continue
        for numerator in {a3 + root, a3 - root}:
            if numerator % 2:
                continue
            b = numerator // 2
            d = a3 - b
            if b * d != product_bd:
                continue
            if b * e + c * d == a1:
                return False
    return True


IRREDUCIBLE_POOL = [
    IntPolynomial(coefficients)
    for coefficients in (
        (1, 1),  # x+1
        (-1, 1),  # x-1
        (2, 1),  # x+2
        (-3, 1),  # x-3
        (0, 1),  # x
        (1, 0, 1),  # x^2+1
        (2, 0, 1),  # x^2+2
        (-2, 0, 1),  # x^2-2
        (1, 1, 1),  # x^2+x+1
        (1, -1, 1),  # x^2-x+1
        (-1, -1, 0, 1),  # x^3-x-1
        (1, 1, 0, 1),  # x^3+x+1
        (-2, 0, 0, 1),  # x^3-2
        (1, 0, 0, 0, 1),  # x^4+1
        (1, -1, 0, 0, 1),  # x^4-x+1
    )
]


# ---------------------------------------------------------------------------
# criteria 1-3: the builtin corpus


def test_criterion_1():
    start = time.monotonic()
    c = load_builtin("example1")

    ell = klein_williams(c)
    assert len(ell.slots) == 2
    assert all(slot.total.is_zero for slot in ell.slots)
    assert ell.is_zero

    lam = lambda_invariant(c)
    assert [entry.value.total() for entry in lam.entries] == [0, 0]
    assert all(entry.value.is_zero for entry in lam.entries)

    u = universal_invariant(c)
    sphere_entry = u.entries[0]
    assert not sphere_entry.kclass.is_zero
    assert len(sphere_entry.kclass.terms) == 1
    matrix, coefficient = sphere_entry.kclass.terms[0]
    assert coefficient == 1
    assert (matrix.rows, matrix.cols) == (1, 1)
    assert str(matrix) == f"[{MINUS}g]"
    iso = c.classes[0]
    classes = twisted_classes(iso.aut, iso.twist)
    assert pi1_projection(matrix.trace(), classes) == {}

    assert time.monotonic() - start < 1.0


def test_criterion_2():
    start = time.monotonic()
    c = load_builtin("example2")
    free_class, fixed_class = c.classes

    assert lefschetz_number(free_class) == 2
    assert reidemeister_trace(fixed_class).is_zero
    assert str(klein_williams(c)) == f"2[1] {OPLUS} 0"
    assert [entry.value.total() for entry in lambda_invariant(c).entries] == [1, 0]
    u = universal_invariant(c)
    assert str(u.entries[0].kclass) == f"{MINUS}[{MINUS}1]"
    assert u.entries[0].uz_image is None  # lives over the Z2 group ring

    assert time.monotonic() - start < 1.0


def test_criterion_3():
    start = time.monotonic()
    c = load_builtin("example3")

    lam = lambda_invariant(c)
    per_subgroup: dict[tuple[int, ...], int] = {}
    for iso, entry in zip(c.classes, lam.entries):
        key = iso.subgroup.members
        per_subgroup[key] = per_subgroup.get(key, 0) + entry.value.total()
    ordered = [
        per_subgroup[key] for key in sorted(per_subgroup, key=lambda k: (len(k), k))
    ]
    assert ordered == [1, -1, -1, 2]

    assert str(klein_williams(c)) == f"2[1] {OPLUS} 0 {OPLUS} 0 {OPLUS} 2[1]"

    for iso, entry in zip(c.classes, lam.entries):
        relative_euler = sum(
            (-1) ** degree.degree * sum(1 for flag in degree.relative_mask if not flag)
            for degree in iso.degrees
        )
        zero_vector = (0,) * iso.aut.pi1_rank
        assert dict(entry.value.terms).get(zero_vector, 0) == relative_euler

    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# criterion 4: canonical matrix classes


def test_criterion_4():
    start = time.monotonic()
    rng = random.Random(20260825)
    for _ in range(500):
        n = rng.randint(1, 4)
        matrix = random_int_matrix(rng, n, 5)

        # invariance under unimodular conjugation
        u = random_unimodular(rng, n)
        conjugated = unimodular_inverse(u) @ matrix @ u
        assert class_of_matrix(matrix) == class_of_matrix(conjugated)

        # block-triangular additivity
        p = rng.randint(1, 3)
        q = rng.randint(1, 3)
        top = random_int_matrix(rng, p, 5)
        bottom = random_int_matrix(rng, q, 5)
        corner = [[rng.randint(-5, 5) for _ in range(q)] for _ in range(p)]
        combined = IntMatrix.from_rows(
            [list(top.row(i)) + corner[i] for i in range(p)]
            + [[0] * p + list(bottom.row(i)) for i in range(q)]
        )
        assert class_of_matrix(combined) == class_of_matrix(top) + class_of_matrix(bottom)

        # companion matrices land on the factored polynomial
        degree = rng.randint(1, 4)
        coefficients = tuple(rng.randint(-5, 5) for _ in range(degree)) + (1,)
        poly = IntPolynomial(coefficients)
        content, factors = factor_over_Q(poly)
        assert content == 1
        expected = UZClass.from_mapping({f: mult for f, mult in factors})
        assert class_of_matrix(companion_matrix(poly)) == expected

    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# criterion 5: factorization against the independent oracle


def test_criterion_5():
    for poly in IRREDUCIBLE_POOL:
        assert oracle_irreducible(poly), str(poly)

    rng = random.Random(20260826)
    for _ in range(200):
        picks = []
        total_degree = 0
        while True:
            candidates = [p for p in IRREDUCIBLE_POOL if total_degree + p.degree <= 8]
            if not candidates:
                break
            if picks and rng.random() < 0.3:
                break
            choice = rng.choice(candidates)
            picks.append(choice)
            total_degree += choice.degree
        product = IntPolynomial.one()
        for poly in picks:
            product = product * poly

        content, factors = factor_over_Q(product)
        assert content == 1
        assert dict(factors) == dict(Counter(picks))
        for factor, _ in factors:
            if factor.degree <= 4:
                assert oracle_irreducible(factor), str(factor)


# ---------------------------------------------------------------------------
# criteria 6-8: realization and vanishing


def test_criterion_6():
    for name in EXAMPLES:
        c = load_builtin(name)
        for iso in c.classes:
            assert reidemeister_trace(iso).total() == lefschetz_number(iso)
    rng = random.Random(20260827)
    for _ in range(100):
        iso = realize(random_target(rng)).classes[0]
        assert reidemeister_trace(iso).total() == lefschetz_number(iso)


def test_criterion_7():
    rng = random.Random(20260828)
    for _ in range(100):
        t = random_target(rng)
        c = realize(t)
        entry = universal_invariant(c).entries[0]
        expected = class_of_matrix(t.a) - class_of_matrix(t.b_prime)
        assert entry.uz_image is not None
        assert entry.uz_image == expected

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(["check", json.dumps(serialize_complex(c))])
        assert code == 0
        assert stdout.getvalue().startswith("OK:")


def test_criterion_8():
    for name in EXAMPLES:
        report = vanishing_report(load_builtin(name))
        assert report["consistent"] is True
        assert report["ell_zero"] == report["lambda_zero"]

    rng = random.Random(20260828)  # the same wedge corpus as criterion 7
    wedges = [realize(random_target(rng)) for _ in range(100)]
    one = IntMatrix.from_rows([[1]])
    wedges.append(realize(RealizationTarget(one, one)))
    wedges.append(realize(RealizationTarget(IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0))))
    saw_vanishing = saw_nonvanishing = False
    for c in wedges:
        report = vanishing_report(c)
        assert report["consistent"] is True
        assert report["ell_zero"] == report["lambda_zero"]
        saw_vanishing = saw_vanishing or report["ell_zero"]
        saw_nonvanishing = saw_nonvanishing or not report["ell_zero"]
    assert saw_vanishing and saw_nonvanishing


# ---------------------------------------------------------------------------
# criterion 9: induction


FREE_CIRCLE = {
    "format_version": 1,
    "group": {"builtin": "trivial"},
    "iso_classes": [
        {
            "subgroup_class": ["1"],
            "component": "circle",
            "pi1_rank": 1,
            "phi_pi": [[2]],
            "chain": [
                {"degree": 0, "rank": 1, "relative_mask": [False], "map": [[1]]},
                {
                    "degree": 1,
                    "rank": 1,
                    "relative_mask": [False],
                    "map": [[[1, {"coeff": 1, "vector": [1]}]]],
                    "boundary": [[[{"coeff": 1, "vector": [1]}, -1]]],
                },
            ],
        }
    ],
}


def test_criterion_9():
    # H = G along the identity
    c1 = load_builtin("example1")
    induced, pushed = induce(c1, c1.group, {"1": "1", "g": "g"})
    assert pushed == klein_williams(induced)
    assert pushed == klein_williams(c1)

    # H = G along a nontrivial relabeling
    c2 = load_builtin("example2")
    renamed = FiniteGroup(("e", "s"), ((0, 1), (1, 0)))
    induced2, pushed2 = induce(c2, renamed, {"1": "e", "g": "s"})
    assert pushed2 == klein_williams(induced2)
    assert [slot.subgroup_labels for slot in pushed2.slots] == [("e",), ("e", "s")]

    # {1} <= Z2: free induction multiplies coefficients by the index
    free = load_complex(FREE_CIRCLE)
    base = klein_williams(free)
    induced3, pushed3 = induce(free, FiniteGroup.builtin("Z2"), {"1": "1"})
    assert pushed3 == klein_williams(induced3)
    assert pushed3.slots[0].total.terms == base.slots[0].total.scale(2).terms
    assert induced3.classes[0].orbit_size == 2
