"""Frozen-value and property tests for the invariant layer.

The expected values for the three builtin complexes were computed by hand
from their cell structures: alternating traces of the relative chain maps,
reduction modulo twisted conjugacy, and orbit aggregation per subgroup
class.  They are asserted verbatim so any drift in the pipeline is caught.
"""

from __future__ import annotations

import collections
import copy
import itertools
import json
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqlef import (
    ClassSum,
    KClass,
    UZClass,
    build_report,
    induce,
    klein_williams,
    lambda_invariant,
    lefschetz_number,
    load_builtin,
    load_complex,
    pi1_projection,
    reidemeister_from_fixed_points,
    reidemeister_trace,
    render_report,
    serialize_complex,
    twisted_classes,
    universal_invariant,
    vanishing_report,
)
from eqlef.corpus import BUILTIN_COMPLEXES
from eqlef.equivariant_groups import (
    AutGroup,
    FiniteGroup,
    GroupRingElement,
    GroupRingMatrix,
    conjugacy_classes_of_subgroups,
    weyl_group,
)
from eqlef.exact_algebra import IntMatrix, IntPolynomial
from eqlef.invariants import _alternating_projection, _validate_embedding
from eqlef.realize import RealizationTarget, realize

from test_equivariant_groups import right_for_one_generator
from test_torus import torus_document

MINUS = "−"
OPLUS = "⊕"

TRIVIAL_AUT = AutGroup(0, FiniteGroup.builtin("trivial"))


def int_ring_matrix(rows, aut=TRIVIAL_AUT):
    """A group-ring matrix with plain integer entries (identity group part)."""
    zero_vector = (0,) * aut.pi1_rank
    return GroupRingMatrix(
        aut,
        len(rows),
        len(rows[0]) if rows else 0,
        [
            GroupRingElement.basis(aut, zero_vector, aut.weyl.identity, v)
            for row in rows
            for v in row
        ],
    )


def random_int_rows(rng, n, bound=3):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def renumbered(rows, sigma):
    """The simultaneous row/column renumbering of ``rows`` by ``sigma``."""
    n = len(rows)
    return [[rows[sigma[j]][sigma[i]] for i in range(n)] for j in range(n)]


def exhaustive_canonical_block(matrix):
    """The least row-major key over all n! renumberings (the form 1×1 and 2×2 blocks keep)."""
    n = matrix.rows

    def key(p):
        return tuple(matrix.entry(p[i], p[j]).terms for i in range(n) for j in range(n))

    best = min(itertools.permutations(range(n)), key=key)
    entries = tuple(matrix.entry(i, j) for i in best for j in best)
    return GroupRingMatrix(matrix.aut, n, n, entries)


# ---------------------------------------------------------------------------
# frozen values for the builtin corpus


def test_example1_frozen_values():
    c = load_builtin("example1")
    u = universal_invariant(c)
    lam = lambda_invariant(c)
    ell = klein_williams(c)

    assert [iso.component for iso in c.classes] == ["sphere", "circle"]
    assert str(u.entries[0].kclass) == f"+[{MINUS}g]"
    assert u.entries[0].uz_image is None
    assert u.entries[1].kclass.is_zero
    assert tuple(entry.value.total() for entry in lam.entries) == (0, 0)
    assert all(entry.value.is_zero for entry in lam.entries)
    for iso in c.classes:
        assert reidemeister_trace(iso).is_zero
        assert lefschetz_number(iso) == 0
    assert str(ell) == f"0 {OPLUS} 0"
    assert ell.is_zero
    assert vanishing_report(c) == {"ell_zero": True, "lambda_zero": True, "consistent": True}


def test_example1_sphere_term_detail():
    # the singular-sphere class contributes a single 1-by-1 matrix whose
    # entry is minus the Weyl generator; its trace has no translation part,
    # so the projected trace vanishes even though the class itself does not
    c = load_builtin("example1")
    iso = c.classes[0]
    entry = universal_invariant(c).entries[0]
    assert len(entry.kclass.terms) == 1
    matrix, coefficient = entry.kclass.terms[0]
    assert coefficient == 1
    assert (matrix.rows, matrix.cols) == (1, 1)
    assert str(matrix) == f"[{MINUS}g]"
    classes = twisted_classes(iso.aut, iso.twist)
    assert pi1_projection(matrix.trace(), classes) == {}
    assert not entry.kclass.is_zero


def test_example2_frozen_values():
    c = load_builtin("example2")
    u = universal_invariant(c)
    lam = lambda_invariant(c)
    ell = klein_williams(c)

    assert [iso.component for iso in c.classes] == ["S3", "S2"]
    assert str(u.entries[0].kclass) == f"{MINUS}[{MINUS}1]"
    assert u.entries[0].uz_image is None
    assert (
        str(u.entries[1].kclass)
        == f"+2·[{MINUS}1] +2·[1] {MINUS}[0, {MINUS}1; {MINUS}1, 0]"
    )
    assert str(u.entries[1].uz_image) == f"+1·(x{MINUS}1) +1·(x+1)"
    assert tuple(entry.value.total() for entry in lam.entries) == (1, 0)
    assert str(lam.entries[0].value) == "1[1]"
    assert lam.entries[1].value.is_zero

    free_class, fixed_class = c.classes
    assert str(reidemeister_trace(free_class)) == "2[1]"
    assert lefschetz_number(free_class) == 2
    assert reidemeister_trace(fixed_class).is_zero
    assert lefschetz_number(fixed_class) == 0

    assert str(ell) == f"2[1] {OPLUS} 0"
    assert [slot.subgroup_labels for slot in ell.slots] == [("1",), ("1", "g")]
    assert vanishing_report(c) == {
        "ell_zero": False,
        "lambda_zero": False,
        "consistent": True,
    }


def test_example3_frozen_values():
    c = load_builtin("example3")
    u = universal_invariant(c)
    lam = lambda_invariant(c)
    ell = klein_williams(c)

    assert [iso.component for iso in c.classes] == [
        "sphere",
        "circle-h",
        "circle-g",
        "pole-a",
        "pole-b",
    ]
    assert [str(entry.kclass) for entry in u.entries] == [
        "+[1]",
        f"{MINUS}[1]",
        f"{MINUS}[1]",
        "+[1]",
        "+[1]",
    ]
    assert [
        None if entry.uz_image is None else str(entry.uz_image) for entry in u.entries
    ] == [None, None, None, f"+1·(x{MINUS}1)", f"+1·(x{MINUS}1)"]
    assert tuple(entry.value.total() for entry in lam.entries) == (1, -1, -1, 1, 1)
    assert [str(entry.value) for entry in lam.entries] == [
        "1[1]",
        f"{MINUS}1[0]",
        f"{MINUS}1[0]",
        "1[1]",
        "1[1]",
    ]
    assert [str(reidemeister_trace(iso)) for iso in c.classes] == [
        "2[1]",
        "0",
        "0",
        "1[1]",
        "1[1]",
    ]
    assert [lefschetz_number(iso) for iso in c.classes] == [2, 0, 0, 1, 1]

    assert str(ell) == f"2[1] {OPLUS} 0 {OPLUS} 0 {OPLUS} 2[1]"
    assert [slot.subgroup_labels for slot in ell.slots] == [
        ("1",),
        ("1", "g"),
        ("1", "h"),
        ("1", "g", "h", "gh"),
    ]
    pole_slot = ell.slots[3]
    assert [contrib.component for contrib in pole_slot.contributions] == [
        "pole-a",
        "pole-b",
    ]
    assert str(pole_slot.total) == "2[1]"
    assert vanishing_report(c) == {
        "ell_zero": False,
        "lambda_zero": False,
        "consistent": True,
    }


def test_lambda_identity_class_is_relative_euler_characteristic():
    # the third builtin acts by maps homotopic to the identity on each
    # component, so the identity-class coefficient of lambda is the
    # relative Euler characteristic (alternating count of unmasked cells)
    c = load_builtin("example3")
    lam = lambda_invariant(c)
    for iso, entry in zip(c.classes, lam.entries):
        relative_euler = sum(
            (-1) ** degree.degree * sum(1 for flag in degree.relative_mask if not flag)
            for degree in iso.degrees
        )
        zero_vector = (0,) * iso.aut.pi1_rank
        assert dict(entry.value.terms).get(zero_vector, 0) == relative_euler


def test_reidemeister_trace_matches_fixed_point_data():
    for name in ("example1", "example2", "example3"):
        c = load_builtin(name)
        for iso in c.classes:
            classes = twisted_classes(iso.pi1_aut(), iso.twist)
            from_points = reidemeister_from_fixed_points(c.fixed_points_for(iso), classes)
            assert from_points == reidemeister_trace(iso), (name, iso.label())


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_fixed_point_data_needs_a_twisted_class_set(name):
    with pytest.raises(ValueError) as caught:
        reidemeister_from_fixed_points(load_builtin(name).fixed_points, None)
    assert str(caught.value) == "a twisted class set is required for nonempty fixed-point data."


def z2_document(iso_classes):
    return {"format_version": 1, "group": {"builtin": "Z2"}, "iso_classes": iso_classes}


NO_CHAIN_CLASS = {
    "subgroup_class": ["1"],
    "component": "c",
    "pi1_rank": 0,
    "phi_pi": [],
    "chain": [],
}


def test_a_class_with_no_chain_has_zero_invariants():
    c = load_complex(z2_document([NO_CHAIN_CLASS]))
    assert build_report(c) == {
        "group": {"order": 2, "labels": ["1", "g"]},
        "classes": [
            {
                "subgroup_class": ["1"],
                "component": "c",
                "orbit_size": 1,
                "u": {"rendered": "0", "terms": []},
                "lambda": [],
                "reidemeister": [],
                "lefschetz": 0,
            }
        ],
        "ell": {
            "rendered": "0",
            "slots": [
                {
                    "subgroup_class": ["1"],
                    "total": [],
                    "contributions": [{"component": "c", "orbit_size": 1, "value": []}],
                }
            ],
        },
        "vanishing": {"ell_zero": True, "lambda_zero": True, "consistent": True},
    }
    assert render_report(c) == """complex (group order 2)
  (subgroup {1}, component 'c'):
    u = 0
    lambda = 0
    R = 0
    L = 0
  ell = 0
  vanishing: ell zero: yes; lambda zero: yes; consistent: yes"""


def test_a_complex_with_no_classes_renders_each_invariant_as_zero():
    c = load_complex(z2_document([]))
    invariants = (universal_invariant, lambda_invariant, klein_williams)
    assert [str(invariant(c)) for invariant in invariants] == ["0", "0", "0"]
    assert render_report(c) == (
        "complex (group order 2)\n"
        "  ell = 0\n"
        "  vanishing: ell zero: yes; lambda zero: yes; consistent: yes"
    )


def test_hopf_augmentation_on_corpus():
    # the augmentation of the Reidemeister trace is the Lefschetz number
    for name in ("example1", "example2", "example3"):
        c = load_builtin(name)
        for iso in c.classes:
            assert reidemeister_trace(iso).total() == lefschetz_number(iso)


# ---------------------------------------------------------------------------
# universal-class normal form


def test_kclass_invariant_under_basis_renumbering():
    rng = random.Random(401)
    for _ in range(100):
        n = rng.randint(1, 6)
        rows = random_int_rows(rng, n)
        sigma = list(range(n))
        rng.shuffle(sigma)
        permuted = [[rows[sigma[j]][sigma[i]] for i in range(n)] for j in range(n)]
        original = KClass.from_terms([(int_ring_matrix(rows), 1)])
        renumbered = KClass.from_terms([(int_ring_matrix(permuted), 1)])
        assert original.compare(renumbered) == "equal"


def test_kclass_padding_cancellation():
    rng = random.Random(402)
    one = int_ring_matrix([[1]])
    for _ in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(1, 3)
        rows = random_int_rows(rng, n)
        padded = [row + [0] * k for row in rows] + [
            [0] * n + [1 if i == j else 0 for i in range(k)] for j in range(k)
        ]
        with_padding = KClass.from_terms([(int_ring_matrix(padded), 1), (one, -k)])
        plain = KClass.from_terms([(int_ring_matrix(rows), 1)])
        assert with_padding.compare(plain) == "equal"


def test_kclass_block_triangular_split():
    rng = random.Random(403)
    for _ in range(200):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        a = random_int_rows(rng, n)
        c = random_int_rows(rng, m)
        b = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        combined = [a[j] + b[j] for j in range(n)] + [[0] * n + c[j] for j in range(m)]
        whole = KClass.from_terms([(int_ring_matrix(combined), 1)])
        split = KClass.from_terms([(int_ring_matrix(a), 1), (int_ring_matrix(c), 1)])
        assert whole.compare(split) == "equal"


def test_kclass_zero_handling():
    zero_cell = KClass.from_terms([(int_ring_matrix([[0]]), 1)])
    assert not zero_cell.is_zero
    assert str(zero_cell) == "+[0]"
    empty = KClass.from_terms([(int_ring_matrix([]), 1)])
    assert empty.is_zero
    assert KClass.from_terms([]).is_zero
    assert str(KClass.zero()) == "0"
    cancelled = KClass.from_terms(
        [(int_ring_matrix([[2]]), 1), (int_ring_matrix([[2]]), -1)]
    )
    assert cancelled.is_zero


def test_kclass_compare_wording():
    one = KClass.from_terms([(int_ring_matrix([[1]]), 1)])
    two = KClass.from_terms([(int_ring_matrix([[2]]), 1)])
    assert one.compare(one) == "equal"
    assert one.compare(two) == "not provably equal"


def test_kclass_arithmetic_and_render():
    one = KClass.from_terms([(int_ring_matrix([[1]]), 1)])
    two = KClass.from_terms([(int_ring_matrix([[2]]), 1)])
    total = one + two
    assert str(total) == "+[1] +[2·1]"
    assert str(one - one) == "0"
    assert str(-two) == f"{MINUS}[2·1]"
    doubled = one + one
    assert str(doubled) == "+2·[1]"


def timed_kclass(rows):
    """The KClass of one integer block, and the least wall time of three constructions."""
    matrix = int_ring_matrix(rows)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        kclass = KClass.from_terms([(matrix, 1)])
        seconds.append(time.perf_counter() - start)
    return kclass, min(seconds)


@pytest.mark.parametrize("n", [9, 12, 16, 32, 64])
def test_kclass_renumbered_long_cycle_compares_equal(n):
    # a directed cycle is discrete after one individualization
    rng = random.Random(404 + n)
    cycle = [[1 if i == (j + 1) % n else 0 for i in range(n)] for j in range(n)]
    sigma = list(range(n))
    rng.shuffle(sigma)
    original = KClass.from_terms([(int_ring_matrix(cycle), 1)])
    renumbered_cycle, seconds = timed_kclass(renumbered(cycle, sigma))
    assert renumbered_cycle.compare(original) == "equal"
    assert seconds < 0.1


def test_kclass_of_an_all_equal_64_by_64_block():
    # every renumbering is an automorphism; 2,080 search nodes at n = 64
    kclass, seconds = timed_kclass([[1] * 64 for _ in range(64)])
    assert kclass.terms == ((int_ring_matrix([[1] * 64 for _ in range(64)]), 1),)
    assert seconds < 0.5


@st.composite
def tied_blocks(draw, max_size):
    """A square integer matrix with few distinct entries, and a renumbering.

    Half of the matrices are circulant, so that many renumberings fix them.
    """
    n = draw(st.integers(1, max_size))
    entries = st.sampled_from([0, 0, 0, 1, 1, -1, 2])
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [[rows[0][(j - i) % n] for j in range(n)] for i in range(n)]
    return rows, draw(st.permutations(range(n)))


@st.composite
def tied_pairs(draw, max_size):
    """A tied block and a renumbering of it, perhaps with one entry changed or two swapped."""
    rows, sigma = draw(tied_blocks(max_size))
    other = renumbered(rows, sigma)
    n = len(rows)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edit = draw(st.sampled_from(["none", "change", "swap"]))
    if edit == "change":
        (i, j), value = draw(cell), draw(st.sampled_from([0, 1, -1, 2]))
        other[i][j] = value
    elif edit == "swap":
        (i, j), (k, m) = draw(cell), draw(cell)
        other[i][j], other[k][m] = other[k][m], other[i][j]
    return rows, other


def renumberings(rows):
    return (renumbered(rows, p) for p in itertools.permutations(range(len(rows))))


def int_rows(matrix):
    """The integer rows of a matrix that :func:`int_ring_matrix` built."""
    coefficients = [sum(c for _, _, c in entry.terms) for entry in matrix.entries]
    return [coefficients[i * matrix.cols : (i + 1) * matrix.cols] for i in range(matrix.rows)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tied_pairs(max_size=6))
@example(
    (
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 2]],
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 0]],
    )
)
def test_kclass_normal_form_matches_exhaustive_oracle(pair):
    # two forms are equal exactly when some renumbering carries one block to the other
    from eqlef import invariants

    rows, other = pair
    form = invariants._canonical_block(int_ring_matrix(rows))
    assert int_rows(form) in renumberings(rows)
    same_form = form == invariants._canonical_block(int_ring_matrix(other))
    assert same_form == (other in renumberings(rows))


@pytest.mark.parametrize("n", [1, 2])
def test_small_blocks_keep_their_least_row_major_key(n):
    # the golden digests and builtin reports hold only such blocks
    from eqlef import invariants

    for values in itertools.product(range(-2, 3), repeat=n * n):
        matrix = int_ring_matrix([values[i * n : (i + 1) * n] for i in range(n)])
        assert invariants._canonical_block(matrix) == exhaustive_canonical_block(matrix)


def test_canonical_search_refuses_past_its_node_budget(monkeypatch):
    from eqlef import invariants

    monkeypatch.setattr(invariants, "MAX_CANONICAL_NODES", 35)
    all_equal = int_ring_matrix([[1] * 8 for _ in range(8)])  # needs 36 nodes
    message = (
        "the canonical form of a 8×8 block needs more than "
        "MAX_CANONICAL_NODES = 35 search nodes."
    )
    with pytest.raises(ValueError) as refusal:
        KClass.from_terms([(all_equal, 1)])
    assert str(refusal.value) == message
    monkeypatch.setattr(invariants, "MAX_CANONICAL_NODES", 36)
    assert KClass.from_terms([(all_equal, 1)]).terms == ((all_equal, 1),)


def srg_16_6_2_2(connection):
    """The Cayley graph of ℤ₄×ℤ₄ whose edges are the differences in ``connection``."""
    cells = [(a, b) for a in range(4) for b in range(4)]
    return [
        [int(((p[0] - q[0]) % 4, (p[1] - q[1]) % 4) in connection) for q in cells]
        for p in cells
    ]


SHRIKHANDE = srg_16_6_2_2({(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)})
ROOK_4X4 = srg_16_6_2_2({(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)})


def test_shrikhande_graph_forms_are_renumbering_invariant_and_told_apart():
    # both are strongly regular with parameters (16, 6, 2, 2), so refinement
    # alone leaves every vertex tied and the search individualizes several:
    # it cuts a refinement whose trace already exceeds the best one's, and
    # returns from a leaf whose key is worse than the best leaf's
    rng = random.Random(1916)
    shrikhande = KClass.from_terms([(int_ring_matrix(SHRIKHANDE), 1)])
    for _ in range(4):
        sigma = list(range(16))
        rng.shuffle(sigma)
        moved = KClass.from_terms([(int_ring_matrix(renumbered(SHRIKHANDE, sigma)), 1)])
        assert moved == shrikhande
    rook = KClass.from_terms([(int_ring_matrix(ROOK_4X4), 1)])
    assert rook != shrikhande
    assert rook.compare(shrikhande) != "equal"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tied_blocks(max_size=10))
def test_kclass_normal_form_ignores_renumbering(block):
    rows, sigma = block
    original = KClass.from_terms([(int_ring_matrix(rows), 1)])
    moved = KClass.from_terms([(int_ring_matrix(renumbered(rows, sigma)), 1)])
    assert moved == original


def test_kclass_rejects_rectangular_terms():
    with pytest.raises(ValueError, match="square"):
        KClass.from_terms([(int_ring_matrix([[1, 2]]), 1)])


# ---------------------------------------------------------------------------
# twisted-class sums


def test_classsum_merging_and_render():
    merged = ClassSum(
        (((), 1), ((), 1), ((0,), -1), ((0,), 1))
    )
    assert merged.terms == (((), 2),)
    assert str(merged) == "2[1]"
    assert str(ClassSum.from_mapping({(0,): -1})) == f"{MINUS}1[0]"
    assert str(ClassSum.from_mapping({(1, 2): 3})) == "3[(1,2)]"
    assert str(ClassSum.zero()) == "0"


def test_classsum_algebra():
    a = ClassSum.from_mapping({(): 2, (1,): 1})
    b = ClassSum.from_mapping({(): -1})
    assert dict((a + b).terms)[()] == 1
    assert dict((a - b).terms)[()] == 3
    assert dict((-a).terms)[(1,)] == -1
    assert a.scale(3).total() == 9
    assert a.total() == 3
    assert (2,) not in dict(a.terms)
    assert (b + ClassSum.from_mapping({(): 1})).is_zero


# ---------------------------------------------------------------------------
# the shared normal form of ClassSum, UZClass and KClass


FORMAL_SUM_KEYS = {
    ClassSum: st.lists(st.integers(-1, 1), max_size=2).map(tuple),
    UZClass: st.lists(st.integers(-1, 1), max_size=2).map(lambda c: IntPolynomial((*c, 1))),
    KClass: tied_blocks(max_size=4).map(lambda block: int_ring_matrix(renumbered(*block))),
}


@pytest.mark.parametrize("cls", list(FORMAL_SUM_KEYS), ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_formal_sum_group_laws(cls, data):
    term_lists = st.lists(st.tuples(FORMAL_SUM_KEYS[cls], st.integers(-3, 3)), max_size=3)
    x, y, z = (data.draw(term_lists) for _ in range(3))
    a, b, c = (cls.from_terms(terms) for terms in (x, y, z))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a - a).is_zero and a - a == cls.zero()
    k = data.draw(st.integers(0, 3))
    multiple = cls.zero()
    for _ in range(k):
        multiple = multiple + a
    assert a.scale(k) == multiple
    assert cls.from_mapping(dict(a.terms)) == a
    if cls is KClass:
        assert cls.from_terms(x) + cls.from_terms(y) == cls.from_terms(x + y)
    # the operators on normal sums agree with normalizing their terms again
    assert a + b == cls.from_terms(a.terms + b.terms)
    assert -a == cls.from_terms((key, -coefficient) for key, coefficient in a.terms)
    assert a.scale(k) == cls.from_terms((key, k * coefficient) for key, coefficient in a.terms)


def test_kclass_construction_is_the_normal_form():
    # the constructor splits blocks and takes canonical forms, as from_terms does
    n = int_ring_matrix([[1, 2], [0, 1]])
    a = KClass(((n, 1),))
    assert a == KClass.from_terms([(n, 1)])
    assert a.compare(KClass.from_terms([(n, 1)])) == "equal"
    assert a.terms == ((int_ring_matrix([[1]]), 2),)
    assert a.scale(1) == a + KClass.zero()


def test_operators_on_normal_sums_do_not_normalize_again(monkeypatch):
    # scale, − and + of normal sums neither split blocks nor search again
    cycle = int_ring_matrix([[int(j == (i + 1) % 10) for j in range(10)] for i in range(10)])
    a = KClass.from_terms([(cycle, 1)])
    b = KClass.from_terms([(int_ring_matrix([[2]]), 3), (cycle, -1)])
    original = KClass.normal_keys.__func__
    calls = []

    def counting(cls, matrix):
        calls.append(matrix)
        return original(cls, matrix)

    monkeypatch.setattr(KClass, "normal_keys", classmethod(counting))
    negated, scaled, summed, difference = -a, a.scale(-2), a + b, b - a
    assert calls == []
    assert negated.terms == ((a.terms[0][0], -1),)
    assert scaled == negated + negated
    assert summed.terms == ((int_ring_matrix([[2]]), 3),)
    assert difference == summed.scale(1) + scaled
    KClass.from_terms([(cycle, 1)])
    assert len(calls) == 1  # the count sees the constructor


def test_induce_identity_isomorphism():
    c = load_builtin("example1")
    induced, ell = induce(c, c.group, {"1": "1", "g": "g"})
    # the induced document spells the group table out instead of naming the
    # builtin, but all class data must round-trip unchanged
    original = serialize_complex(c)
    copied = serialize_complex(induced)
    assert copied["iso_classes"] == original["iso_classes"]
    assert copied.get("fixed_points", []) == original.get("fixed_points", [])
    assert induced.group.labels == c.group.labels
    assert ell == klein_williams(c)
    assert ell == klein_williams(induced)


def test_induce_relabeling_isomorphism():
    c = load_builtin("example2")
    renamed = FiniteGroup(("e", "s"), ((0, 1), (1, 0)))
    induced, ell = induce(c, renamed, {"1": "e", "g": "s"})
    assert induced.group.labels == ("e", "s")
    assert [slot.subgroup_labels for slot in ell.slots] == [("e",), ("e", "s")]
    assert ell == klein_williams(induced)
    assert str(ell) == f"2[1] {OPLUS} 0"


def test_induce_along_an_automorphism_that_moves_element_indices():
    # g ↔ h swaps the indices of two order-2 subgroups of Z2xZ2; ℓ's slots
    # and their labels must follow the target's element order
    c = load_builtin("example3")
    induced, ell = induce(c, c.group, {"1": "1", "g": "h", "h": "g", "gh": "gh"})
    assert [slot.subgroup_labels for slot in ell.slots] == [
        ("1",),
        ("1", "g"),
        ("1", "h"),
        ("1", "g", "h", "gh"),
    ]
    assert ell == klein_williams(induced)
    assert ell_structure(ell) == ell_structure(klein_williams(induced))


def free_circle_document():
    """A degree-2 self-map of the circle over the trivial group."""
    return {
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


def test_free_circle_reidemeister_values():
    c = load_complex(free_circle_document())
    iso = c.classes[0]
    assert str(reidemeister_trace(iso)) == f"{MINUS}1[0]"
    assert lefschetz_number(iso) == -1
    assert str(klein_williams(c)) == f"{MINUS}1[0]"


def test_induce_free_class_into_order_two_group():
    c = load_complex(free_circle_document())
    z2 = FiniteGroup.builtin("Z2")
    induced, ell = induce(c, z2, {"1": "1"})
    assert induced.group.order == 2
    iso = induced.classes[0]
    assert iso.subgroup.member_labels == ("1",)
    assert iso.orbit_size == 2
    assert str(ell) == f"{MINUS}2[0]"
    assert ell == klein_williams(induced)


def test_induce_along_an_inner_automorphism_of_sym3():
    # conjugation by 210 sends {012, 021} to {012, 102}, which is not the least
    # subgroup of its conjugacy class; the induced class goes back to {012, 021}
    sym3 = FiniteGroup.builtin("Sym:3")
    document = {
        "format_version": 1,
        "group": {"builtin": "Sym:3"},
        "iso_classes": [
            {
                "subgroup_class": ["012", "021"],
                "component": "point",
                "pi1_rank": 0,
                "phi_pi": [],
                "chain": [{"degree": 0, "rank": 1, "map": [[1]]}],
            }
        ],
    }
    source = load_complex(document)
    induced, pushed = induce(source, sym3, inner_automorphism(sym3, sym3.element_index("210")))
    assert induced.classes[0].subgroup.member_labels == ("012", "021")
    assert ell_structure(pushed) == ell_structure(klein_williams(induced))


@pytest.mark.parametrize("name", ["Sym:3", "Sym:4"])
def test_induce_along_every_inner_automorphism(name):
    group = FiniteGroup.builtin(name)
    count = len(conjugacy_classes_of_subgroups(group))
    entries = [[(i + 1, i), (-1, 2 * i + 1)] for i in range(count)]
    source = load_complex(weyl_labelled_document(name, entries))
    for x in range(group.order):
        induced, pushed = induce(source, group, inner_automorphism(group, x))
        assert ell_structure(pushed) == ell_structure(klein_williams(induced))


def induced_circle(group, identity, orbit_size):
    """The named free circle induced freely into ``group``, as serialized."""
    cell = {"relative_mask": [False], "stabilizers": [[identity]]}
    return {
        "format_version": 1,
        "group": group,
        "name": "circle-induced",
        "iso_classes": [
            {
                "subgroup_class": [identity],
                "component": "circle",
                "pi1_rank": 1,
                "weyl": [identity],
                "phi_pi": [[2]],
                "orbit_size": orbit_size,
                "chain": [
                    {"degree": 0, "rank": 1, **cell, "map": [[1]]},
                    {
                        "degree": 1,
                        "rank": 1,
                        **cell,
                        "map": [[[1, {"coeff": 1, "vector": [1]}]]],
                        "boundary": [[[-1, {"coeff": 1, "vector": [1]}]]],
                    },
                ],
            }
        ],
    }


def example3_circle(component, subgroup, weyl):
    """A circle class of ``example3``: isotropy {1, subgroup}, Weyl group {1, weyl} by −1."""
    return {
        "subgroup_class": ["1", subgroup],
        "component": component,
        "pi1_rank": 1,
        "weyl": ["1", weyl],
        "action": {weyl: [[-1]]},
        "phi_pi": [[1]],
        "orbit_size": 1,
        "chain": [
            {
                "degree": 0,
                "rank": 2,
                "relative_mask": [True, True],
                "stabilizers": [["1", weyl], ["1", weyl]],
                "map": [[1, 0], [0, 1]],
            },
            {
                "degree": 1,
                "rank": 1,
                "relative_mask": [False],
                "stabilizers": [["1"]],
                "map": [[1]],
                "boundary": [[1, -1]],
            },
        ],
    }


def test_induced_documents_are_pinned():
    def spelled(g):
        return {"labels": list(g.labels), "table": [list(row) for row in g.table]}

    sym3 = FiniteGroup.builtin("Sym:3")
    circle = load_complex(
        {
            **free_circle_document(),
            "name": "circle",
            "description": "z ↦ z² on the circle",
            "fixed_points": [
                {"subgroup_class": ["1"], "component": "circle", "index": -1, "path": [0]}
            ],
        }
    )
    for group, identity in ((FiniteGroup.builtin("Z2"), "1"), (sym3, "012")):
        # free induction: renamed, no description or fixed points, orbits × |G|
        induced, _ = induce(circle, group, {"1": identity})
        expected = induced_circle(spelled(group), identity, group.order)
        assert json.dumps(serialize_complex(induced)) == json.dumps(expected)

    example1 = load_builtin("example1")
    induced, _ = induce(example1, example1.group, {"1": "1", "g": "g"})
    expected = {**serialize_complex(example1), "group": spelled(example1.group)}
    assert json.dumps(serialize_complex(induced)) == json.dumps(expected)

    # g ↔ h: the sphere's 1-cells and the circle classes trade labels, in place
    example3 = load_builtin("example3")
    source = serialize_complex(example3)
    assert source["iso_classes"][1:3] == [
        example3_circle("circle-h", "h", "g"),
        example3_circle("circle-g", "g", "h"),
    ]
    induced, _ = induce(example3, example3.group, {"1": "1", "g": "h", "h": "g", "gh": "gh"})
    expected = {**copy.deepcopy(source), "group": spelled(example3.group)}
    expected["iso_classes"][0]["chain"][1]["stabilizers"] = [["1", "g"], ["1", "h"]]
    expected["iso_classes"][1:3] = [
        example3_circle("circle-h", "g", "h"),
        example3_circle("circle-g", "h", "g"),
    ]
    expected["fixed_points"][1:3] = [
        {"subgroup_class": ["1", "g"], "component": "circle-h", "index": 0, "path": [0]},
        {"subgroup_class": ["1", "h"], "component": "circle-g", "index": 0, "path": [0]},
    ]
    assert json.dumps(serialize_complex(induced)) == json.dumps(expected)


def test_induce_empty_complex():
    empty = load_complex({"format_version": 1, "group": {"builtin": "trivial"}, "iso_classes": []})
    induced, ell = induce(empty, FiniteGroup.builtin("Z2"), {"1": "1"})
    assert induced.group.order == 2
    assert not induced.classes
    assert ell.is_zero


def test_induce_rejects_unsupported_embeddings():
    c = load_builtin("example1")
    z4 = FiniteGroup.builtin("Zn:4")
    with pytest.raises(ValueError, match="missing"):
        induce(c, z4, {})
    with pytest.raises(ValueError, match=r"outside the source group: \['zz'\]"):
        induce(c, FiniteGroup.builtin("Z2"), {"1": "1", "g": "g", "zz": "g"})
    with pytest.raises(ValueError, match="not injective"):
        induce(c, z4, {"1": "1", "g": "1"})
    with pytest.raises(
        ValueError, match=r"^embedding does not preserve multiplication at \('g', 'g'\)\.$"
    ):
        induce(c, z4, {"1": "1", "g": "r1"})
    with pytest.raises(
        ValueError, match="source order 2 inside target order 4"
    ):
        induce(c, z4, {"1": "1", "g": "r2"})


EMBEDDING_SOURCES = ("trivial", "Z2", "Zn:3", "Zn:4", "Z2xZ2", "Sym:3")
EMBEDDING_TARGETS = ("Z2", "Z2xZ2", "Zn:4", "Zn:6", "Sym:3", "Sym:4")


def power(group, x, n):
    result = group.identity
    for _ in range(n):
        result = group.multiply(result, x)
    return result


def random_label_map(rng, h, g):
    """Target indices for ``h``'s elements: often a homomorphism, sometimes two images swapped."""
    image = None
    for _ in range(4):  # extend random generator images along words, if they are consistent
        image = {h.identity: g.identity}
        image.update((s, rng.randrange(g.order)) for s in h.generators)
        pending = [h.identity]
        while pending and image is not None:
            x = pending.pop()
            for s in h.generators:
                y, value = h.multiply(s, x), g.multiply(image[s], image[x])
                if y not in image:
                    image[y] = value
                    pending.append(y)
                elif image[y] != value:
                    image = None
                    break
        if image is not None and len(set(image.values())) == h.order:
            break
        image = None
    if image is None and h.generators and rng.random() < 0.5:
        s = rng.choice(h.generators)
        order_of_s = next(n for n in range(1, h.order + 1) if power(h, s, n) == h.identity)
        image_of_s = rng.choice(
            [x for x in range(g.order) if power(g, x, order_of_s) == g.identity]
        )
        image = dict(
            enumerate(
                right_for_one_generator(
                    h,
                    s,
                    image_of_s,
                    lambda x: g.identity if x == h.identity else rng.randrange(g.order),
                    g.multiply,
                )
            )
        )
    if image is None:
        image = dict(zip(range(h.order), rng.sample(range(g.order), h.order)))
    if h.order > 1 and rng.random() < 0.4:
        a, b = rng.sample(range(h.order), 2)
        image[a], image[b] = image[b], image[a]
    return [image[x] for x in range(h.order)]


def test_embedding_check_on_generators_matches_full_reference():
    rng = random.Random(1303)
    verdicts = collections.Counter()
    for _ in range(300):
        h = FiniteGroup.builtin(rng.choice(EMBEDDING_SOURCES))
        g = FiniteGroup.builtin(rng.choice(EMBEDDING_TARGETS))
        if h.order > g.order:
            continue
        image = random_label_map(rng, h, g)
        injective = len(set(image)) == h.order
        expected = injective and all(  # the full check over all |H|² pairs
            image[h.multiply(a, b)] == g.multiply(image[a], image[b])
            for a in range(h.order)
            for b in range(h.order)
        )
        verdicts[expected] += 1
        mapping = {h.labels[x]: g.labels[image[x]] for x in range(h.order)}
        try:
            result = _validate_embedding(h, g, mapping)
        except ValueError as exc:
            assert not expected
            if not injective:
                assert str(exc) == "embedding is not injective."
                continue
            a, b = next(
                (a, b)
                for a in h.generators or (h.identity,)
                for b in range(h.order)
                if image[h.multiply(a, b)] != g.multiply(image[a], image[b])
            )
            assert str(exc) == (
                f"embedding does not preserve multiplication at ('{h.labels[a]}', '{h.labels[b]}')."
            )
        else:
            assert expected
            assert result == dict(zip(h.labels, image))
    assert verdicts[True] >= 60 and verdicts[False] >= 60


EMBEDDING_LABEL_REFUSALS = [
    # labels are refused, not converted with str()
    ("Z2", {1: "1", "g": "g"}, "expected a string at list(embedding)[0], got int."),
    ("Z2", {"1": "1", "g": None}, "expected a string at embedding['g'], got NoneType."),
    ("Z2", {"1": "1", "g": 1}, "expected a string at embedding['g'], got int."),
    ("Sym:1", {"1": 0}, "expected a string at embedding['1'], got int."),
]


@pytest.mark.parametrize("target, embedding, message", EMBEDDING_LABEL_REFUSALS)
def test_induce_refuses_embedding_labels_that_are_not_strings(target, embedding, message):
    # example1 lives over Z2, the torus map over the trivial group
    c = load_builtin("example1") if target == "Z2" else load_complex(torus_document((2,)))
    with pytest.raises(ValueError) as caught:
        induce(c, FiniteGroup.builtin(target), embedding)
    assert str(caught.value) == message


def test_embedding_of_the_trivial_group_must_hit_the_identity():
    trivial, z2 = FiniteGroup.builtin("trivial"), FiniteGroup.builtin("Z2")
    assert _validate_embedding(trivial, z2, {"1": "1"}) == {"1": 0}
    with pytest.raises(
        ValueError, match=r"^embedding does not preserve multiplication at \('1', '1'\)\.$"
    ):
        _validate_embedding(trivial, z2, {"1": "g"})


FREE_TARGETS = ("Z2", "Z2xZ2", "Sym:3") + tuple(f"Zn:{k}" for k in range(1, 13))
LABEL_POOL = ("1", "g", "h", "gh", "a", "b", "c", "d")


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 2))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return IntMatrix.from_rows(draw(st.lists(row, min_size=n, max_size=n)))


def weyl_labelled_document(name, entries):
    """A complex over builtin ``name`` with one class per subgroup class: a free 0-cell and its map.

    ``entries`` gives, per conjugacy class of subgroups in order, the terms
    (coefficient, w) of its class's map entry, where w indexes the class's
    Weyl group N(H)/H modulo its order.
    """
    group = FiniteGroup.builtin(name)
    classes = []
    for i, ((subgroup, _), terms) in enumerate(
        zip(conjugacy_classes_of_subgroups(group), entries)
    ):
        weyl = weyl_group(group, subgroup).group
        entry = [{"coeff": c, "weyl_elem": weyl.labels[w % weyl.order]} for c, w in terms]
        classes.append(
            {
                "subgroup_class": list(subgroup.member_labels),
                "component": f"class-{i}",
                "pi1_rank": 0,
                "phi_pi": [],
                "chain": [{"degree": 0, "rank": 1, "map": [[entry]]}],
            }
        )
    return {"format_version": 1, "group": {"builtin": name}, "iso_classes": classes}


def inner_automorphism(group, x):
    """Conjugation by element ``x`` as a label map."""
    return {group.labels[i]: group.labels[group.conjugate(x, i)] for i in range(group.order)}


@st.composite
def inductions(draw):
    """(source, target, embedding): free induction, relabelling, or an automorphism.

    The automorphisms move element indices: g ↔ h on Z2xZ2, units of Zn:k,
    and inner automorphisms of Sym:3 and Sym:4, which move subgroups off
    the least conjugate of their class.
    """
    kind = draw(st.sampled_from(("free", "relabel", "automorphism")))
    if kind == "free":
        target = FiniteGroup.builtin(draw(st.sampled_from(FREE_TARGETS)))
        if draw(st.booleans()):
            source = realize(RealizationTarget(draw(square_matrices()), draw(square_matrices())))
        else:
            degrees = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=2))
            source = load_complex(torus_document(degrees))
        return source, target, {"1": target.labels[target.identity]}
    if kind == "relabel":
        source = load_builtin(draw(st.sampled_from(sorted(BUILTIN_COMPLEXES))))
        labels = draw(st.permutations(LABEL_POOL))[: source.group.order]
        target = FiniteGroup(labels, source.group.table)  # same table, renamed elements
        return source, target, dict(zip(source.group.labels, labels))
    automorphism = draw(st.sampled_from(("example3", "cyclic", "inner")))
    if automorphism == "example3":
        source = load_builtin("example3")
        return source, source.group, {"1": "1", "g": "h", "h": "g", "gh": "gh"}
    name = (
        f"Zn:{draw(st.integers(2, 12))}"
        if automorphism == "cyclic"
        else draw(st.sampled_from(("Sym:3", "Sym:4")))
    )
    group = FiniteGroup.builtin(name)
    term = st.tuples(st.integers(-3, 3), st.integers(0, group.order - 1))
    count = len(conjugacy_classes_of_subgroups(group))
    entries = draw(st.lists(st.lists(term, min_size=1, max_size=2), min_size=count, max_size=count))
    source = load_complex(weyl_labelled_document(name, entries))
    if automorphism == "inner":
        return source, group, inner_automorphism(group, draw(st.integers(0, group.order - 1)))
    k = group.order
    unit = draw(st.sampled_from([u for u in range(1, k) if math.gcd(u, k) == 1]))
    return source, group, {group.labels[i]: group.labels[unit * i % k] for i in range(k)}


def ell_structure(ell):
    """Every field of ℓ, not only the slot totals that ``EllInvariant.__eq__`` compares."""
    return [
        (
            slot.subgroup_labels,
            slot.total,
            [(p.subgroup_labels, p.component, p.orbit_size, p.value) for p in slot.contributions],
        )
        for slot in ell.slots
    ]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(inductions())
def test_induced_ell_is_the_pushforward_of_ell(case):
    # functoriality: ℓ pushed along the embedding is ℓ of the induced complex
    source, target, embedding = case
    induced, pushed = induce(source, target, embedding)
    assert ell_structure(pushed) == ell_structure(klein_williams(induced))
    for iso in induced.classes:
        assert reidemeister_trace(iso).total() == lefschetz_number(iso)
    assert vanishing_report(induced)["consistent"]


# ---------------------------------------------------------------------------
# R and λ against a projection of each degree's trace on its own


def per_degree_projection(iso, matrices, classes):
    """Σ_p (−1)^p pi1_projection(tr M_p), each degree projected on its own."""
    total = ClassSum.zero()
    for entry, matrix in zip(iso.degrees, matrices, strict=True):
        projected = ClassSum.from_mapping(pi1_projection(matrix.trace(), classes))
        total = total + projected.scale(-1 if entry.degree % 2 else 1)
    return total


def _wedge(draw):
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    cells = st.integers(-3, 3)
    a = [[draw(cells) for _ in range(n)] for _ in range(n)]
    b = [[draw(cells) for _ in range(m)] for _ in range(m)]
    return realize(
        RealizationTarget(
            IntMatrix.from_rows(a) if n else IntMatrix.zeros(0, 0),
            IntMatrix.from_rows(b) if m else IntMatrix.zeros(0, 0),
        )
    )


@st.composite
def projected_complexes(draw):
    """A builtin, a T^k map with k ≤ 5, a wedge realization, or a free induction of
    a T^k map (k ≤ 2) or a wedge into Zn:12 or Sym:3."""
    kind = draw(st.sampled_from(("builtin", "torus", "wedge", "induced")))
    if kind == "builtin":
        return load_builtin(draw(st.sampled_from(sorted(BUILTIN_COMPLEXES))))
    if kind == "torus":
        degrees = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=5))
        return load_complex(torus_document(degrees))
    if kind == "wedge":
        return _wedge(draw)
    if draw(st.booleans()):
        degrees = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=2))
        source = load_complex(torus_document(degrees))
    else:
        source = _wedge(draw)
    target = FiniteGroup.builtin(draw(st.sampled_from(("Zn:12", "Sym:3"))))
    return induce(source, target, {"1": target.labels[target.identity]})[0]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(projected_complexes())
def test_r_and_lambda_equal_the_per_degree_projection(c):
    lam = lambda_invariant(c)
    for iso, entry in zip(c.classes, lam.entries, strict=True):
        expanded = [m for _, _, m, _ in iso.ladder]
        r_classes = twisted_classes(iso.pi1_aut(), iso.twist)
        assert reidemeister_trace(iso) == per_degree_projection(iso, expanded, r_classes)
        relative = [e.relative_map for e in iso.degrees]
        lambda_classes = twisted_classes(iso.aut, iso.twist)
        assert entry.value == per_degree_projection(iso, relative, lambda_classes)


def test_expanded_traces_are_not_projected_through_the_weyl_merged_set():
    # the summed trace lives over the matrices' group, not over the class set's
    iso = next(iso for iso in load_builtin("example3").classes if iso.aut.weyl.order > 1)
    expanded = (m for _, _, m, _ in iso.ladder)
    with pytest.raises(ValueError) as refusal:
        _alternating_projection(iso, expanded, twisted_classes(iso.aut, iso.twist))
    assert str(refusal.value) == "element and class set live over different automorphism groups."


# ---------------------------------------------------------------------------
# reporting


def test_build_report_is_deterministic():
    for name in ("example1", "example2", "example3"):
        first = json.dumps(build_report(load_builtin(name)), sort_keys=True)
        second = json.dumps(build_report(load_builtin(name)), sort_keys=True)
        assert first == second


def test_build_report_matches_invariants():
    c = load_builtin("example2")
    report = build_report(c)
    assert report["name"] == "example2"
    assert report["group"] == {"labels": ["1", "g"], "order": 2}
    free_class = report["classes"][0]
    assert free_class["lefschetz"] == 2
    assert free_class["reidemeister"] == [{"class": [], "coeff": 2}]
    assert free_class["u"]["rendered"] == f"{MINUS}[{MINUS}1]"
    fixed_class = report["classes"][1]
    assert fixed_class["u"]["uz_image"]["rendered"] == f"+1·(x{MINUS}1) +1·(x+1)"
    assert report["ell"]["rendered"] == f"2[1] {OPLUS} 0"
    assert report["vanishing"] == {
        "ell_zero": False,
        "lambda_zero": False,
        "consistent": True,
    }


def test_render_report_shows_key_lines():
    text = render_report(load_builtin("example2"))
    assert f"ell = 2[1] {OPLUS} 0" in text
    assert "L = 2" in text
    assert "R = 2[1]" in text
    text3 = render_report(load_builtin("example3"))
    assert f"ell = 2[1] {OPLUS} 0 {OPLUS} 0 {OPLUS} 2[1]" in text3


def test_universal_invariant_lookup_and_render():
    c = load_builtin("example3")
    u = universal_invariant(c)
    entry = u.entries[3]
    assert (entry.subgroup_labels, entry.component) == (("1", "g", "h", "gh"), "pole-a")
    assert str(entry.kclass) == "+[1]"
    assert "[integer class: +1·(x−1)]" in str(u)


RENDERED_BUILTINS = {
    "example1": """\
example1 (group order 2)
  (subgroup {1}, component 'sphere'):
    u = +[−g]
    lambda = 0
    R = 0
    L = 0
  (subgroup {1, g}, component 'circle'):
    u = 0
    lambda = 0
    R = 0
    L = 0
  ell = 0 ⊕ 0
  vanishing: ell zero: yes; lambda zero: yes; consistent: yes""",
    "example2": """\
example2 (group order 2)
  (subgroup {1}, component 'S3'):
    u = −[−1]
    lambda = 1[1]
    R = 2[1]
    L = 2
  (subgroup {1, g}, component 'S2'):
    u = +2·[−1] +2·[1] −[0, −1; −1, 0]
    u integer class = +1·(x−1) +1·(x+1)
    lambda = 0
    R = 0
    L = 0
  ell = 2[1] ⊕ 0
  vanishing: ell zero: no; lambda zero: no; consistent: yes""",
    "example3": """\
example3 (group order 4)
  (subgroup {1}, component 'sphere'):
    u = +[1]
    lambda = 1[1]
    R = 2[1]
    L = 2
  (subgroup {1, h}, component 'circle-h'):
    u = −[1]
    lambda = −1[0]
    R = 0
    L = 0
  (subgroup {1, g}, component 'circle-g'):
    u = −[1]
    lambda = −1[0]
    R = 0
    L = 0
  (subgroup {1, g, h, gh}, component 'pole-a'):
    u = +[1]
    u integer class = +1·(x−1)
    lambda = 1[1]
    R = 1[1]
    L = 1
  (subgroup {1, g, h, gh}, component 'pole-b'):
    u = +[1]
    u integer class = +1·(x−1)
    lambda = 1[1]
    R = 1[1]
    L = 1
  ell = 2[1] ⊕ 0 ⊕ 0 ⊕ 2[1]
  vanishing: ell zero: no; lambda zero: no; consistent: yes""",
}


@pytest.mark.parametrize("name", sorted(RENDERED_BUILTINS))
def test_render_report_full_text(name):
    assert render_report(load_builtin(name)) == RENDERED_BUILTINS[name]


COUNTED_IN_THE_PASS = (
    "reidemeister_trace",
    "lefschetz_number",
    "twisted_classes",
    "pi1_projection",
)


def count_calls(monkeypatch, names):
    """A Counter of the calls each function in ``names`` of ``eqlef.invariants`` gets."""
    from eqlef import invariants

    calls = collections.Counter()
    for name in names:
        original = getattr(invariants, name)
        monkeypatch.setattr(
            invariants,
            name,
            lambda *args, _name=name, _original=original: calls.update([_name]) or _original(*args),
        )
    return calls


@pytest.mark.parametrize("report", [build_report, render_report])
def test_report_computes_each_invariant_once(monkeypatch, report):
    counted = (*COUNTED_IN_THE_PASS, "_alternating_projection", "universal_invariant")
    calls = count_calls(monkeypatch, counted)
    c = load_builtin("example3")
    report(c)
    per_class = len(c.classes)
    # Every class projects R once, over a class set without Weyl moves.  Three
    # of example3's five classes have a nontrivial W: each adds one Weyl-merged
    # class set, shared by λ and ℓ, and one projection of its relative maps for
    # λ.  The other two have a trivial W and no masked cell: λ is R and ℓ's
    # summand is orbit·R, so they add neither.
    trivial_weyl = [iso for iso in c.classes if iso.aut.weyl.order == 1]
    assert per_class == 5 and len(trivial_weyl) == 2
    assert not any(any(e.relative_mask) for iso in trivial_weyl for e in iso.degrees)
    assert calls == {
        "reidemeister_trace": per_class,
        "lefschetz_number": per_class,
        "_alternating_projection": per_class + 3,
        "universal_invariant": 1,
        "twisted_classes": 8,
        "pi1_projection": 8,
    }


@pytest.mark.parametrize("view", [lambda_invariant, klein_williams, vanishing_report])
def test_each_public_invariant_alone_makes_the_report_pass_calls(monkeypatch, view):
    # λ, ℓ and the vanishing check are views of one pass: each called alone
    # computes R and L per class and the same class sets as the reports, and no u
    calls = count_calls(monkeypatch, (*COUNTED_IN_THE_PASS, "universal_invariant"))
    view(load_builtin("example3"))
    assert calls == {
        "reidemeister_trace": 5,
        "lefschetz_number": 5,
        "twisted_classes": 8,
        "pi1_projection": 8,
    }


def test_vanishing_report_projects_a_free_unmasked_class_once(monkeypatch):
    """On T³ (trivial W, no masked cell) λ is R, so R is projected once, as in the
    reports, and u is not computed."""
    calls = count_calls(monkeypatch, ("pi1_projection", "universal_invariant"))
    c = load_complex(torus_document((2, -1, 3)))
    assert vanishing_report(c) == {"ell_zero": False, "lambda_zero": False, "consistent": True}
    assert calls == {"pi1_projection": 1}


# ---------------------------------------------------------------------------
# basis renumbering of documents


def renumbered_document(document, permutation):
    """``document`` with each degree's basis renumbered: new element p is old element σ(p).

    ``permutation(rank)`` gives σ for each degree in turn.  The rows and
    columns of ``map``, the rows of ``boundary`` and the columns of the
    boundary of the degree above, ``relative_mask`` and ``stabilizers`` all
    follow σ.
    """
    document = copy.deepcopy(document)
    for iso in document["iso_classes"]:
        below = None
        for entry in iso["chain"]:
            sigma = permutation(entry["rank"])
            entry["map"] = [[entry["map"][i][j] for j in sigma] for i in sigma]
            entry["relative_mask"] = [entry["relative_mask"][i] for i in sigma]
            entry["stabilizers"] = [entry["stabilizers"][i] for i in sigma]
            if "boundary" in entry:
                # a boundary into a missing degree has no columns
                tau = below[1] if below and below[0] == entry["degree"] - 1 else []
                entry["boundary"] = [[entry["boundary"][i][j] for j in tau] for i in sigma]
            below = (entry["degree"], sigma)
    return document


def report_bytes(document):
    """``eqlef invariants --json``'s payload for ``document``."""
    report = build_report(load_complex(document))
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False)


@st.composite
def renumbering_sources(draw):
    """A builtin, a wedge realization or a torus map, as a document with every field spelled out."""
    kind = draw(st.sampled_from(("builtin", "wedge", "torus")))
    if kind == "builtin":
        return serialize_complex(load_builtin(draw(st.sampled_from(sorted(BUILTIN_COMPLEXES)))))
    if kind == "wedge":
        target = RealizationTarget(draw(square_matrices()), draw(square_matrices()))
        return serialize_complex(realize(target))
    degrees = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=3))
    return serialize_complex(load_complex(torus_document(degrees)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(document=renumbering_sources(), data=st.data())
def test_report_is_invariant_under_basis_renumbering(document, data):
    renumbered = renumbered_document(
        document, lambda rank: data.draw(st.permutations(range(rank)))
    )
    assert report_bytes(renumbered) == report_bytes(document)


@pytest.mark.parametrize("name", sorted(BUILTIN_COMPLEXES))
def test_every_builtin_report_is_invariant_under_reversing_its_bases(name):
    # the non-free builtins, with the masks and stabilizers moved, on every run
    document = serialize_complex(load_builtin(name))
    reversed_bases = renumbered_document(document, lambda rank: list(range(rank))[::-1])
    assert reversed_bases != document
    assert report_bytes(reversed_bases) == report_bytes(document)
