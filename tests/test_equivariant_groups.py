"""Finite groups, Weyl data, twisted conjugacy, and group-ring arithmetic."""

import collections
import functools
import itertools
import operator
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlef.complex_model import load_complex, load_builtin
from eqlef.exact_algebra import IntMatrix
from eqlef.equivariant_groups import (
    MAX_GROUP_ORDER,
    AutGroup,
    FiniteGroup,
    GroupRingElement,
    GroupRingMatrix,
    Subgroup,
    TwistData,
    all_subgroups,
    conjugacy_classes_of_subgroups,
    pi1_projection,
    twisted_classes,
    weyl_group,
)

from matrix_builders import laplace_det


# ---------------------------------------------------------------------------
# finite groups


def test_builtin_orders_and_structure():
    assert FiniteGroup.builtin("trivial").order == 1
    assert FiniteGroup.builtin("Z2").order == 2
    assert FiniteGroup.builtin("Z2xZ2").order == 4
    assert FiniteGroup.builtin("Zn:6").order == 6
    sym3 = FiniteGroup.builtin("Sym:3")
    assert sym3.order == 6
    # non-abelian witness
    assert any(
        sym3.multiply(a, b) != sym3.multiply(b, a)
        for a in range(6)
        for b in range(6)
    )
    z4 = FiniteGroup.builtin("Zn:4")
    assert all(
        z4.multiply(a, b) == z4.multiply(b, a) for a in range(4) for b in range(4)
    )


def test_group_axioms_of_builtins():
    for name in ("trivial", "Z2", "Z2xZ2", "Zn:5", "Sym:3"):
        g = FiniteGroup.builtin(name)
        e = g.identity
        for a in range(g.order):
            assert g.multiply(e, a) == a == g.multiply(a, e)
            assert g.multiply(a, g.inverse(a)) == e
            for b in range(g.order):
                for c in range(g.order):
                    assert g.multiply(g.multiply(a, b), c) == g.multiply(
                        a, g.multiply(b, c)
                    )


def test_unknown_element_label_message():
    g = FiniteGroup.builtin("Z2")
    for label in ("h", "h" * 64):
        with pytest.raises(ValueError) as refused:
            g.element_index(label)
        assert str(refused.value) == (
            f"unknown group element label '{label}'; known labels: ['1', 'g']."
        )


def test_long_element_labels_are_shortened_in_the_message():
    g = FiniteGroup(["1", "g" * 10_000], [[0, 1], [1, 0]])
    with pytest.raises(ValueError) as refused:
        g.element_index("h" * 10_000)
    message = str(refused.value)
    assert len(message) < 300
    assert f"label '{'h' * 64}… (10000 characters)';" in message
    assert f"known labels: ['1', '{'g' * 64}… (10000 characters)']." in message


def test_invalid_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup(["1", "g"], [[0, 1], [1, 1]])  # g·g = g breaks inverses
    with pytest.raises(ValueError):
        FiniteGroup(["1"], [[0, 0]])  # ragged table


LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]

GROUP_SPEC_REFUSALS = [
    (["1", "g"], [[0, 1], [1, 2]], "table entry at (1, 1) is 2, outside 0..1."),
    (["1", "g"], [[0, -1], [1, 0]], "table entry at (0, 1) is -1, outside 0..1."),
    (["1", "g"], [[0, 0], [1, 1]], "multiplication table has no identity element."),
    (["1", "g"], [[0, 1], [1, 1]], "element 'g' has no inverse."),
    # row c holds the identity twice; only its second occurrence is a two-sided inverse
    (["a", "b", "c"], [[0, 1, 2], [1, 0, 2], [2, 0, 0]],
     "multiplication table is not associative at ('c', 'b', 'b')."),
    (["a", "b", "c"], [[0, 1, 2], [1, 0, 0], [2, 2, 1]], "element 'c' has no inverse."),
    ([str(i) for i in range(5)], LOOP5,
     "multiplication table is not associative at ('1', '1', '2')."),
    (["1", "1"], [[0, 1], [1, 0]], "group element labels must be distinct."),
    (["1", "g"], [[0, 1]], "multiplication table must be 2×2 to match 2 labels."),
    (["1", "g"], [[0, 1], [1]], "multiplication table must be 2×2 to match 2 labels."),
    ([], [], "a group must have at least one element."),
]

DOCUMENT_TABLE_REFUSALS = [
    ([[0, True], [1, 0]], "expected an integer at group.table[0][1], got a boolean."),
    ([[0, 1], ["x", 0]], "expected an integer at group.table[1][0], got 'x'."),
    ([[0, 1], [1.0, 0]], "expected an integer at group.table[1][0], got float."),
]


def table_document(labels, table):
    return {"format_version": 1, "group": {"labels": labels, "table": table}, "iso_classes": []}


@pytest.mark.parametrize("labels, table, message", GROUP_SPEC_REFUSALS)
def test_group_spec_refusals_are_pinned(labels, table, message):
    for build in (lambda: FiniteGroup(labels, table), lambda: load_complex(table_document(labels, table))):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message


@pytest.mark.parametrize("table, message", DOCUMENT_TABLE_REFUSALS)
def test_document_group_table_entries_must_be_integers(table, message):
    with pytest.raises(ValueError) as caught:
        load_complex(table_document(["1", "g"], table))
    assert str(caught.value) == message
    assert load_complex(table_document(["1", "g"], [[0, 1], ["1", 0]])).group.table == ((0, 1), (1, 0))


FINITE_GROUP_TABLE_REFUSALS = [
    ([[0, 1.7], [True, "0"]], "table entry at (0, 1) is a float, not an integer."),
    ([[0, 1], [True, 0]], "table entry at (1, 0) is a boolean, not an integer."),
    ([[0, 1], [1, "0"]], "table entry at (1, 1) is a string, not an integer."),
    ([[0, 1.0], [1, 0]], "table entry at (0, 1) is a float, not an integer."),
    ([[0, None], [1, 0]], "table entry at (0, 1) is of type NoneType, not an integer."),
    # entries are checked row by row, type before range
    ([[0, 2], [1, "0"]], "table entry at (0, 1) is 2, outside 0..1."),
]


@pytest.mark.parametrize("table, message", FINITE_GROUP_TABLE_REFUSALS)
def test_finite_group_refuses_entries_that_are_not_ints(table, message):
    # the validating constructor converts nothing: 1.7, True and '0' are not indices
    with pytest.raises(ValueError) as caught:
        FiniteGroup(["1", "g"], table)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "name, shown", [("Sym:6", "6!"), ("Sym:9", "9!"), ("Zn:121", "121"), ("Zn:1000000", "1000000")]
)
def test_group_order_cap_rejects_builtins_by_name(name, shown):
    # the cap is checked on the name alone; no oversized group is built
    with pytest.raises(ValueError, match=f"has {shown} elements.*MAX_GROUP_ORDER = 120"):
        FiniteGroup.builtin(name)


@pytest.mark.parametrize(
    "name, shown", [("Zn:121", "'Zn:121' has 121 elements"), ("Sym:6", "'Sym:6' has 6! elements")]
)
def test_group_order_cap_names_the_number_without_leading_zeros(name, shown):
    prefix, number = name.split(":")
    with pytest.raises(ValueError) as caught:
        FiniteGroup.builtin(f"{prefix}:{'0' * 4000}{number}")
    message = str(caught.value)
    assert message.startswith(shown) and len(message) < 300
    assert FiniteGroup.builtin(f"Zn:{'0' * 4000}7").order == 7


def test_group_order_cap_admits_sym5_and_rejects_explicit_tables_by_shape():
    assert MAX_GROUP_ORDER == 120  # Sym:5 has 5! = 120 elements
    labels = [f"x{i}" for i in range(10_000)]
    with pytest.raises(ValueError, match="10000 elements.*MAX_GROUP_ORDER = 120"):
        FiniteGroup(labels, [])
    document = {
        "format_version": 1,
        "group": {"labels": labels, "table": "never decoded"},
        "iso_classes": [],
    }
    with pytest.raises(ValueError, match="group.labels has 10000 elements"):
        load_complex(document)


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError, match="builtin"):
        FiniteGroup.builtin("Q8")


# ---------------------------------------------------------------------------
# associativity against an n³ reference


def brute_force_associative(table):
    """The test-only reference: (a·b)·c = a·(b·c) for every triple."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def random_loop(rng, n):
    """A random Latin square with identity 0, filled cell by cell with backtracking."""
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        symbols = [s for s in range(n) if s not in used]
        rng.shuffle(symbols)
        for s in symbols:
            table[i][j] = s
            if fill(k + 1):
                return True
        table[i][j] = None
        return False

    assert fill(0)
    return table


def turn_intercalate(rng, table):
    """Swap the symbols of one 2×2 Latin subsquare that avoids the identity 0.

    The result is still a Latin square with identity 0 and the same
    two-sided inverses; it is usually no longer associative.
    """
    n = len(table)
    intercalates = [
        (i, j, k, l)
        for i, j in itertools.combinations(range(1, n), 2)
        for k, l in itertools.combinations(range(1, n), 2)
        if table[i][k] == table[j][l] != 0
        and table[i][l] == table[j][k] != 0
    ]
    if intercalates:
        i, j, k, l = rng.choice(intercalates)
        table[i][k], table[i][l] = table[i][l], table[i][k]
        table[j][k], table[j][l] = table[j][l], table[j][k]
    return table


SMALL_GROUPS = ("trivial", "Z2", "Zn:3", "Z2xZ2", "Zn:4", "Zn:5", "Zn:6", "Sym:3")


@st.composite
def latin_squares_with_identity(draw):
    """Random loops, relabelled small groups, and groups with an intercalate turned."""
    rng = draw(st.randoms(use_true_random=False))
    source = draw(st.sampled_from(["loop", "group", "turned group"]))
    if source == "loop":
        table = random_loop(rng, draw(st.integers(1, 6)))
    else:
        group = FiniteGroup.builtin(draw(st.sampled_from(SMALL_GROUPS)))
        table = [list(row) for row in group.table]
        if source == "turned group":
            table = turn_intercalate(rng, table)
    n = len(table)
    relabel = list(range(n))
    rng.shuffle(relabel)
    relabelled = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            relabelled[relabel[a]][relabel[b]] = relabel[table[a][b]]
    return relabelled


@settings(max_examples=300, deadline=None, derandomize=True)
@given(latin_squares_with_identity())
def test_associativity_verdict_matches_brute_force(table):
    labels = [f"x{i}" for i in range(len(table))]
    associative = brute_force_associative(table)
    try:
        FiniteGroup(labels, table)
    except ValueError as exc:
        assert not associative
        match = re.fullmatch(
            r"multiplication table is not associative at \('x(\d+)', 'x(\d+)', 'x(\d+)'\)\.",
            str(exc),
        )
        if match is None:  # the first element without a two-sided inverse is named
            x = int(re.fullmatch(r"element 'x(\d+)' has no inverse\.", str(exc)).group(1))
            n = len(table)
            e = next(e for e in range(n) if all(table[e][a] == a == table[a][e] for a in range(n)))
            invertible = [any(table[a][b] == e == table[b][a] for b in range(n)) for a in range(n)]
            assert invertible.index(False) == x
        else:
            a, b, c = map(int, match.groups())
            assert table[table[a][b]][c] != table[a][table[b][c]]
    else:
        assert associative


def test_turned_groups_reach_the_associativity_check():
    """Turned groups keep their inverses, so Light's test is what rejects them.

    Of the groups of order at most 6, only Zn:6 and Sym:3 have an
    intercalate that avoids the identity.
    """
    rng = random.Random(5)
    for name in ("Zn:6", "Sym:3"):
        for _ in range(10):
            table = turn_intercalate(rng, [list(row) for row in FiniteGroup.builtin(name).table])
            assert not brute_force_associative(table)
            with pytest.raises(ValueError, match="not associative"):
                FiniteGroup([str(i) for i in range(len(table))], table)


# ---------------------------------------------------------------------------
# subgroups, conjugacy classes, Weyl groups


def test_subgroup_validation():
    g = FiniteGroup.builtin("Z2xZ2")
    h = Subgroup.from_labels(g, ["1", "h"])
    assert h.order == 2
    assert h.member_labels == ("1", "h")
    with pytest.raises(ValueError, match="closed"):
        Subgroup.from_labels(g, ["1", "g", "h"])  # needs gh too
    with pytest.raises(ValueError, match="identity"):
        Subgroup(g, [1, 2])


def test_subgroup_counts():
    assert len(all_subgroups(FiniteGroup.builtin("Z2"))) == 2
    assert len(all_subgroups(FiniteGroup.builtin("Z2xZ2"))) == 5
    assert len(all_subgroups(FiniteGroup.builtin("Zn:4"))) == 3
    assert len(all_subgroups(FiniteGroup.builtin("Sym:3"))) == 6


def test_conjugacy_classes_of_subgroups():
    v4 = conjugacy_classes_of_subgroups(FiniteGroup.builtin("Z2xZ2"))
    assert len(v4) == 5  # abelian: every subgroup is its own class
    sym3 = conjugacy_classes_of_subgroups(FiniteGroup.builtin("Sym:3"))
    assert len(sym3) == 4  # 1, (transpositions), A3, S3
    sizes = sorted(len(members) for _, members in sym3)
    assert sizes == [1, 1, 1, 3]
    for representative, members in sym3:
        assert representative in members
        assert representative == min(members, key=lambda s: s.members)


@pytest.mark.parametrize("name", ["Z2xZ2", "Sym:3", "Sym:4", "Zn:12"])
def test_least_conjugate_is_the_class_representative(name):
    g = FiniteGroup.builtin(name)
    for representative, members in conjugacy_classes_of_subgroups(g):
        for member in members:
            assert member.least_conjugate() == representative


def test_weyl_group_of_reflection_subgroup():
    g = FiniteGroup.builtin("Z2xZ2")
    h = Subgroup.from_labels(g, ["1", "g"])
    w = weyl_group(g, h)
    assert w.group.order == 2
    assert w.cosets == ((0, 1), (2, 3))


def reference_weyl_table(g, h):
    """Cosets sorted by least element, and the quotient table by sorting each product's coset."""
    normalizer = [
        n for n in range(g.order) if all(g.conjugate(n, m) in h.members for m in h.members)
    ]

    def coset_of(n):
        return tuple(sorted(g.table[n][m] for m in h.members))

    cosets = sorted({coset_of(n) for n in normalizer})
    representatives = [coset[0] for coset in cosets]
    table = tuple(
        tuple(cosets.index(coset_of(g.table[a][b])) for b in representatives)
        for a in representatives
    )
    return tuple(cosets), tuple(g.labels[r] for r in representatives), table


@pytest.mark.parametrize("name", ["Z2xZ2", "Sym:3", "Sym:4", "Zn:12"])
def test_weyl_group_matches_sorted_coset_reference(name):
    g = FiniteGroup.builtin(name)
    for h in all_subgroups(g):
        w = weyl_group(g, h)
        assert (w.cosets, w.group.labels, w.group.table) == reference_weyl_table(g, h)
        assert w.coset_representatives == tuple(coset[0] for coset in w.cosets)


def assert_matches_validated(group):
    """``group`` has the table, identity, generators and inverses the validating constructor gives."""
    validated = FiniteGroup(group.labels, group.table)
    assert (group.table, group.identity, group.generators) == (
        validated.table,
        validated.identity,
        validated.generators,
    )
    assert [group.inverse(x) for x in range(group.order)] == [
        validated.inverse(x) for x in range(group.order)
    ]


def reversed_table_group(name):
    """The builtin ``name`` as an explicit-table document with its elements in reverse
    order, so the identity is the last index, loaded through the document boundary."""
    g = FiniteGroup.builtin(name)
    n = g.order
    table = [[n - 1 - g.table[n - 1 - a][n - 1 - b] for b in range(n)] for a in range(n)]
    document = {
        "format_version": 1,
        "group": {"labels": list(reversed(g.labels)), "table": table},
        "iso_classes": [],
    }
    return load_complex(document).group


@pytest.mark.parametrize("name", SMALL_GROUPS + ("Zn:12", "Sym:4", "reversed Sym:4"))
def test_derived_groups_match_the_validating_constructor(name):
    g = reversed_table_group("Sym:4") if name.startswith("reversed") else FiniteGroup.builtin(name)
    if name.startswith("reversed"):
        assert g.identity == g.order - 1
    for h, _ in conjugacy_classes_of_subgroups(g):
        quotient = weyl_group(g, h).group
        if h.order == 1:
            assert quotient is g  # N_G(1)/1 = G
        assert_matches_validated(quotient)
        for stabilizer in all_subgroups(quotient):
            assert_matches_validated(quotient.restricted_to(stabilizer.members))


def test_weyl_group_trivial_cases():
    g = FiniteGroup.builtin("Sym:3")
    transposition = next(
        s for s in all_subgroups(g) if s.order == 2
    )
    assert weyl_group(g, transposition).group.order == 1  # self-normalizing
    assert weyl_group(g, Subgroup(g, range(g.order))).group.order == 1
    assert weyl_group(g, Subgroup(g, (g.identity,))).group.order == 6


# ---------------------------------------------------------------------------
# automorphism data


def test_aut_group_laws():
    z2 = FiniteGroup.builtin("Z2")
    aut = AutGroup(1, z2, [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])])
    rng = random.Random(301)
    elements = [
        ((rng.randint(-3, 3),), rng.randrange(2)) for _ in range(40)
    ]
    identity = aut.identity
    for a in elements:
        assert aut.multiply(a, aut.inverse(a)) == identity
        assert aut.multiply(identity, a) == a == aut.multiply(a, identity)
    for a, b, c in zip(elements, elements[1:], elements[2:]):
        assert aut.multiply(aut.multiply(a, b), c) == aut.multiply(
            a, aut.multiply(b, c)
        )


def test_aut_group_validation():
    z2 = FiniteGroup.builtin("Z2")
    # not unimodular: θ(g)θ(g) = [[4]] is not θ(1)
    with pytest.raises(ValueError, match=r"^action is not a homomorphism at \('g', 'g'\)\.$"):
        AutGroup(1, z2, [IntMatrix.identity(1), IntMatrix.from_rows([[2]])])
    with pytest.raises(
        ValueError, match="^action of the identity Weyl element must be the identity matrix.$"
    ):
        AutGroup(1, z2, [IntMatrix.zeros(1, 1)] * 2)  # θ(s)θ(w) = θ(s·w) holds for all zeros
    z4 = FiniteGroup.builtin("Zn:4")
    with pytest.raises(ValueError, match=r"^action is not a homomorphism at \('r1', 'r1'\)\.$"):
        # r2 = r1·r1 must act by the square of r1's matrix
        AutGroup(
            1,
            z4,
            [
                IntMatrix.identity(1),
                IntMatrix.from_rows([[-1]]),
                IntMatrix.from_rows([[-1]]),
                IntMatrix.from_rows([[-1]]),
            ],
        )


def test_render_element():
    z2 = FiniteGroup.builtin("Z2")
    aut = AutGroup(1, z2, [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])])
    assert aut.render_element((0,), 0) == "1"
    assert aut.render_element((0,), 1) == "g"
    assert aut.render_element((1,), 0) == "t"
    assert aut.render_element((3,), 0) == "t³"
    assert aut.render_element((3,), 1) == "t³·g"
    rank2 = AutGroup(2, FiniteGroup.builtin("trivial"))
    assert rank2.render_element((1, 0), 0) == "t^(1,0)"


def test_twist_commutation_validation():
    z2 = FiniteGroup.builtin("Z2")
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    aut = AutGroup(2, z2, [IntMatrix.identity(2), swap])
    bad = TwistData(IntMatrix.from_rows([[1, 0], [0, 2]]))
    with pytest.raises(ValueError, match="commute"):
        bad.validate_against(aut)
    good = TwistData(IntMatrix.from_rows([[2, 1], [1, 2]]))
    good.validate_against(aut)  # symmetric matrices commute with the swap
    with pytest.raises(ValueError, match="rank"):
        TwistData(IntMatrix.from_rows([[2]])).validate_against(aut)


# ---------------------------------------------------------------------------
# group maps checked on generators, against the full check as reference


def reference_action_verdict(weyl, action):
    """The full check: unimodular θ(w), θ(1) = I, and θ(a)θ(b) = θ(a·b) for all |W|² pairs."""
    k = action[0].rows
    if k and any(abs(laplace_det(matrix.to_rows())) != 1 for matrix in action):
        return False
    if action[weyl.identity] != IntMatrix.identity(k):
        return False
    return all(
        action[a] @ action[b] == action[weyl.multiply(a, b)]
        for a in range(weyl.order)
        for b in range(weyl.order)
    )


ACTION_GROUPS = ("Z2xZ2", "Zn:6", "Sym:3", "Sym:4")


@functools.cache
def monomial_inducers(name):
    """The group, and its (K, N) with N of index 1 or 2 in K and [G:K] ≤ 6."""
    g = FiniteGroup.builtin(name)
    subgroups = all_subgroups(g)
    pairs = [
        (k.members, frozenset(n.members))
        for k in subgroups
        if g.order <= 6 * k.order
        for n in subgroups
        if set(n.members) <= set(k.members) and k.order in (n.order, 2 * n.order)
    ]
    return g, pairs


def monomial_action(g, k_members, n_members):
    """Ind_K^G of the sign character of K with kernel N, as signed permutation matrices."""
    transversal = sorted({min(g.multiply(x, m) for m in k_members) for x in range(g.order)})
    coset = {g.multiply(t, m): i for i, t in enumerate(transversal) for m in k_members}
    d = len(transversal)
    action = []
    for x in range(g.order):
        entries = [0] * (d * d)
        for i, t in enumerate(transversal):
            moved = g.multiply(x, t)
            j = coset[moved]
            in_k = g.multiply(g.inverse(transversal[j]), moved)  # x·t_i = t_j·k
            entries[j * d + i] = 1 if in_k in n_members else -1
        action.append(IntMatrix(d, d, tuple(entries)))
    return action


def block_sum(first, second):
    p, q = first.rows, second.rows
    return IntMatrix.from_rows(
        [list(first.row(i)) + [0] * q for i in range(p)]
        + [[0] * p + list(second.row(i)) for i in range(q)]
    )


def random_action(rng, name):
    """A valid signed-permutation action: one or two monomial blocks, rank at most 6."""
    g, pairs = monomial_inducers(name)
    action = monomial_action(g, *rng.choice(pairs))
    if rng.random() < 0.5:
        second = monomial_action(g, *rng.choice(pairs))
        if action[0].rows + second[0].rows <= 6:
            action = [block_sum(a, b) for a, b in zip(action, second)]
    return g, action


def replace_one(rng, g, action):
    """``action`` with θ(w) replaced for one w ≠ 1."""
    w = rng.choice([x for x in range(g.order) if x != g.identity])
    theta = action[w]
    kind = rng.randrange(5)
    if kind == 0:
        replacement = action[rng.randrange(g.order)]
    elif kind == 1:
        replacement = -theta
    elif kind == 2:
        replacement = action[g.inverse(w)]
    elif kind == 3:
        replacement = 2 * theta
    else:
        entries = list(theta.entries)
        entries[rng.randrange(len(entries))] += rng.choice((-1, 1))
        replacement = IntMatrix(theta.rows, theta.cols, tuple(entries))
    return action[:w] + [replacement] + action[w + 1 :]


def right_for_one_generator(g, s, image_of_s, image_of_element, multiply):
    """A map f on ``g`` with f(s·x) = f(s)·f(x) for every x, which other generators may break.

    On each coset ⟨s⟩·r, f(sⁱ·r) = f(s)ⁱ·f(r), with f(r) = ``image_of_element(r)``
    for the first r met, starting at the identity, which that must send to
    the identity.  The order of ``image_of_s`` must divide that of s.
    """
    image = {}
    for r in (g.identity, *range(g.order)):
        x, value = r, image_of_element(r)
        while x not in image:
            image[x] = value
            x, value = g.multiply(s, x), multiply(image_of_s, value)
    return [image[x] for x in range(g.order)]


def test_action_check_on_generators_matches_full_reference():
    rng = random.Random(1301)
    verdicts = collections.Counter()
    for case in range(180):
        g, action = random_action(rng, ACTION_GROUPS[case % len(ACTION_GROUPS)])
        if case % 3 == 1:
            action = replace_one(rng, g, action)
        elif case % 3 == 2:  # a homomorphism along one generator, elsewhere θ of another element
            identity = IntMatrix.identity(action[0].rows)
            s = rng.choice(g.generators)
            action = right_for_one_generator(
                g,
                s,
                action[s],
                lambda x: identity if x == g.identity else action[rng.randrange(g.order)],
                operator.matmul,
            )
        expected = reference_action_verdict(g, action)
        verdicts[expected] += 1
        try:
            AutGroup(action[0].rows, g, action)
        except ValueError as exc:
            assert not expected
            s, w = next(
                (s, w)
                for s in g.generators
                for w in range(g.order)
                if action[s] @ action[w] != action[g.multiply(s, w)]
            )
            assert str(exc) == (
                f"action is not a homomorphism at ('{g.labels[s]}', '{g.labels[w]}')."
            )
        else:
            assert expected
    assert verdicts[True] >= 50 and verdicts[False] >= 50


def test_twist_check_on_generators_matches_full_reference():
    rng = random.Random(1302)
    verdicts = collections.Counter()
    for case in range(160):
        g, action = random_action(rng, ACTION_GROUPS[case % len(ACTION_GROUPS)])
        aut = AutGroup(action[0].rows, g, action)
        k = aut.pi1_rank
        phi = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)])
        if case % 4 == 2:  # a polynomial in one θ(s) commutes with it, not always with the rest
            theta = action[rng.choice(g.generators)]
            phi = IntMatrix.identity(k) * rng.randint(-2, 2) + theta * rng.randint(1, 2)
            phi = phi + theta @ theta * rng.randint(-2, 2)
        elif case % 2:  # the average of θ(w)·M·θ(w)⁻¹ commutes with every θ(w)
            phi = functools.reduce(
                operator.add, (theta @ phi @ action[g.inverse(w)] for w, theta in enumerate(action))
            )
            if case % 4 == 1:
                entries = list(phi.entries)
                entries[rng.randrange(len(entries))] += 1
                phi = IntMatrix(k, k, tuple(entries))
        expected = all(theta @ phi == phi @ theta for theta in action)
        verdicts[expected] += 1
        try:
            TwistData(phi).validate_against(aut)
        except ValueError as exc:
            assert not expected
            s = next(s for s in g.generators if action[s] @ phi != phi @ action[s])
            assert str(exc) == (
                f"twist matrix does not commute with the Weyl action at '{g.labels[s]}'; "
                "the twisted relation would be ill defined."
            )
        else:
            assert expected
    assert verdicts[True] >= 40 and verdicts[False] >= 40


def count_products(monkeypatch):
    """A list that grows by one on every IntMatrix product from now on."""
    calls = []
    product = IntMatrix.__matmul__

    def counted(a, b):
        calls.append(None)
        return product(a, b)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    return calls


def sym5_permutation_action():
    """Sym:5 permuting the coordinates of ℤ⁵: induced from the stabilizer of the point 4."""
    sym5 = FiniteGroup.builtin("Sym:5")
    stabilizer = tuple(x for x, label in enumerate(sym5.labels) if label[4] == "4")
    return sym5, monomial_action(sym5, stabilizer, frozenset(stabilizer))


def test_action_check_costs_generators_times_group_products(monkeypatch):
    sym5, action = sym5_permutation_action()
    assert len(sym5.generators) == 4
    calls = count_products(monkeypatch)
    AutGroup(64, sym5)
    assert calls == []  # the trivial action multiplies nothing
    AutGroup(5, sym5, action)
    assert len(calls) == 4 * 120  # |S|·|W|, not |W|² = 14,400


# ---------------------------------------------------------------------------
# twisted conjugacy classes


def box_representatives(classes):
    """Representatives of the pivot box, the canonical cosets of a full-rank lattice."""
    return [
        classes.representative(box)
        for box in itertools.product(*(range(col[row]) for row, col in classes._basis))
    ]


def test_twisted_classes_pinned_antipodal_circle():
    aut = AutGroup(1, FiniteGroup.builtin("trivial"))
    classes = twisted_classes(aut, TwistData(IntMatrix.from_rows([[-1]])))
    assert box_representatives(classes) == [(0,), (1,)]
    assert classes.representative((7,)) == (1,)
    assert classes.representative((-4,)) == (0,)


def test_twisted_classes_infinite_identity_twist():
    aut = AutGroup(1, FiniteGroup.builtin("trivial"))
    classes = twisted_classes(aut, TwistData(IntMatrix.from_rows([[1]])))
    assert classes.representative((5,)) == (5,)


def test_twisted_class_count_equals_determinant():
    rng = random.Random(302)
    trivial = FiniteGroup.builtin("trivial")
    checked = 0
    while checked < 60:
        k = rng.randint(1, 3)
        phi = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        )
        determinant = laplace_det((phi - IntMatrix.identity(k)).to_rows())
        if determinant == 0:
            continue
        aut = AutGroup(k, trivial)
        classes = twisted_classes(aut, TwistData(phi))
        representatives = box_representatives(classes)
        assert len(set(representatives)) == abs(determinant)
        for rep in representatives:
            assert classes.representative(rep) == rep
        checked += 1


def test_twisted_relation_well_defined():
    rng = random.Random(303)
    z2 = FiniteGroup.builtin("Z2")
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    aut = AutGroup(2, z2, [IntMatrix.identity(2), swap])
    phi = IntMatrix.from_rows([[3, 1], [1, 3]])
    classes = twisted_classes(aut, TwistData(phi))
    difference = phi - IntMatrix.identity(2)
    for _ in range(300):
        a = tuple(rng.randint(-6, 6) for _ in range(2))
        m = tuple(rng.randint(-4, 4) for _ in range(2))
        w = rng.randrange(2)
        moved = tuple(
            x + y
            for x, y in zip(aut.act(w, a), difference.apply_to_vector(m))
        )
        assert classes.representative(a) == classes.representative(moved)
        # idempotence
        assert classes.representative(classes.representative(a)) == classes.representative(a)


def test_weyl_moves_identify_reflected_vectors():
    z2 = FiniteGroup.builtin("Z2")
    aut = AutGroup(1, z2, [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])])
    phi = IntMatrix.from_rows([[1]])
    with_weyl = twisted_classes(aut, TwistData(phi))
    without = twisted_classes(AutGroup.translations(1), TwistData(phi))
    assert with_weyl.representative((4,)) == with_weyl.representative((-4,))
    assert without.representative((4,)) != without.representative((-4,))


WEYL_MERGING_SETS = (
    # (θ on the translations of a ℤ₂ Weyl group, φ_π commuting with it)
    ([[0, 1], [1, 0]], [[3, 1], [1, 3]]),
    ([[-1]], [[1]]),
    ([[-1, 0], [0, -1]], [[2, 1], [0, -1]]),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_a_used_set_answers_tuples_and_lists_as_a_fresh_set_does(data):
    theta, phi = data.draw(st.sampled_from(WEYL_MERGING_SETS))
    k = len(phi)
    aut = AutGroup(k, FiniteGroup.builtin("Z2"), [IntMatrix.identity(k), IntMatrix.from_rows(theta)])
    twist = TwistData(IntMatrix.from_rows(phi))
    used = twisted_classes(aut, twist)
    vectors = data.draw(st.lists(st.tuples(*[st.integers(-9, 9)] * k), min_size=1, max_size=12))
    for vector in vectors + vectors:  # the second pass asks again
        fresh = twisted_classes(aut, twist).representative(vector)
        assert used.representative(vector) == fresh
        assert used.representative(list(vector)) == fresh


# ---------------------------------------------------------------------------
# group-ring arithmetic


def _z2_aut():
    return AutGroup(0, FiniteGroup.builtin("Z2"))


def test_group_ring_frozen_product():
    aut = _z2_aut()
    one = GroupRingElement.basis(aut, (), aut.weyl.identity)
    g = GroupRingElement.basis(aut, (), 1, 1)
    assert ((one + g) * (one - g)).is_zero  # (1+g)(1−g) = 1 − g² = 0
    assert str(-g) == "−g"
    assert ((one + g) * (one + g)) == (one + g).scale(2)


def test_group_ring_laws():
    rng = random.Random(304)
    aut = _z2_aut()

    def random_element():
        e = GroupRingElement.zero(aut)
        for _ in range(rng.randint(0, 3)):
            e = e + GroupRingElement.basis(aut, (), rng.randrange(2), rng.randint(-3, 3))
        return e

    for _ in range(60):
        a, b, c = random_element(), random_element(), random_element()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b).augmentation() == a.augmentation() + b.augmentation()
        assert (a * b).augmentation() == a.augmentation() * b.augmentation()


def test_apply_twist_moves_translation_vectors():
    trivial = FiniteGroup.builtin("trivial")
    aut = AutGroup(1, trivial)
    twist = TwistData(IntMatrix.from_rows([[2]]))
    t = GroupRingElement.basis(aut, (1,), 0, 1)
    assert t.apply_twist(twist) == GroupRingElement.basis(aut, (2,), 0, 1)


def test_coset_reduce_merges_stabilizer_translates():
    aut = _z2_aut()
    g = GroupRingElement.basis(aut, (), 1, 1)
    one = GroupRingElement.basis(aut, (), aut.weyl.identity)
    reduced = (one + g).coset_reduce((0, 1))
    assert reduced == GroupRingElement.basis(aut, (), 0, 2)
    assert reduced.coset_reduce((0, 1)) == reduced


def test_matrix_arithmetic_and_augmentation_functor():
    rng = random.Random(305)
    aut = _z2_aut()

    def random_elem():
        e = GroupRingElement.zero(aut)
        for _ in range(rng.randint(0, 2)):
            e = e + GroupRingElement.basis(aut, (), rng.randrange(2), rng.randint(-2, 2))
        return e

    for _ in range(40):
        n, k, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a = GroupRingMatrix(aut, n, k, tuple(random_elem() for _ in range(n * k)))
        b = GroupRingMatrix(aut, k, m, tuple(random_elem() for _ in range(k * m)))
        assert (a @ b).augmented() == a.augmented() @ b.augmented()
    square = GroupRingMatrix(aut, 2, 2, tuple(random_elem() for _ in range(4)))
    other = GroupRingMatrix(aut, 2, 2, tuple(random_elem() for _ in range(4)))
    assert (square + other).trace() == square.trace() + other.trace()


def test_matrix_rendering():
    aut = _z2_aut()
    minus_g = GroupRingElement.basis(aut, (), 1, -1)
    matrix = GroupRingMatrix(aut, 1, 1, (minus_g,))
    assert str(matrix) == "[−g]"


def test_pi1_projection_drops_weyl_support():
    aut = _z2_aut()
    classes = twisted_classes(aut, TwistData(IntMatrix.zeros(0, 0)))
    g_term = GroupRingElement.basis(aut, (), 1, 5)
    identity_term = GroupRingElement.basis(aut, (), 0, -3)
    assert pi1_projection(g_term, classes) == {}
    assert pi1_projection(identity_term, classes) == {(): -3}
    assert pi1_projection(g_term + identity_term, classes) == {(): -3}


def test_pi1_projection_merges_twisted_classes():
    trivial = FiniteGroup.builtin("trivial")
    aut = AutGroup(1, trivial)
    classes = twisted_classes(aut, TwistData(IntMatrix.from_rows([[-1]])))
    element = (
        GroupRingElement.basis(aut, (0,), 0, 1)
        + GroupRingElement.basis(aut, (2,), 0, 1)  # ~ (0,)
        + GroupRingElement.basis(aut, (3,), 0, 4)  # ~ (1,)
    )
    assert pi1_projection(element, classes) == {(0,): 2, (1,): 4}


# ---------------------------------------------------------------------------
# sparse kernels against a dense reference


def test_translation_groups_are_interned():
    assert AutGroup.translations(3) is AutGroup.translations(3)
    assert AutGroup.translations(2) == AutGroup(2, FiniteGroup.builtin("trivial"))
    iso = load_builtin("example2").classes[0]
    assert iso.pi1_aut() is AutGroup.translations(iso.aut.pi1_rank)


def dense_product(a, b):
    """Every (j, i, l) entry product, θ applied to every term, summed by the constructor."""
    aut = a.aut
    entries = []
    for j in range(a.rows):
        for l in range(b.cols):
            terms = []
            for i in range(a.cols):
                for v1, w1, c1 in a.entry(j, i).terms:
                    for v2, w2, c2 in b.entry(i, l).terms:
                        moved = aut.action[w1].apply_to_vector(v2)
                        vector = tuple(x + y for x, y in zip(v1, moved))
                        terms.append((vector, aut.weyl.multiply(w1, w2), c1 * c2))
            entries.append(GroupRingElement(aut, terms))
    return GroupRingMatrix(aut, a.rows, b.cols, entries)


def dense_trace(m):
    return GroupRingElement(m.aut, [t for i in range(m.rows) for t in m.entry(i, i).terms])


KERNEL_AUTS = (
    AutGroup(2, FiniteGroup.builtin("Z2"), [IntMatrix.identity(2), IntMatrix.from_rows([[-1, 0], [0, -1]])]),
    AutGroup(0, FiniteGroup.builtin("Sym:3")),
)


@st.composite
def sparse_matrix_pairs(draw):
    """Two composable matrices over a nontrivial AutGroup, about two thirds zero entries."""
    aut = draw(st.sampled_from(KERNEL_AUTS))
    term = st.tuples(
        st.tuples(*[st.integers(-2, 2)] * aut.pi1_rank),
        st.integers(0, aut.weyl.order - 1),
        st.integers(-3, 3),
    )

    def matrix(rows, cols):
        entries = [
            GroupRingElement(aut, draw(st.lists(term, min_size=1, max_size=3)))
            if draw(st.integers(0, 2)) == 0
            else GroupRingElement.zero(aut)
            for _ in range(rows * cols)
        ]
        return GroupRingMatrix(aut, rows, cols, entries)

    n, m, p = (draw(st.integers(0, 4)) for _ in range(3))
    return matrix(n, m), matrix(m, p), matrix(n, n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sparse_matrix_pairs())
def test_nonzero_rows_are_kept_immutable_and_match_the_entries(matrices):
    for m in matrices:
        rows = m._nonzero_rows()
        assert rows is m._nonzero_rows()  # built once per matrix
        assert rows == tuple(
            tuple((i, m.entry(j, i)) for i in range(m.cols) if not m.entry(j, i).is_zero)
            for j in range(m.rows)
        )
        assert type(rows) is tuple
        assert all(type(row) is tuple and all(type(pair) is tuple for pair in row) for row in rows)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(sparse_matrix_pairs())
def test_sparse_matmul_and_trace_match_dense_reference(matrices):
    a, b, square = matrices
    product = a @ b
    assert product == dense_product(a, b)
    assert square.trace() == dense_trace(square)
    if b.is_square:
        assert product @ b == dense_product(dense_product(a, b), b)
    if a.rows and a.cols and b.cols:
        assert a.entry(0, 0) * b.entry(0, 0) == dense_product(
            a.submatrix([0], [0]), b.submatrix([0], [0])
        ).entry(0, 0)


# ---------------------------------------------------------------------------
# the checking constructor and the term combiner


GROUP_RING_TERM_REFUSALS = [
    ([((1.7,), 0, 2.9)], "vector entry 0 of term 0 is a float, not an integer."),
    ([((1,), 0, 1), ((2,), 0.5, 1)], "Weyl index of term 1 is a float, not an integer."),
    ([((1,), 0, True)], "coefficient of term 0 is a boolean, not an integer."),
    ([((1,), "0", 1)], "Weyl index of term 0 is a string, not an integer."),
]


@pytest.mark.parametrize("terms, message", GROUP_RING_TERM_REFUSALS)
def test_group_ring_element_refuses_terms_that_are_not_ints(terms, message):
    # (1.7,) is not read as (1,), nor a Weyl index 0.5 as 0
    with pytest.raises(ValueError) as caught:
        GroupRingElement(AutGroup.translations(1), terms)
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# refusals of the public constructors and operations

Z2 = FiniteGroup.builtin("Z2")
T1, T2 = AutGroup.translations(1), AutGroup.translations(2)


def zeros(aut, rows, cols):
    return GroupRingMatrix(aut, rows, cols, (GroupRingElement(aut, ()),) * (rows * cols))


PUBLIC_REFUSALS = [
    # (call, exception type, exact message)
    (lambda: FiniteGroup.builtin("Zn:0"), ValueError, "cyclic group order must be positive, got 0."),
    (
        lambda: FiniteGroup.builtin("Sym:0"),
        ValueError,
        "symmetric group degree must be positive, got 0.",
    ),
    (
        lambda: weyl_group(FiniteGroup.builtin("Z2xZ2"), Subgroup(Z2, [0, 1])),
        ValueError,
        "subgroup does not belong to the given group.",
    ),
    (lambda: Subgroup(Z2, [0, 2]), ValueError, "subgroup member index 2 outside the group."),
    (lambda: Subgroup(Z2, [0, -1]), ValueError, "subgroup member index -1 outside the group."),
    (lambda: AutGroup(-1, Z2), ValueError, "translation rank must be nonnegative, got -1."),
    (
        lambda: AutGroup(1, Z2, [IntMatrix.identity(1)]),
        ValueError,
        "need one action matrix per Weyl element (2), got 1.",
    ),
    (
        lambda: AutGroup(1, Z2, [IntMatrix.identity(1), IntMatrix.identity(2)]),
        ValueError,
        "action matrix for 'g' must be 1×1, got 2×2.",
    ),
    (
        lambda: GroupRingElement.basis(T1, (0,), 0) + GroupRingElement.basis(T2, (0, 0), 0),
        ValueError,
        "cannot combine elements over different automorphism groups.",
    ),
    (
        lambda: GroupRingElement.basis(T1, (0,), 0) * GroupRingElement.basis(T2, (0, 0), 0),
        ValueError,
        "cannot combine elements over different automorphism groups.",
    ),
    (
        lambda: zeros(T1, 1, 1) @ zeros(T2, 1, 1),
        ValueError,
        "cannot combine elements over different automorphism groups.",
    ),
    (
        lambda: TwistData(IntMatrix(1, 2, (1, 0))),
        ValueError,
        "twist matrix must be square, got 1×2.",
    ),
    (
        lambda: twisted_classes(T1, TwistData(IntMatrix.identity(1))).representative((1, 2)),
        ValueError,
        "vector of length 2 does not match rank 1.",
    ),
    (
        lambda: GroupRingElement(T1, [((1, 2), 0, 1)]),
        ValueError,
        "support vector of length 2 does not match rank 1.",
    ),
    (lambda: GroupRingElement(T1, [((1,), 1, 1)]), ValueError, "Weyl index 1 outside 0..0."),
    (
        lambda: GroupRingMatrix(T1, -1, 1, ()),
        ValueError,
        "matrix dimensions must be nonnegative, got -1×1.",
    ),
    (
        lambda: GroupRingMatrix(T1, 1, 2, zeros(T1, 1, 1).entries),
        ValueError,
        "expected 2 entries for 1×2, got 1.",
    ),
    (
        lambda: GroupRingMatrix(T1, 1, 1, zeros(T2, 1, 1).entries),
        ValueError,
        "matrix entries must share the matrix's automorphism group.",
    ),
    (lambda: zeros(T1, 1, 1).entry(1, 0), IndexError, "entry (1, 0) outside 1×1 matrix."),
    (lambda: zeros(T1, 1, 1) + zeros(T1, 1, 2), ValueError, "shape mismatch: 1×1 vs 1×2."),
    (lambda: zeros(T1, 1, 1) @ zeros(T1, 2, 1), ValueError, "cannot multiply 1×1 by 2×1."),
    (
        lambda: zeros(T1, 1, 2).trace(),
        ValueError,
        "trace requires a square matrix, got 1×2.",
    ),
]


@pytest.mark.parametrize(
    "call, error, message", PUBLIC_REFUSALS, ids=[message for *_, message in PUBLIC_REFUSALS]
)
def test_public_refusal_message_is_pinned(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


COMBINER_AUTS = (
    AutGroup(0, FiniteGroup.builtin("trivial")),
    AutGroup(1, FiniteGroup.builtin("Z2"), [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])]),
    AutGroup.translations(2),
)


def assert_combined(result, uncombined):
    """``result`` is the normal form of the ``(v, w, c)`` triples ``uncombined``."""
    uncombined = list(uncombined)
    assert result == GroupRingElement(result.aut, uncombined)
    keys = [(w, v) for v, w, _ in result.terms]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert all(c != 0 for _, _, c in result.terms)
    sums = collections.Counter()
    for v, w, c in uncombined:
        sums[(v, w)] += c
    assert {(v, w): c for v, w, c in result.terms} == {key: c for key, c in sums.items() if c}


@st.composite
def combiner_cases(draw):
    """Two elements, a scale factor, a twist, a Weyl stabilizer and a square matrix.

    Vectors and coefficients are small, so terms collide and cancel often.
    """
    aut = draw(st.sampled_from(COMBINER_AUTS))
    k = aut.pi1_rank
    term = st.tuples(
        st.tuples(*[st.integers(-1, 1)] * k),
        st.integers(0, aut.weyl.order - 1),
        st.integers(-2, 2),
    )
    element = st.lists(term, max_size=4).map(lambda terms: GroupRingElement(aut, terms))
    phi = IntMatrix(k, k, tuple(draw(st.lists(st.integers(-2, 2), min_size=k * k, max_size=k * k))))
    stabilizer = draw(st.sampled_from([(aut.weyl.identity,), tuple(range(aut.weyl.order))]))
    n = draw(st.integers(0, 3))
    square = GroupRingMatrix(aut, n, n, [draw(element) for _ in range(n * n)])
    return draw(element), draw(element), draw(st.integers(-3, 3)), TwistData(phi), stabilizer, square


@settings(max_examples=200, deadline=None, derandomize=True)
@given(combiner_cases())
def test_every_combining_operation_returns_the_normal_form(case):
    a, b, factor, twist, stabilizer, square = case
    aut, weyl, phi = a.aut, a.aut.weyl, twist.phi_pi
    products = []
    for v1, w1, c1 in a.terms:
        for v2, w2, c2 in b.terms:
            vector = tuple(map(operator.add, v1, aut.action[w1].apply_to_vector(v2)))
            products.append((vector, weyl.multiply(w1, w2), c1 * c2))
    assert_combined(a + b, a.terms + b.terms)
    assert_combined(a.scale(factor), [(v, w, factor * c) for v, w, c in a.terms])
    assert_combined(a * b, products)
    assert_combined(a.apply_twist(twist), [(phi.apply_to_vector(v), w, c) for v, w, c in a.terms])
    assert_combined(
        a.coset_reduce(stabilizer),
        [(v, min(weyl.multiply(w, s) for s in stabilizer), c) for v, w, c in a.terms],
    )
    diagonal = [t for i in range(square.rows) for t in square.entry(i, i).terms]
    assert_combined(square.trace(), diagonal)
