"""Free classes (trivial Weyl group) and the loader's one-pass paths.

Each fast path is compared with a reference kept here: the general expansion
over Weyl cosets, the chain identities compared as built product matrices,
and the checking :class:`GroupRingElement` constructor.
"""

import copy
import functools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlef import complex_model
from eqlef.complex_model import _decode_entry, _decode_int, load_builtin, load_complex
from eqlef.corpus import BUILTIN_COMPLEXES
from eqlef.equivariant_groups import (
    AutGroup,
    FiniteGroup,
    GroupRingElement,
    GroupRingMatrix,
    TwistData,
    all_subgroups,
)
from eqlef.exact_algebra import IntMatrix
from eqlef.invariants import KClass, induce, lefschetz_number, reidemeister_trace
from eqlef.realize import RealizationTarget, realize

from test_torus import torus_document
from translated_docs import large_vector, translated

TORUS_DEGREES = (2, -1, 3, -2, 2)


def reference_expand_matrix(iso, matrix, source, target):
    """The expansion over Weyl cosets for any W, built with the checking constructor."""
    pi1 = iso.pi1_aut()
    weyl = iso.aut.weyl
    position = {key: p for p, key in enumerate(target.expanded_basis)}
    accumulated = {}
    for a, (j, r) in enumerate(source.expanded_basis):
        for i, element in enumerate(matrix.row(j)):
            stabilizer = target.stabilizers[i]
            for vector, w, coefficient in element.terms:
                b = position[(i, weyl.coset_representative(weyl.multiply(r, w), stabilizer))]
                accumulated.setdefault((a, b), []).append(
                    (iso.aut.act(r, vector), pi1.weyl.identity, coefficient)
                )
    rows, cols = len(source.expanded_basis), len(target.expanded_basis)
    return GroupRingMatrix(
        pi1,
        rows,
        cols,
        [GroupRingElement(pi1, accumulated.get((a, b), ())) for a in range(rows) for b in range(cols)],
    )


def _induced(source, group_name):
    group = FiniteGroup.builtin(group_name)
    return induce(source, group, {"1": group.labels[group.identity]})[0]


def _realized(a, b_prime):
    return realize(RealizationTarget(IntMatrix.from_rows(a), IntMatrix.from_rows(b_prime)))


FREE_DOCUMENTS = {
    **{f"builtin:{name}": (lambda name=name: load_builtin(name)) for name in BUILTIN_COMPLEXES},
    **{
        f"torus:{k}": (lambda k=k: load_complex(torus_document(TORUS_DEGREES[:k])))
        for k in range(1, 6)
    },
    "realize:2x2": lambda: _realized([[2, 1], [0, 3]], [[1]]),
    "realize:rotation": lambda: _realized([[0, -1], [1, 0]], []),
    "realize:3x3": lambda: _realized([[1, 2, 0], [0, 1, 1], [3, 0, -1]], [[2, 1], [1, 1]]),
    **{
        f"induced:{group}:{family}": (
            lambda group=group, family=family: _induced(
                load_complex(torus_document((2, -1)))
                if family == "torus"
                else _realized([[2, 1], [0, 3]], [[1]]),
                group,
            )
        )
        for group in ("Z2", "Sym:3", "Zn:12")
        for family in ("torus", "realize")
    },
}


@pytest.mark.parametrize("name", sorted(FREE_DOCUMENTS))
def test_free_class_expansion_equals_the_general_loop(name):
    free = [iso for iso in FREE_DOCUMENTS[name]().classes if iso.aut.weyl.order == 1]
    assert free
    for iso in free:
        pi1 = iso.pi1_aut()
        for entry, below, expanded_map, expanded_boundary in iso.ladder:
            pairs = [(expanded_map, entry.chain_map, entry)]
            if expanded_boundary is not None:
                pairs.append((expanded_boundary, entry.boundary, below))
            for expanded, module, target in pairs:
                assert expanded == reference_expand_matrix(iso, module, entry, target)
                assert expanded is module
                assert expanded.aut is pi1 is iso.aut
                assert all(e.aut is pi1 for e in expanded.entries)
                assert all(e.terms is m.terms for e, m in zip(expanded.entries, module.entries))


def test_free_classes_cover_a_weyl_identity_not_labelled_one():
    (iso,) = FREE_DOCUMENTS["induced:Sym:3:torus"]().classes
    assert iso.aut.weyl.labels == ("012",)
    assert iso.pi1_aut() is iso.aut
    for entry, _, expanded_map, expanded_boundary in iso.ladder:
        assert expanded_map is entry.chain_map
        assert expanded_boundary is entry.boundary
    assert reidemeister_trace(iso).terms == (((0, 0), -1), ((0, 1), -1))
    assert lefschetz_number(iso) == -2


# -- the chain identities --------------------------------------------------


def reference_validate_chain_algebra(iso):
    """The chain identities checked by building both products and comparing them."""
    ladder = iso.ladder
    for k, (entry, _, map_here, expanded_boundary) in enumerate(ladder):
        if expanded_boundary is None:
            continue
        _, _, map_below, boundary_below = ladder[k - 1]
        if boundary_below is not None and not (expanded_boundary @ boundary_below).is_zero:
            raise ValueError(
                f"boundary composition is nonzero between degrees {entry.degree} "
                f"and {entry.degree - 1} of {iso.label}."
            )
        if expanded_boundary.apply_twist(iso.twist) @ map_below != map_here @ expanded_boundary:
            raise ValueError(
                f"chain map does not commute with the boundary at degree "
                f"{entry.degree} of {iso.label}."
            )


def _flip(entry, t):
    """``entry`` (an integer, a term object or a list of terms) with term ``t`` negated."""
    if isinstance(entry, list):
        return entry[:t] + [_flip(entry[t], 0)] + entry[t + 1 :]
    if isinstance(entry, dict):
        return {**entry, "coeff": -int(entry.get("coeff", 1))}
    return -int(entry)


def _mutant(document, rng):
    """A copy of ``document`` with one map or boundary term flipped, or φ_π perturbed."""
    document = copy.deepcopy(document)
    iso = rng.choice(document["iso_classes"])
    kinds = ["map", "boundary", "phi_pi"] if iso["pi1_rank"] else ["map", "boundary"]
    kind = rng.choice(kinds)
    if kind == "phi_pi":
        row = rng.choice(iso["phi_pi"])
        j = rng.randrange(len(row))
        row[j] = int(row[j]) + rng.choice((-1, 1))
        return document
    cells = [
        (matrix, i, j, t)
        for degree in iso["chain"]
        if kind in degree
        for matrix in [degree[kind]]
        for i, row in enumerate(matrix)
        for j, entry in enumerate(row)
        for t in range(len(entry) if isinstance(entry, list) else int(entry != 0))
    ]
    if not cells:
        return None
    matrix, i, j, t = rng.choice(cells)
    matrix[i][j] = _flip(matrix[i][j], t)
    return document


def _verdict(document):
    try:
        load_complex(document)
    except ValueError as exc:
        return str(exc)
    return "accepted"


MUTATED_DOCUMENTS = {
    **{f"torus:{k}": (lambda k=k: torus_document(TORUS_DEGREES[:k])) for k in range(1, 5)},
    **{f"builtin:{name}": (lambda name=name: BUILTIN_COMPLEXES[name]) for name in BUILTIN_COMPLEXES},
}


@pytest.mark.parametrize("name", sorted(MUTATED_DOCUMENTS))
def test_cancelling_products_refuses_what_comparing_them_refuses(name, monkeypatch):
    document = MUTATED_DOCUMENTS[name]()
    rng = random.Random(f"mutants:{name}")
    verdicts = []
    for _ in range(24):
        mutant = _mutant(document, rng)
        if mutant is None:
            continue
        fast = _verdict(mutant)
        with monkeypatch.context() as patch:
            patch.setattr(complex_model, "_validate_chain_algebra", reference_validate_chain_algebra)
            reference = _verdict(mutant)
        assert fast == reference
        verdicts.append(fast)
    assert any("commute with the boundary" in v or "boundary composition" in v for v in verdicts)
    assert _verdict(document) == "accepted"


def test_equal_nonzero_products_cancel():
    """ψ(∂₁)·f₀ = f₁·∂₁ = t² − 1 on the circle map z ↦ z², and ∂₂∂₁ cancels on T²."""
    (iso,) = load_complex(torus_document((2,))).classes
    (_, _, map_below, _), (_, _, map_here, boundary) = iso.ladder
    twisted = boundary.apply_twist(iso.twist)
    assert twisted @ map_below == map_here @ boundary
    assert not (map_here @ boundary).is_zero
    phi = iso.twist.phi_pi
    assert complex_model._products_cancel(
        phi, (boundary, map_below, 1, True), (map_here, boundary, -1, False)
    )
    assert not complex_model._products_cancel(
        phi, (boundary, map_below, 1, True), (map_here, boundary, 1, False)
    )

    (square,) = load_complex(torus_document((2, 3))).classes
    top, below = square.ladder[2][3], square.ladder[1][3]
    assert not top.is_zero and not below.is_zero
    phi = square.twist.phi_pi
    assert complex_model._products_cancel(phi, (top, below, 1, False))
    zero = GroupRingElement.zero(below.aut)
    one_face = GroupRingMatrix(below.aut, 2, 1, [below.entry(0, 0), zero])
    assert not complex_model._products_cancel(phi, (top, one_face, 1, False))


def _reference_cancel(phi, products):
    """Σ sign·(ψ(left) @ right) == 0, from built products, ``apply_twist`` and ``==``."""
    twist = TwistData(phi)
    sides = {1: [], -1: []}
    for left, right, sign, twisted in products:
        sides[sign].append((left.apply_twist(twist) if twisted else left) @ right)
    plus, minus = (functools.reduce(operator.add, sides[s]) if sides[s] else None for s in (1, -1))
    if minus is None:
        return plus.is_zero
    if plus is None:
        return minus.is_zero
    return plus == minus


def _single(aut, vector, rows=1, cols=1, at=(0, 0)):
    zero = GroupRingElement.zero(aut)
    entries = [zero] * (rows * cols)
    entries[at[0] * cols + at[1]] = GroupRingElement(aut, [(vector, 0, 1)])
    return GroupRingMatrix(aut, rows, cols, entries)


def _first_product_widths(phi, products):
    """The field widths b_i of a radix sized from the first product's operands alone."""
    bounds = [max(pair) for pair in zip(*(m._coordinate_bounds() for m in products[0][:2]))]
    reach = [max(b, sum(abs(a) * m for a, m in zip(phi.row(i), bounds))) for i, b in enumerate(bounds)]
    return [(2 * d).bit_length() + 1 for d in reach]


@st.composite
def packed_products(draw):
    """φ_π and signed, possibly twisted products over ℤᵏ, k ≤ 4, coordinates up to ±10³⁰.

    Each product draws its own coordinate bound (0 writes only zero vectors),
    so a later product can reach further than the first.  Half the cases add
    each product's negation (ψ materialized with ``apply_twist`` on the
    untwisted copy), so the sums cancel; a perturbation of one coordinate or
    coefficient, or a carry into the next coordinate of a later product's
    term, then makes a near miss.  The carry aliases under a radix sized from
    the first product alone.
    """
    k = draw(st.integers(0, 4))
    aut = AutGroup.translations(k)
    row = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    phi = IntMatrix(k, k, [a for r in draw(st.lists(row, min_size=k, max_size=k)) for a in r])

    def matrix(rows, cols, bound):
        # nonzero first: zero vectors are fixed by every φ_π and hide a dropped twist
        coordinate = (st.integers(1, bound) | st.integers(-bound, -1) | st.just(0)) if bound else st.just(0)
        term = st.tuples(st.lists(coordinate, min_size=k, max_size=k), st.just(0), st.integers(-3, 3))
        element = st.lists(term, max_size=3).map(lambda terms: GroupRingElement(aut, terms))
        count = rows * cols
        return GroupRingMatrix(aut, rows, cols, draw(st.lists(element, min_size=count, max_size=count)))

    a, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    products = []
    for _ in range(draw(st.integers(1, 3))):
        b, bound = draw(st.integers(0, 3)), draw(st.sampled_from((0, 3, 10**6, 10**30)))
        sign, twisted = draw(st.sampled_from((1, -1))), draw(st.booleans())
        products.append((matrix(a, b, bound), matrix(b, c, bound), sign, twisted))
    if draw(st.booleans()):
        twist = TwistData(phi)
        products += [
            (left.apply_twist(twist) if twisted else left, right, -sign, False)
            for left, right, sign, twisted in products
        ]
        if draw(st.booleans()):
            nudge = draw(st.sampled_from(("coordinate", "carry", "coefficient")))
            # a carry goes into a later product, whose coordinates the first one's bounds miss
            p = draw(st.integers(nudge == "carry", len(products) - 1))
            left, right, sign, twisted = products[p]
            # the terms of right rows that some left entry reaches
            reached = {i for row in left._nonzero_rows() for i, _ in row}
            cells = [
                (r, l)
                for r, e in enumerate(right.entries)
                if r // right.cols in reached
                for l in range(len(e.terms))
            ]
            if cells:
                r, t = draw(st.sampled_from(cells))
                terms = list(right.entries[r].terms)
                vector, w, coefficient = terms[t]
                if k and nudge == "coordinate":
                    i = draw(st.integers(0, k - 1))
                    step = draw(st.sampled_from((1, -1)))
                    vector = vector[:i] + (vector[i] + step,) + vector[i + 1 :]
                elif k > 1 and nudge == "carry":
                    # 2^m·e_i − e_{i+1} packs to 0 where field i has m bits: m is
                    # the width of a radix sized from the first product alone
                    i = draw(st.integers(0, k - 2))
                    m = _first_product_widths(phi, products)[i]
                    step = draw(st.sampled_from((1, -1)))
                    moved = (vector[i] + step * 2**m, vector[i + 1] - step)
                    vector = vector[:i] + moved + vector[i + 2 :]
                else:
                    coefficient += 1
                terms[t] = (vector, w, coefficient)
                entries = list(right.entries)
                entries[r] = GroupRingElement(aut, terms)
                right = GroupRingMatrix(aut, right.rows, right.cols, entries)
                products[p] = (left, right, sign, twisted)
    return phi, products


@settings(max_examples=150, deadline=None, derandomize=True)
@given(packed_products())
def test_packed_check_agrees_with_built_products(case):
    phi, products = case
    assert complex_model._products_cancel(phi, *products) == _reference_cancel(phi, products)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k - 1))),
    st.integers(2, 10**30),
    st.sampled_from(("plain", "identity", "negated", "shifted", "tripled")),
)
def test_packed_keys_do_not_alias_near_the_edge_of_a_field(position, bound, twist):
    """Two sums whose coordinate i differs by a power of two P, the larger one
    the most any sum can reach, and whose coordinate i + 1 differs by 1 (for
    the last coordinate, whose result cells differ by 1): if field i, or the
    spread between cells, had exactly log₂ P bits, both would get one key.

    M = ``bound`` is the largest |v_i| of any term, and φ_π is a signed
    permutation (T_i = M) or 3·I (T_i = 3M), so the most is (T_i / M + 1)·M.
    """
    k, i = position
    aut = AutGroup.translations(k)
    scale = 3 if twist == "tripled" else 1
    permutation = [(j + (twist == "shifted")) % k for j in range(k)]
    sign = -1 if twist == "negated" else 1
    phi = IntMatrix(
        k, k, [scale * sign * (permutation[r] == c) for r in range(k) for c in range(k)]
    )
    last = i == k - 1

    def unit(j, value):
        return tuple(value if m == j else 0 for m in range(k))

    def product(digit, carried, product_sign):
        """A product whose one term has coordinate i equal to ``digit``."""
        left = max(-bound, min(bound, digit // scale))
        if twist != "plain":  # the v with φ_π·v = scale·left·e_i
            left_vector = unit(permutation[i], sign * left)
        else:
            left_vector = unit(i, left)
        right = list(unit(i, digit - scale * left))
        if carried and not last:
            right[i + 1] = 1
        cell = (0, 1) if carried and last else (0, 0)
        return (
            _single(aut, left_vector),
            _single(aut, tuple(right), 1, 2 if last else 1, cell),
            product_sign,
            twist != "plain",
        )

    high = (scale + 1) * bound
    for power in range(bound.bit_length(), high.bit_length() + 2):
        low = high - (1 << power)
        if low < -high:
            break
        products = [product(high, False, 1), product(low, True, -1)]
        assert not _reference_cancel(phi, products)
        assert not complex_model._products_cancel(phi, *products)


_SWAP = IntMatrix(2, 2, [0, 1, 1, 0])


@pytest.mark.parametrize(
    "terms, expected",
    [
        # ψ(t^v)·1 − t^v·1: φ_π moves v, so the sum is t^{φv} − t^v ≠ 0
        ((((1, 0), (0, 0), True), ((1, 0), (0, 0), False)), False),
        ((((1, 0), (0, 0), False), ((1, 0), (0, 0), True)), False),
        # ψ(t^v)·t^v − t^{φv}·t^v = 0, with v packed as a right operand first
        ((((1, 0), (1, 0), True), ((0, 1), (1, 0), False)), True),
    ],
    ids=["twisted-then-untwisted", "untwisted-then-twisted", "twisted-after-right"],
)
def test_one_vector_on_twisted_and_untwisted_operands_packs_to_two_keys(terms, expected):
    """A vector's key for ψ(left) is φ_π·v's, not v's, in whatever order the two appear."""
    aut = AutGroup.translations(2)
    products = [
        (_single(aut, left), _single(aut, right), 1 if p == 0 else -1, twisted)
        for p, (left, right, twisted) in enumerate(terms)
    ]
    assert _reference_cancel(_SWAP, products) is expected
    assert complex_model._products_cancel(_SWAP, *products) is expected


def test_bounds_cover_every_product_not_just_the_first():
    """t^{(1,0)}·t^{(−1,1)} − t^{(4,0)}·t^{(4,0)} = t^{(0,1)} − t^{(8,0)} ≠ 0.  Sized by the
    first product's M = (1, 1) alone, field 0 would have 3 bits, and 8·e₀ would
    pack as e₁; the second product's M = (4, 0) widens it."""
    aut = AutGroup.translations(2)
    products = [
        (_single(aut, (1, 0)), _single(aut, (-1, 1)), 1, False),
        (_single(aut, (4, 0)), _single(aut, (4, 0)), -1, False),
    ]
    identity = IntMatrix.identity(2)
    assert [m._coordinate_bounds() for p in products for m in p[:2]] == [
        (1, 0), (1, 1), (4, 0), (4, 0)
    ]
    assert not _reference_cancel(identity, products)
    assert not complex_model._products_cancel(identity, *products)


_REFUSAL = (
    "chain map does not commute with the boundary at degree {} of "
    "(subgroup {{1}}, component 'torus')."
)


@pytest.mark.parametrize(
    "degrees, perturbed, refusal",
    [
        ((2, -1, 3), (1, 0), _REFUSAL.format(1)),
        ((2, -1, 3, -2, 2), (3, 5), _REFUSAL.format(3)),
    ],
    ids=["T3", "T5"],
)
def test_maps_translated_by_a_4000_digit_vector_load_exactly(
    degrees, perturbed, refusal, monkeypatch
):
    """f·t^u is a chain map whenever f is, for any u; one coordinate off by one is refused
    with the message that comparing built products gives."""
    rng = random.Random(f"translated:{degrees}")
    u = large_vector(len(degrees), 4000, rng)
    document = torus_document(degrees)
    (iso,) = load_complex(translated(document, u)).classes
    reference_validate_chain_algebra(iso)
    mutant = translated(document, u, perturbed)
    assert _verdict(mutant) == refusal
    monkeypatch.setattr(complex_model, "_validate_chain_algebra", reference_validate_chain_algebra)
    assert _verdict(mutant) == refusal


# -- the module structure ----------------------------------------------------


def reference_validate_module_structure(iso):
    """Row invariance over every stabilizer element, each built as a basis element
    and multiplied into every entry of the row, then mask closure over every
    masked row and unmasked column: the checks and their order before one walk."""
    weyl = iso.aut.weyl
    by_degree = {entry.degree: entry for entry in iso.degrees}
    with_below = [(entry, by_degree.get(entry.degree - 1)) for entry in iso.degrees]
    for entry, below in with_below:
        matrices = [("map", entry.chain_map, entry)]
        if entry.boundary is not None and below is not None:
            matrices.append(("boundary", entry.boundary, below))
        for kind, matrix, target in matrices:
            for j in range(entry.rank):
                for s in entry.stabilizers[j]:
                    translate = GroupRingElement.basis(iso.aut, (0,) * iso.aut.pi1_rank, s)
                    for i in range(matrix.cols):
                        here = target.stabilizers[i]
                        original = matrix.entry(j, i).coset_reduce(here)
                        if (translate * matrix.entry(j, i)).coset_reduce(here) != original:
                            raise ValueError(
                                f"{kind} row {j} in degree {entry.degree} of {iso.label} "
                                "is not invariant under its stabilizer; the module "
                                "structure is inconsistent."
                            )
    for entry, below in with_below:
        matrices = [("map", entry.chain_map, entry, "be preserved")]
        if entry.boundary is not None and below is not None:
            matrices.append(("boundary", entry.boundary, below, "be a subcomplex"))
        for kind, matrix, target, rule in matrices:
            for j in range(entry.rank):
                for i in range(matrix.cols):
                    if (
                        entry.relative_mask[j]
                        and not target.relative_mask[i]
                        and not matrix.entry(j, i).is_zero
                    ):
                        raise ValueError(
                            f"{kind} row {j} in degree {entry.degree} of {iso.label} sends a "
                            "masked basis element to an unmasked one; the singular part "
                            f"must {rule}."
                        )


MODULE_GROUPS = {name: FiniteGroup.builtin(name) for name in ("Z2", "Z2xZ2", "Sym:3")}


@st.composite
def module_documents(draw):
    """One class over the trivial subgroup of Z2, Z2xZ2 or Sym:3 with random masks,
    stabilizers and entries: zero, one term, or one term summed over a subgroup of
    the row's stabilizer, which makes it invariant when that is all of it.  Half
    the documents keep each map's masked rows on masked columns, so that a
    boundary is the first to leave the mask."""
    name = draw(st.sampled_from(sorted(MODULE_GROUPS)))
    group = MODULE_GROUPS[name]
    flip = name == "Z2" and draw(st.booleans())  # θ(g) = −1 on ℤ
    rank = 1 if flip else draw(st.integers(0, 1))
    action = [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])] if flip else None
    aut = AutGroup(rank, group, action)
    subgroups = [subgroup.members for subgroup in all_subgroups(group)]
    closed_maps = draw(st.booleans())

    def entry(stabilizer, leaves_mask=False):
        kind = draw(st.sampled_from(["zero", "term", "orbit sum"]))
        if kind == "zero" or leaves_mask:
            return 0
        vector = tuple(draw(st.integers(-1, 1)) for _ in range(rank))
        w = draw(st.integers(0, group.order - 1))
        coefficient = draw(st.sampled_from([-1, 1, 2]))
        orbit = draw(st.sampled_from([h for h in subgroups if set(h) <= set(stabilizer)]))
        return [
            {
                "coeff": coefficient,
                "vector": list(aut.act(s, vector)),
                "weyl_elem": group.labels[group.multiply(s, w)],
            }
            for s in (orbit if kind == "orbit sum" else (group.identity,))
        ]

    chain = []
    for degree in (0, draw(st.sampled_from([1, 2]))):
        cells = draw(st.integers(1, 3))
        mask = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
        stabilizers = [draw(st.sampled_from(subgroups)) if m else (group.identity,) for m in mask]
        raw = {
            "degree": degree,
            "rank": cells,
            "relative_mask": mask,
            "stabilizers": [[group.labels[s] for s in stabilizer] for stabilizer in stabilizers],
            "map": [
                [entry(stabilizer, closed_maps and m and not n) for n in mask]
                for m, stabilizer in zip(mask, stabilizers)
            ],
        }
        if chain and draw(st.booleans()):
            columns = chain[0]["rank"] if degree == 1 else 0
            raw["boundary"] = [[entry(s) for _ in range(columns)] for s in stabilizers]
        chain.append(raw)
    iso = {
        "subgroup_class": [group.labels[group.identity]],
        "component": "c",
        "pi1_rank": rank,
        "phi_pi": [[int(i == j) for j in range(rank)] for i in range(rank)],
        "chain": chain,
    }
    if flip:
        iso["action"] = {"g": [[-1]]}
    return {"format_version": 1, "group": {"builtin": name}, "iso_classes": [iso]}


def _module_verdict(validate, iso):
    try:
        validate(iso)
    except ValueError as exc:
        return str(exc)
    return "accepted"


def test_one_walk_on_generators_refuses_what_every_stabilizer_element_refuses():
    """The loader's module-structure check against the reference, on random documents
    whose classes are built unchecked; every verdict turns up."""
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(module_documents())
    def check(document):
        with pytest.MonkeyPatch.context() as patch:
            for check_name in ("_validate_module_structure", "_validate_chain_algebra"):
                patch.setattr(complex_model, check_name, lambda iso: None)
            (iso,) = load_complex(document).classes
        verdict = _module_verdict(complex_model._validate_module_structure, iso)
        assert verdict == _module_verdict(reference_validate_module_structure, iso)
        seen.add(verdict if verdict == "accepted" else verdict.split("; ")[-1])

    check()
    assert seen == {
        "accepted",
        "the module structure is inconsistent.",
        "the singular part must be preserved.",
        "the singular part must be a subcomplex.",
    }


# -- decoding ----------------------------------------------------------------

DECODE_AUTS = (
    AutGroup(2, FiniteGroup.builtin("Sym:3")),
    AutGroup(1, FiniteGroup.builtin("Z2")),
    AutGroup(3, FiniteGroup.builtin("trivial")),
)


class _Int(int):
    """An int subclass, as a JSON parser with custom hooks could produce."""


@st.composite
def entries(draw):
    """(aut, raw entry, terms) with repeated keys and coefficients that cancel, or
    terms written combined already.

    Every way a term may be written is drawn: a coefficient as an ``int``, a
    decimal string, an ``int`` subclass, or omitted when it is 1; a vector as a
    list of plain or subclassed ``int`` values, a tuple, or, when it is zero,
    omitted or ``None``.  So both the inline decoding and :func:`_decode_term`,
    and both :func:`complex_model._element` paths, are taken.
    """
    aut = draw(st.sampled_from(DECODE_AUTS))
    term = st.tuples(
        st.lists(st.integers(-1, 1), min_size=aut.pi1_rank, max_size=aut.pi1_rank),
        st.integers(0, aut.weyl.order - 1),
        st.integers(-3, 3),
    )
    terms = draw(st.lists(term, max_size=8))
    if draw(st.booleans()):
        terms = list(GroupRingElement(aut, terms).terms)
    elif terms and draw(st.booleans()):
        vector, w, coefficient = draw(st.sampled_from(terms))
        terms.append((vector, w, -coefficient))
    raw = []
    for vector, w, coefficient in terms:
        written = draw(st.sampled_from((coefficient, str(coefficient), _Int(coefficient))))
        if not any(vector) and w == aut.weyl.identity and draw(st.booleans()):
            raw.append(written)
            continue
        item = {}
        if coefficient != 1 or draw(st.booleans()):
            item["coeff"] = written
        styles = ("int", "subclass", "tuple") + (("omitted", "null") if not any(vector) else ())
        style = draw(st.sampled_from(styles))
        if style == "int":
            item["vector"] = list(vector)
        elif style == "subclass":
            item["vector"] = [_Int(v) for v in vector]
        elif style == "tuple":
            item["vector"] = tuple(vector)
        elif style == "null":
            item["vector"] = None
        if w != aut.weyl.identity or draw(st.booleans()):
            item["weyl_elem"] = aut.weyl.labels[w]
        raw.append(item)
    if len(raw) == 1 and draw(st.booleans()):
        raw = raw[0]
    return aut, raw, terms


@settings(max_examples=200, deadline=None, derandomize=True)
@given(entries())
def test_decoded_entries_equal_the_checking_constructor(case):
    aut, raw, terms = case
    decoded = _decode_entry(raw, aut)
    assert decoded == GroupRingElement(aut, terms)
    assert decoded.aut is aut
    for vector, w, coefficient in decoded.terms:
        assert type(w) is int and type(coefficient) is int and coefficient != 0
        assert all(type(v) is int for v in vector)


_TERM_AT = "iso_classes[0].chain[1].map[1][1][term 1]"


@pytest.mark.parametrize(
    "term, message",
    [
        ({"coeff": True, "vector": [1, 0]}, f"expected an integer at {_TERM_AT}.coeff, got a boolean."),
        ({"coeff": 1.0, "vector": [1, 0]}, f"expected an integer at {_TERM_AT}.coeff, got float."),
        ({"coeff": 1, "vector": [1.5, 0]}, f"expected an integer at {_TERM_AT}.vector[0], got float."),
        ({"coeff": 1, "vector": [0, "x"]}, f"expected an integer at {_TERM_AT}.vector[1], got 'x'."),
        ({"coeff": 1, "vector": [1]}, f"vector at {_TERM_AT} has length 1; expected 2."),
        ({"coeff": 1, "vector": {"0": 1}}, f"expected an array at {_TERM_AT}.vector, got dict."),
        (
            {"coeff": 1, "vektor": [1, 0]},
            f"unknown field 'vektor' at {_TERM_AT}; allowed fields: ['coeff', 'vector', 'weyl_elem'].",
        ),
        ({"coeff": 1, "weyl_elem": 1}, f"expected a Weyl element label at {_TERM_AT}.weyl_elem."),
        (True, f"expected an integer at {_TERM_AT}, got a boolean."),
        (2.5, f"expected an integer at {_TERM_AT}, got float."),
    ],
    ids=[
        "boolean-coeff",
        "float-coeff",
        "float-coordinate",
        "string-coordinate",
        "wrong-length",
        "vector-object",
        "unknown-key",
        "weyl-not-a-string",
        "boolean-term",
        "float-term",
    ],
)
def test_malformed_terms_are_refused_at_their_term(term, message):
    """Terms outside the inline shapes reach :func:`_decode_term`; the messages are pinned."""
    document = torus_document((2, -1))
    document["iso_classes"][0]["chain"][1]["map"][1][1] = [{"coeff": -1, "vector": [0, -1]}, term]
    with pytest.raises(ValueError) as refusal:
        load_complex(document)
    assert str(refusal.value) == message


def test_equal_entries_of_one_matrix_share_one_element():
    """Entries written alike, bare or as lists, decode to one object; written in
    combined order or not, the element is the checking constructor's."""
    aut = AutGroup.translations(2)
    t = {"coeff": 1, "vector": [1, 0]}
    rows = [[[t, -1], [-1, t], 3], [[t, -1], 3, [{"coeff": -1}, {"vector": (1, 0)}]]]
    matrix = complex_model._decode_group_ring_matrix(rows, aut, 2, 3, "m")
    first, swapped, three, again, three_again, spelled = matrix.entries
    assert again is first and three_again is three
    expected = GroupRingElement(aut, [((1, 0), 0, 1), ((0, 0), 0, -1)])
    assert first == swapped == spelled == expected
    assert first.terms == (((0, 0), 0, -1), ((1, 0), 0, 1))
    assert three == GroupRingElement(aut, [((0, 0), 0, 3)])


def test_int_subclasses_decode_to_plain_ints():
    assert type(_decode_int(_Int(7))) is int
    aut = DECODE_AUTS[1]
    (term,) = _decode_entry({"coeff": _Int(2), "vector": [_Int(1)]}, aut).terms
    assert term == ((1,), 0, 2) and type(term[0][0]) is int and type(term[2]) is int
    assert _decode_entry([1, {"coeff": -1, "weyl_elem": "1"}], aut).is_zero


# -- hashing -----------------------------------------------------------------


def test_group_ring_values_hash_without_hashing_their_group(monkeypatch):
    first, second = (AutGroup(1, FiniteGroup.builtin("Sym:3")) for _ in range(2))
    assert first is not second and first == second

    def refuse(self):
        raise AssertionError("AutGroup hashed")

    monkeypatch.setattr(AutGroup, "__hash__", refuse)
    x = GroupRingElement(first, [((1,), 1, 2), ((0,), 0, -1)])
    y = GroupRingElement._combined(second, [((0,), 0, -1), ((1,), 1, 2)])
    assert x == y and hash(x) == hash(y)
    assert len({x, y, GroupRingElement.zero(first)}) == 2
    m = GroupRingMatrix(first, 1, 1, [x])
    n = GroupRingMatrix(second, 1, 1, [y])
    assert m == n and hash(m) == hash(n)
    kclass = KClass.from_terms([(m, 1), (n, 2)])
    assert [coefficient for _, coefficient in kclass.terms] == [3]
    assert len({m, n, GroupRingMatrix(first, 1, 1, [-x])}) == 2
