"""Free classes (trivial Weyl group) and the loader's one-pass paths.

Each fast path is compared with a reference kept here: the general expansion
over Weyl cosets, the chain identities compared as built product matrices,
and the checking :class:`GroupRingElement` constructor.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlef import complex_model
from eqlef.complex_model import _decode_entry, _decode_int, load_builtin, load_complex
from eqlef.corpus import BUILTIN_COMPLEXES
from eqlef.equivariant_groups import AutGroup, FiniteGroup, GroupRingElement, GroupRingMatrix
from eqlef.exact_algebra import IntMatrix
from eqlef.invariants import KClass, induce
from eqlef.realize import RealizationTarget, realize

from test_torus import torus_document

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
                assert expanded.aut is pi1
                assert all(e.aut is pi1 for e in expanded.entries)
                assert all(e.terms is m.terms for e, m in zip(expanded.entries, module.entries))


def test_free_classes_cover_a_weyl_identity_not_labelled_one():
    (iso,) = FREE_DOCUMENTS["induced:Sym:3:torus"]().classes
    assert iso.aut.weyl.labels == ("012",)
    assert iso.ladder[0][2].aut is iso.pi1_aut() is not iso.aut


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
    assert complex_model._products_cancel((twisted, map_below, 1), (map_here, boundary, -1))
    assert not complex_model._products_cancel((twisted, map_below, 1), (map_here, boundary, 1))

    (square,) = load_complex(torus_document((2, 3))).classes
    top, below = square.ladder[2][3], square.ladder[1][3]
    assert not top.is_zero and not below.is_zero
    assert complex_model._products_cancel((top, below, 1))
    zero = GroupRingElement.zero(below.aut)
    one_face = GroupRingMatrix(below.aut, 2, 1, [below.entry(0, 0), zero])
    assert not complex_model._products_cancel((top, one_face, 1))


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
    """(aut, raw entry, terms) with repeated keys and coefficients that cancel."""
    aut = draw(st.sampled_from(DECODE_AUTS))
    term = st.tuples(
        st.lists(st.integers(-1, 1), min_size=aut.pi1_rank, max_size=aut.pi1_rank),
        st.integers(0, aut.weyl.order - 1),
        st.integers(-3, 3),
    )
    terms = draw(st.lists(term, max_size=8))
    if terms and draw(st.booleans()):
        vector, w, coefficient = draw(st.sampled_from(terms))
        terms.append((vector, w, -coefficient))
    raw = []
    for vector, w, coefficient in terms:
        written = draw(st.sampled_from((coefficient, str(coefficient), _Int(coefficient))))
        if not any(vector) and w == aut.weyl.identity and draw(st.booleans()):
            raw.append(written)
            continue
        item = {"coeff": written, "vector": [_Int(v) for v in vector]}
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
    y = GroupRingElement._from_sums(second, {((0,), 0): -1, ((1,), 1): 2})
    assert x == y and hash(x) == hash(y)
    assert len({x, y, GroupRingElement.zero(first)}) == 2
    m = GroupRingMatrix(first, 1, 1, [x])
    n = GroupRingMatrix(second, 1, 1, [y])
    assert m == n and hash(m) == hash(n)
    kclass = KClass.from_terms([(m, 1), (n, 2)])
    assert [coefficient for _, coefficient in kclass.terms] == [3]
    assert len({m, n, GroupRingMatrix(first, 1, 1, [-x])}) == 2
