"""Document loading, validation diagnostics, and canonical serialization."""

import copy
import json
import random
import sys
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlef.complex_model import (
    load_builtin,
    load_complex,
    serialize_complex,
)
from eqlef.corpus import BUILTIN_COMPLEXES
from eqlef.equivariant_groups import FiniteGroup, GroupRingElement, Subgroup
from eqlef.exact_algebra import IntMatrix
from eqlef.invariants import build_report, induce, render_report
from eqlef.realize import RealizationTarget, realize

from test_equivariant_groups import count_products, sym5_permutation_action
from test_torus import torus_document


def minimal_document():
    """A small valid document over the trivial group, deep-copyable."""
    return {
        "format_version": 1,
        "group": {"builtin": "trivial"},
        "name": "minimal",
        "iso_classes": [
            {
                "subgroup_class": ["1"],
                "component": "c",
                "pi1_rank": 0,
                "phi_pi": [],
                "chain": [
                    {"degree": 0, "rank": 1, "relative_mask": [False], "map": [[1]]},
                    {
                        "degree": 1,
                        "rank": 1,
                        "relative_mask": [False],
                        "map": [[1]],
                        "boundary": [[0]],
                    },
                ],
            }
        ],
    }


def z2_masked_document():
    """A ℤ₂ document with a masked singular part and one free class."""
    return {
        "format_version": 1,
        "group": {"builtin": "Z2"},
        "iso_classes": [
            {
                "subgroup_class": ["1"],
                "component": "free",
                "pi1_rank": 0,
                "phi_pi": [],
                "chain": [
                    {
                        "degree": 0,
                        "rank": 2,
                        "relative_mask": [True, True],
                        "stabilizers": [["1", "g"], ["1", "g"]],
                        "map": [[1, 0], [0, 1]],
                    },
                    {
                        "degree": 1,
                        "rank": 1,
                        "relative_mask": [False],
                        "map": [[1]],
                        "boundary": [[1, -1]],
                    },
                ],
            }
        ],
        "fixed_points": [],
    }


# ---------------------------------------------------------------------------
# builtins


def test_builtin_shapes():
    c1 = load_builtin("example1")
    assert c1.group.order == 2
    assert [iso.component for iso in c1.classes] == ["sphere", "circle"]
    assert [tuple(d.rank for d in iso.degrees) for iso in c1.classes] == [
        (2, 2, 1),
        (2, 2),
    ]
    assert len(c1.fixed_points) == 2

    c2 = load_builtin("example2")
    assert [tuple(d.rank for d in iso.degrees) for iso in c2.classes] == [
        (2, 2, 2, 1),
        (2, 2, 2),
    ]
    assert len(c2.fixed_points) == 2

    c3 = load_builtin("example3")
    assert c3.group.order == 4
    assert [iso.component for iso in c3.classes] == [
        "sphere",
        "circle-h",
        "circle-g",
        "pole-a",
        "pole-b",
    ]
    assert [iso.subgroup.member_labels for iso in c3.classes] == [
        ("1",),
        ("1", "h"),
        ("1", "g"),
        ("1", "g", "h", "gh"),
        ("1", "g", "h", "gh"),
    ]
    assert len(c3.fixed_points) == 5


def test_builtin_unknown_name():
    with pytest.raises(ValueError, match="unknown builtin"):
        load_builtin("example9")


def test_builtin_masks_and_stabilizers():
    c3 = load_builtin("example3")
    sphere = c3.classes[0]
    assert sphere.degrees[0].unmasked_indices == ()
    assert sphere.degrees[2].unmasked_indices == (0,)
    # degree-1 basis elements are stabilized by distinct reflections
    assert sphere.degrees[1].stabilizers[0] != sphere.degrees[1].stabilizers[1]


def test_fixed_points_for():
    c2 = load_builtin("example2")
    free = c2.classes[0]
    points = c2.fixed_points_for(free)
    assert len(points) == 2
    assert all(p.index == 1 for p in points)
    assert c2.fixed_points_for(c2.classes[1]) == ()


# ---------------------------------------------------------------------------
# serialization


def test_serialize_round_trip_is_canonical():
    for name in ("example1", "example2", "example3"):
        c = load_builtin(name)
        document = serialize_complex(c)
        json.dumps(document)  # JSON-safe
        reloaded = load_complex(document)
        assert serialize_complex(reloaded) == document


def test_serialize_preserves_builtin_group_spec():
    document = serialize_complex(load_builtin("example1"))
    assert document["group"] == {"builtin": "Z2"}


def test_a_loaded_complex_keeps_nothing_of_its_document():
    document = minimal_document()
    loaded = load_complex(document)
    emitted = serialize_complex(loaded)
    document["group"]["builtin"] = "Z2"
    assert serialize_complex(loaded) == emitted


def test_round_trip_of_oversize_integers():
    document = minimal_document()
    big = 2**80
    document["iso_classes"][0]["chain"][0]["map"] = [[str(big)]]
    loaded = load_complex(document)
    entry = loaded.classes[0].degrees[0].chain_map.entry(0, 0)
    assert entry.augmentation() == big
    emitted = serialize_complex(loaded)
    assert emitted["iso_classes"][0]["chain"][0]["map"][0][0] == str(big)
    json.dumps(emitted)


def test_integer_strings_take_a_sign_and_ascii_digits():
    document = minimal_document()
    document["iso_classes"][0]["chain"][0]["map"] = [[" -7 "]]
    entry = load_complex(document).classes[0].degrees[0].chain_map.entry(0, 0)
    assert entry.augmentation() == -7
    for loose in ("1_0", "٣", "+-1", "0x10", ""):
        document["iso_classes"][0]["chain"][0]["map"] = [[loose]]
        with pytest.raises(ValueError, match="expected an integer at"):
            load_complex(document)


def test_empty_complex_loads():
    c = load_complex({"format_version": 1, "group": {"builtin": "trivial"}, "iso_classes": []})
    assert c.classes == ()
    assert c.fixed_points == ()


# ---------------------------------------------------------------------------
# validation diagnostics


def test_rejects_unknown_fields():
    document = minimal_document()
    document["extra"] = 1
    with pytest.raises(ValueError, match="unknown field 'extra'"):
        load_complex(document)
    document = minimal_document()
    document["iso_classes"][0]["surprise"] = True
    with pytest.raises(ValueError, match="unknown field 'surprise'"):
        load_complex(document)


def test_rejects_wrong_format_version():
    document = minimal_document()
    document["format_version"] = 2
    with pytest.raises(ValueError, match="unsupported format_version"):
        load_complex(document)


def test_rejects_noncanonical_subgroup_representative():
    document = {
        "format_version": 1,
        "group": {"builtin": "Z2xZ2"},
        "iso_classes": [
            {
                # {1, h} is a valid subgroup but the canonical class
                # representative with the same order is {1, g}; only exact
                # canonical representatives are legal, and {1, h} *is*
                # canonical for its own class, so use a genuinely
                # non-canonical conjugate in Sym:3 instead below.
                "subgroup_class": ["1", "h"],
                "component": "c",
                "pi1_rank": 0,
                "phi_pi": [],
                "chain": [
                    {"degree": 0, "rank": 1, "relative_mask": [False], "map": [[1]]}
                ],
            }
        ],
    }
    load_complex(document)  # {1, h} is its own class representative: fine

    sym3_doc = {
        "format_version": 1,
        "group": {"builtin": "Sym:3"},
        "iso_classes": [
            {
                # "210" (swap outer letters) generates an order-2 subgroup
                # conjugate to, but distinct from, the canonical "021" one.
                "subgroup_class": ["012", "210"],
                "component": "c",
                "pi1_rank": 0,
                "phi_pi": [],
                "chain": [
                    {"degree": 0, "rank": 1, "relative_mask": [False], "map": [[1]]}
                ],
            }
        ],
    }
    with pytest.raises(ValueError, match="not the .*representative"):
        load_complex(sym3_doc)


def test_rejects_duplicate_class_key():
    document = minimal_document()
    document["iso_classes"].append(copy.deepcopy(document["iso_classes"][0]))
    with pytest.raises(ValueError, match="duplicate isotropy class"):
        load_complex(document)


def test_rejects_unmasked_with_nontrivial_stabilizer():
    document = z2_masked_document()
    degree1 = document["iso_classes"][0]["chain"][1]
    degree1["stabilizers"] = [["1", "g"]]
    with pytest.raises(ValueError, match="unmasked but has a nontrivial"):
        load_complex(document)


def test_rejects_boundary_composition_failure():
    document = minimal_document()
    document["iso_classes"][0]["chain"].append(
        {
            "degree": 2,
            "rank": 1,
            "relative_mask": [False],
            "map": [[1]],
            "boundary": [[1]],
        }
    )
    document["iso_classes"][0]["chain"][1]["boundary"] = [[1]]
    with pytest.raises(
        ValueError, match="boundary composition is nonzero between degrees 2 and 1"
    ):
        load_complex(document)


def test_rejects_chain_map_boundary_square_failure():
    document = minimal_document()
    document["iso_classes"][0]["chain"][1]["boundary"] = [[1]]
    document["iso_classes"][0]["chain"][1]["map"] = [[2]]
    with pytest.raises(
        ValueError, match="chain map does not commute with the boundary at degree 1"
    ):
        load_complex(document)


def test_rejects_orbit_index_mismatch():
    document = {
        "format_version": 1,
        "group": {"builtin": "trivial"},
        "iso_classes": [
            {
                "subgroup_class": ["1"],
                "component": "c",
                "pi1_rank": 0,
                "phi_pi": [],
                "chain": [
                    {
                        "degree": 0,
                        "rank": 2,
                        "relative_mask": [False, False],
                        "map": [[1, 0], [0, 1]],
                    }
                ],
            }
        ],
        "fixed_points": [
            {"subgroup_class": ["1"], "component": "c", "orbit": "poles", "index": 1, "path": []},
            {"subgroup_class": ["1"], "component": "c", "orbit": "poles", "index": 3, "path": []},
        ],
    }
    with pytest.raises(
        ValueError,
        match="fixed point indices must be constant on each orbit",
    ):
        load_complex(document)


def test_rejects_fixed_point_on_missing_class():
    document = minimal_document()
    document["fixed_points"] = [
        {"subgroup_class": ["1"], "component": "other", "index": 1, "path": []}
    ]
    with pytest.raises(ValueError, match="missing isotropy class"):
        load_complex(document)


def test_rejects_fixed_point_path_length_mismatch():
    document = minimal_document()
    document["fixed_points"] = [
        {"subgroup_class": ["1"], "component": "c", "index": 1, "path": [2]}
    ]
    with pytest.raises(ValueError, match="path at .* has length 1"):
        load_complex(document)


def test_rejects_entry_vector_length_mismatch():
    document = minimal_document()
    document["iso_classes"][0]["chain"][0]["map"] = [
        [{"coeff": 1, "vector": [2]}]
    ]
    with pytest.raises(ValueError, match="vector at .* has length 1"):
        load_complex(document)


def test_rejects_unknown_weyl_label_in_action():
    document = minimal_document()
    document["iso_classes"][0]["pi1_rank"] = 1
    document["iso_classes"][0]["phi_pi"] = [[1]]
    document["iso_classes"][0]["action"] = {"g": [[-1]]}
    with pytest.raises(ValueError, match="not a Weyl element"):
        load_complex(document)


def sym3_weyl_document(weyl):
    """Sym:3 over its trivial subgroup, with ``weyl`` as the Weyl subgroup."""
    return {
        "format_version": 1,
        "group": {"builtin": "Sym:3"},
        "iso_classes": [
            {
                "subgroup_class": ["012"],
                "component": "c",
                "pi1_rank": 0,
                "weyl": weyl,
                "phi_pi": [],
                "chain": [],
            }
        ],
    }


def test_rejects_weyl_that_is_not_a_subgroup():
    with pytest.raises(ValueError) as error:
        load_complex(sym3_weyl_document(["012", "120"]))
    assert str(error.value) == (
        "weyl at iso_classes[0]: subgroup is not closed under multiplication at ('120', '120')."
    )
    assert load_complex(sym3_weyl_document(["012", "120", "201"])).classes[0].aut.weyl.order == 3


ORBIT_SIZE_REFUSAL = (
    "iso_classes[0].orbit_size must be 1, the index [W_G(K) : W_c] = 2/2 of the "
    "class's weyl in its Weyl group."
)


def example2_with_orbit_size(orbit_size):
    document = copy.deepcopy(BUILTIN_COMPLEXES["example2"])
    document["iso_classes"][0]["orbit_size"] = orbit_size
    return document


def test_orbit_size_is_the_index_of_weyl_in_the_weyl_group():
    # a component stabilizer W_c of order 3 in W = Sym:3 has an orbit of 2 components
    loaded = load_complex(sym3_weyl_document(["012", "120", "201"]))
    assert loaded.classes[0].orbit_size == 2
    document = sym3_weyl_document(["012", "120", "201"])
    document["iso_classes"][0]["orbit_size"] = 2
    assert load_complex(document) == loaded
    assert [iso.orbit_size for iso in load_builtin("example2").classes] == [1, 1]
    assert load_complex(example2_with_orbit_size(1)) == load_builtin("example2")


@pytest.mark.parametrize("orbit_size", [5, 2, "5"])
def test_rejects_an_orbit_size_that_is_not_the_weyl_index(orbit_size):
    with pytest.raises(ValueError) as error:
        load_complex(example2_with_orbit_size(orbit_size))
    assert str(error.value) == ORBIT_SIZE_REFUSAL


def zn4_stabilizer_document(stabilizer):
    """Zn:4 over its trivial subgroup, one masked cell with ``stabilizer`` as its stabilizer."""
    return {
        "format_version": 1,
        "group": {"builtin": "Zn:4"},
        "iso_classes": [
            {
                "subgroup_class": ["1"],
                "component": "c",
                "pi1_rank": 0,
                "phi_pi": [],
                "chain": [
                    {
                        "degree": 0,
                        "rank": 1,
                        "relative_mask": [True],
                        "stabilizers": [stabilizer],
                        "map": [[0]],
                    }
                ],
            }
        ],
    }


STABILIZER_REFUSALS = [
    (
        ["1", "r1"],
        "stabilizer at iso_classes[0].chain[0].stabilizers[0]: subgroup is not closed "
        "under multiplication at ('r1', 'r1').",
    ),
    (
        ["r2"],
        "stabilizer at iso_classes[0].chain[0].stabilizers[0]: subgroup does not "
        "contain the identity element.",
    ),
]


@pytest.mark.parametrize("stabilizer, message", STABILIZER_REFUSALS)
def test_rejects_stabilizer_that_is_not_a_subgroup(stabilizer, message):
    with pytest.raises(ValueError) as error:
        load_complex(zn4_stabilizer_document(stabilizer))
    assert str(error.value) == message
    assert load_complex(zn4_stabilizer_document(["1", "r2"])).classes[0].degrees[0].stabilizers == (
        (0, 2),
    )


def zn4_stabilizers_document(stabilizers):
    """zn4_stabilizer_document with one masked cell per entry of ``stabilizers``."""
    document = zn4_stabilizer_document(None)
    rank = len(stabilizers)
    document["iso_classes"][0]["chain"][0].update(
        rank=rank,
        relative_mask=[True] * rank,
        stabilizers=stabilizers,
        map=[[0] * rank for _ in range(rank)],
    )
    return document


REPEATED_STABILIZER_REFUSALS = [
    # (stabilizers, the refusal): a set that fails is named at its first cell
    (
        [["1", "r1"], ["r1", "1"], ["1", "r1", "r1"]],
        "stabilizer at iso_classes[0].chain[0].stabilizers[0]: subgroup is not closed "
        "under multiplication at ('r1', 'r1').",
    ),
    (
        [["1", "r2"], ["r2", "1"], ["r2"], ["1"], ["r2"]],
        "stabilizer at iso_classes[0].chain[0].stabilizers[2]: subgroup does not "
        "contain the identity element.",
    ),
]


@pytest.mark.parametrize("stabilizers, message", REPEATED_STABILIZER_REFUSALS)
def test_repeated_bad_stabilizer_is_refused_at_its_first_cell(stabilizers, message):
    with pytest.raises(ValueError) as error:
        load_complex(zn4_stabilizers_document(stabilizers))
    assert str(error.value) == message


def test_each_distinct_stabilizer_is_checked_once_per_degree(monkeypatch):
    checked = []
    subgroup_init = Subgroup.__init__

    def counting_init(self, parent, members):
        members = tuple(members)
        checked.append(members)
        subgroup_init(self, parent, members)

    monkeypatch.setattr(Subgroup, "__init__", counting_init)
    stabilizers = [["1", "r2"], ["r2", "1"], ["1"], ["1", "r2", "r2"], ["1"]]
    (iso,) = load_complex(zn4_stabilizers_document(stabilizers)).classes
    assert iso.degrees[0].stabilizers == ((0, 2), (0, 2), (0,), (0, 2), (0,))
    # the class's subgroup {1}; each distinct stabilizer once when the degree
    # loads, and once more when the invariance check looks for its generators
    assert checked == [(0,), (0, 2), (0,), (0, 2), (0,)]


def sym5_translation_document(rank, action=None):
    """Sym:5 over its trivial subgroup, translation rank ``rank``, φ_π = I and no chain."""
    iso = {
        "subgroup_class": ["01234"],
        "component": "c",
        "pi1_rank": rank,
        "phi_pi": [[int(i == j) for j in range(rank)] for i in range(rank)],
        "chain": [],
    }
    if action is not None:
        iso["action"] = action
    return {"format_version": 1, "group": {"builtin": "Sym:5"}, "iso_classes": [iso]}


@pytest.mark.parametrize("action", [None, {}])
def test_default_action_loads_with_generator_many_products(monkeypatch, action):
    calls = count_products(monkeypatch)
    loaded = load_complex(sym5_translation_document(64, action))
    assert loaded.classes[0].aut.weyl.order == 120
    assert len(calls) == 2 * 4  # φ_π·θ(s) and θ(s)·φ_π for the 4 generators; no θ product


def test_explicit_action_loads_with_generator_many_products(monkeypatch):
    sym5, action = sym5_permutation_action()
    document = sym5_translation_document(
        5, {label: matrix.to_rows() for label, matrix in zip(sym5.labels, action)}
    )
    calls = count_products(monkeypatch)
    assert load_complex(document).classes[0].aut.action == tuple(action)
    assert len(calls) == 4 * 120 + 2 * 4  # θ on generators times the group, then φ_π


def test_rejects_degenerate_degree_order():
    document = minimal_document()
    document["iso_classes"][0]["chain"][1]["degree"] = 0
    # without a degree jump the boundary has no target; drop it so the
    # entry parses and the ordering rule itself is what fires
    document["iso_classes"][0]["chain"][1].pop("boundary")
    with pytest.raises(ValueError, match="strictly increasing"):
        load_complex(document)


def test_rejects_rank_past_the_matrix_order_limit():
    document = minimal_document()
    document["iso_classes"][0]["chain"][0] = {"degree": 0, "rank": 65}  # no map is read
    with pytest.raises(ValueError, match=r"chain\[0\] is 65; .*MAX_MATRIX_ORDER = 64"):
        load_complex(document)



@pytest.mark.parametrize("rank", [200, 10**6])
def test_rejects_pi1_rank_past_the_matrix_order_limit(rank):
    document = minimal_document()
    document["iso_classes"][0]["pi1_rank"] = rank  # phi_pi stays empty
    start = time.perf_counter()
    with pytest.raises(ValueError) as error:
        load_complex(document)
    assert time.perf_counter() - start < 1.0  # refused before any action matrix is built
    assert str(error.value) == (
        f"pi1_rank at iso_classes[0] is {rank}; translation ranks are limited to "
        "MAX_MATRIX_ORDER = 64."
    )

def sym5_free_document(rank):
    """One free degree of ``rank`` rows over Sym:5: trivial subgroup, full Weyl group.

    Each row expands to 120 rows; every map entry is the sum of all 120
    Weyl elements.
    """
    weyl_sum = [{"weyl_elem": label} for label in FiniteGroup.builtin("Sym:5").labels]
    return {
        "format_version": 1,
        "group": {"builtin": "Sym:5"},
        "iso_classes": [
            {
                "subgroup_class": ["01234"],
                "component": "c",
                "pi1_rank": 0,
                "phi_pi": [],
                "chain": [{"degree": 0, "rank": rank, "map": [[weyl_sum] * rank] * rank}],
            }
        ],
    }


def test_rejects_expanded_rank_past_the_matrix_order_limit():
    document = sym5_free_document(4)
    start = time.perf_counter()
    with pytest.raises(ValueError) as error:
        load_complex(document)
    assert time.perf_counter() - start < 1.0  # refused before any matrix is read
    assert str(error.value) == (
        "chain entry at iso_classes[0].chain[0] expands over the Weyl cosets of its "
        "stabilizers to rank 480; expanded ranks are limited to MAX_MATRIX_ORDER = 64."
    )


def test_expanded_rank_at_the_matrix_order_limit_loads():
    document = minimal_document()
    document["group"] = {"builtin": "Z2"}
    document["iso_classes"][0]["chain"] = [
        {"degree": 0, "rank": 32, "map": [[int(i == j) for j in range(32)] for i in range(32)]}
    ]
    loaded = load_complex(document)
    assert len(loaded.classes[0].degrees[0].expanded_basis) == 64
    assert build_report(loaded)["classes"][0]["lefschetz"] == 64


def test_rejects_boolean_masquerading_as_integer():
    document = minimal_document()
    document["iso_classes"][0]["chain"][0]["map"] = [[True]]
    with pytest.raises(ValueError, match="got a boolean"):
        load_complex(document)


# Each case below is z2_masked_document with the masks, stabilizers, map and
# boundary of its two degrees replaced.
FREE_CLASS = "(subgroup {1}, component 'free')"
NOT_PRESERVED = (
    f"map row 0 in degree 0 of {FREE_CLASS} sends a masked basis element to an "
    "unmasked one; the singular part must be preserved."
)
NOT_A_SUBCOMPLEX = (
    f"boundary row 0 in degree 1 of {FREE_CLASS} sends a masked basis element to an "
    "unmasked one; the singular part must be a subcomplex."
)
MAP_NOT_INVARIANT = (
    f"map row 0 in degree 0 of {FREE_CLASS} is not invariant under its stabilizer; "
    "the module structure is inconsistent."
)
BOUNDARY_NOT_INVARIANT = (
    f"boundary row 0 in degree 1 of {FREE_CLASS} is not invariant under its "
    "stabilizer; the module structure is inconsistent."
)
FIXED_BY_G = [["1", "g"], ["1"]]
FREE = [["1"], ["1"]]
MODULE_STRUCTURE_REFUSALS = {
    # name: (degree 0: mask, stabilizers, map; degree 1: mask, stabilizers, boundary; message)
    "map leaves the mask": (
        [True, False], FREE, [[1, 1], [0, 1]], [False], [["1"]], [[1, -1]], NOT_PRESERVED
    ),
    "boundary leaves the mask": (
        [True, False], FIXED_BY_G, [[1, 0], [0, 1]], [True], [["1"]], [[0, 1]],
        NOT_A_SUBCOMPLEX,
    ),
    "map row not invariant": (
        [True, True], FIXED_BY_G, [[1, 1], [0, 1]], [False], [["1"]], [[1, -1]],
        MAP_NOT_INVARIANT,
    ),
    "boundary row not invariant": (
        [True, True], FIXED_BY_G, [[1, 0], [0, 1]], [True], [["1", "g"]], [[0, 1]],
        BOUNDARY_NOT_INVARIANT,
    ),
    # one entry breaking both rules, and a mask broken below an invariance
    # failure: invariance is reported first, over the whole class
    "both rules, one entry": (
        [True, False], FIXED_BY_G, [[1, 1], [0, 1]], [False], [["1"]], [[1, -1]],
        MAP_NOT_INVARIANT,
    ),
    "mask below, invariance above": (
        [True, False], FREE, [[1, 1], [0, 1]], [True], [["1", "g"]], [[1, 0]],
        BOUNDARY_NOT_INVARIANT,
    ),
}


@pytest.mark.parametrize("name", list(MODULE_STRUCTURE_REFUSALS))
def test_module_structure_refusal_message_is_pinned(name):
    mask0, stabilizers0, chain_map, mask1, stabilizers1, boundary, message = (
        MODULE_STRUCTURE_REFUSALS[name]
    )
    document = z2_masked_document()
    degree0, degree1 = document["iso_classes"][0]["chain"]
    degree0.update(relative_mask=mask0, stabilizers=stabilizers0, map=chain_map)
    degree1.update(relative_mask=mask1, stabilizers=stabilizers1, boundary=boundary)
    with pytest.raises(ValueError) as info:
        load_complex(document)
    assert str(info.value) == message


def sym5_stabilized_document(rank=64, seed=1):
    """One degree over Sym:5, every cell masked and fixed by all of W, map entries in −3..3."""
    rng = random.Random(seed)
    labels = list(FiniteGroup.builtin("Sym:5").labels)
    degree = {
        "degree": 0,
        "rank": rank,
        "relative_mask": [True] * rank,
        "stabilizers": [labels] * rank,
        "map": [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)],
    }
    iso = {"subgroup_class": ["01234"], "component": "c", "pi1_rank": 0, "phi_pi": []}
    iso["chain"] = [degree]
    return {"format_version": 1, "group": {"builtin": "Sym:5"}, "iso_classes": [iso]}


def test_row_invariance_is_checked_on_stabilizer_generators(monkeypatch):
    restrictions = []
    restricted_to = FiniteGroup.restricted_to
    monkeypatch.setattr(
        FiniteGroup,
        "restricted_to",
        lambda group, members: restrictions.append(members) or restricted_to(group, members),
    )

    def no_product(*_):
        raise AssertionError("loading built a group-ring product or basis element")

    monkeypatch.setattr(GroupRingElement, "__mul__", no_product)
    monkeypatch.setattr(GroupRingElement, "basis", no_product)
    (iso,) = load_complex(sym5_stabilized_document()).classes
    assert restrictions == [tuple(range(120))]  # once for the one distinct stabilizer
    assert len(iso.degrees[0].expanded_basis) == 64


# ---------------------------------------------------------------------------
# pinned decoding diagnostics


def z2_table_document():
    """A ℤ₂ document with an explicit table, a rank-1 π₁, a boundary and a fixed point."""
    return {
        "format_version": 1,
        "group": {"labels": ["1", "g"], "table": [[0, 1], [1, 0]]},
        "iso_classes": [
            {
                "subgroup_class": ["1"],
                "component": "c",
                "pi1_rank": 1,
                "action": {"g": [[-1]]},
                "phi_pi": [[1]],
                "chain": [
                    {"degree": 0, "rank": 2, "map": [[1, 0], [0, 1]]},
                    {"degree": 1, "rank": 1, "map": [[1]], "boundary": [[0, 0]]},
                ],
            }
        ],
        "fixed_points": [{"subgroup_class": ["1"], "component": "c", "index": 1, "path": [0]}],
    }


DELETED = object()
CLASS = ("iso_classes", 0)
DEGREE0 = (*CLASS, "chain", 0)
AT_DEGREE0 = "iso_classes[0].chain[0]"
MAP = (*DEGREE0, "map")
AT_MAP = f"{AT_DEGREE0}.map"
AT_ENTRY = f"{AT_MAP}[1][0]"
MALFORMED = [
    # (keys of the replaced value, bad value or DELETED, exact message)
    ((*MAP, 1, 0), True, f"expected an integer at {AT_ENTRY}[term 0], got a boolean."),
    ((*MAP, 1, 0), "x", f"expected an integer at {AT_ENTRY}[term 0], got 'x'."),
    ((*MAP, 1, 0), 1.5, f"expected an integer at {AT_ENTRY}[term 0], got float."),
    ((*MAP, 1, 0), [[1]], f"expected an integer at {AT_ENTRY}[term 0], got list."),
    (
        (*MAP, 1, 0),
        [1, {"coeff": True}],
        f"expected an integer at {AT_ENTRY}[term 1].coeff, got a boolean.",
    ),
    (
        (*MAP, 1, 0),
        {"coef": 1},
        f"unknown field 'coef' at {AT_ENTRY}[term 0]; "
        "allowed fields: ['coeff', 'vector', 'weyl_elem'].",
    ),
    (
        (*MAP, 1, 0),
        {"coeff": 1, "vector": [1, 2]},
        f"vector at {AT_ENTRY}[term 0] has length 2; expected 1.",
    ),
    (
        (*MAP, 1, 0),
        {"vector": 3},
        f"expected an array at {AT_ENTRY}[term 0].vector, got int.",
    ),
    (
        (*MAP, 1, 0),
        [0, {"coeff": 2, "vector": ["x"]}],
        f"expected an integer at {AT_ENTRY}[term 1].vector[0], got 'x'.",
    ),
    (
        (*MAP, 1, 0),
        {"weyl_elem": 1},
        f"expected a Weyl element label at {AT_ENTRY}[term 0].weyl_elem.",
    ),
    (
        (*MAP, 1, 0),
        {"weyl_elem": "q"},
        "unknown group element label 'q'; known labels: ['1', 'g'].",
    ),
    ((*MAP, 1), [0], f"expected 2 entries in row 1 at {AT_MAP}, got 1."),
    ((*MAP, 1), 5, f"expected an array at {AT_MAP}[1], got int."),
    (MAP, [[1, 0]], f"expected 2 rows at {AT_MAP}, got 1."),
    (MAP, 5, f"expected an array at {AT_MAP}, got int."),
    (
        ("iso_classes", 0, "chain", 1, "boundary", 0, 1),
        "x",
        "expected an integer at iso_classes[0].chain[1].boundary[0][1][term 0], got 'x'.",
    ),
    (
        ("iso_classes", 0, "phi_pi", 0, 0),
        False,
        "expected an integer at iso_classes[0].phi_pi[0][0], got a boolean.",
    ),
    (
        ("iso_classes", 0, "action", "g", 0, 0),
        "-x",
        "expected an integer at iso_classes[0].action['g'][0][0], got '-x'.",
    ),
    (("group", "table", 1, 0), True, "expected an integer at group.table[1][0], got a boolean."),
    (("group", "table", 1, 0), "one", "expected an integer at group.table[1][0], got 'one'."),
    (("group", "table", 1), 7, "expected an array at group.table[1], got int."),
    ((*DEGREE0, "degree"), DELETED, f"chain entry at {AT_DEGREE0} needs 'degree' and 'rank'."),
    ((*DEGREE0, "rank"), DELETED, f"chain entry at {AT_DEGREE0} needs 'degree' and 'rank'."),
    ((*DEGREE0, "degree"), -1, f"chain degree must be nonnegative at {AT_DEGREE0}, got -1."),
    ((*DEGREE0, "rank"), -1, f"chain rank must be nonnegative at {AT_DEGREE0}, got -1."),
    (
        (*DEGREE0, "relative_mask"),
        [False],
        f"relative_mask at {AT_DEGREE0} has length 1; expected 2.",
    ),
    (
        (*DEGREE0, "relative_mask"),
        [False, 0],
        f"relative_mask[1] at {AT_DEGREE0} must be true or false.",
    ),
    ((*DEGREE0, "stabilizers"), [["1"]], f"stabilizers at {AT_DEGREE0} has length 1; expected 2."),
    ((*DEGREE0, "map"), DELETED, f"chain entry at {AT_DEGREE0} needs a 'map' matrix."),
    ((*CLASS, "phi_pi"), DELETED, "isotropy class at iso_classes[0] needs 'phi_pi'."),
    ((*CLASS, "weyl"), ["g"], "weyl at iso_classes[0] must contain the identity coset '1'."),
    ((*CLASS, "pi1_rank"), -1, "pi1_rank at iso_classes[0] must be nonnegative, got -1."),
    ((*CLASS, "orbit_size"), 0, "orbit_size at iso_classes[0] must be positive, got 0."),
    (("fixed_points", 0, "index"), DELETED, "fixed point at fixed_points[0] needs 'index'."),
    (("fixed_points", 0, "orbit"), 3, "orbit at fixed_points[0] must be a string name."),
    (("format_version",), DELETED, "document needs 'format_version'."),
    (("group",), DELETED, "document needs 'group'."),
    (("iso_classes",), DELETED, "document needs 'iso_classes' (possibly empty)."),
    (("name",), 5, "name must be a string."),
    (("description",), ["d"], "description must be a string."),
    (("group",), {"builtin": 2}, "group.builtin must be a string name."),
    (("group", "labels"), [True, False], "expected a string at group.labels[0], got bool."),
    (("group", "labels", 1), 1, "expected a string at group.labels[1], got int."),
    ((*CLASS, "component"), None, "expected a string at iso_classes[0].component, got NoneType."),
    (
        (*CLASS, "subgroup_class", 0),
        1,
        "expected a string at iso_classes[0].subgroup_class[0], got int.",
    ),
    ((*CLASS, "weyl"), ["1", None], "expected a string at iso_classes[0].weyl[1], got NoneType."),
    (
        (*DEGREE0, "stabilizers"),
        [["1"], [1]],
        f"expected a string at {AT_DEGREE0}.stabilizers[1][0], got int.",
    ),
    (
        ("fixed_points", 0, "component"),
        None,
        "expected a string at fixed_points[0].component, got NoneType.",
    ),
    (
        ("fixed_points", 0, "subgroup_class"),
        [1.0],
        "expected a string at fixed_points[0].subgroup_class[0], got float.",
    ),
    (
        ("group",),
        {"labels": ["1", "g"]},
        "group must give either 'builtin' or both 'labels' and 'table'.",
    ),
]
if hasattr(sys, "get_int_max_str_digits"):
    MALFORMED.append(
        (
            (*MAP, 1, 0),
            "9" * 5000,
            f"integer at {AT_ENTRY}[term 0] has 5000 digits, more than "
            f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}.",
        )
    )


@pytest.mark.parametrize(
    "path, value, message", MALFORMED, ids=[message for *_, message in MALFORMED]
)
def test_malformed_value_message_is_pinned(path, value, message):
    document = z2_table_document()
    load_complex(copy.deepcopy(document))  # the unmodified document is valid
    *keys, last = path
    container = document
    for key in keys:
        container = container[key]
    if value is DELETED:
        del container[last]
    else:
        container[last] = value
    with pytest.raises(ValueError) as info:
        load_complex(document)
    assert str(info.value) == message


def wide_row_document(n):
    """One degree of rank ``n`` over the translations of ℤ, every map entry two terms."""
    chain_map = [[[{"coeff": 2, "vector": [i - j]}, 1] for i in range(n)] for j in range(n)]
    iso = {"subgroup_class": ["1"], "component": "c", "pi1_rank": 1, "phi_pi": [[1]]}
    iso["chain"] = [{"degree": 0, "rank": n, "map": chain_map}]
    return {"format_version": 1, "group": {"builtin": "trivial"}, "iso_classes": [iso]}


LATE_TERMS = [
    # (bad second term of an entry, its message with the term's location as {at})
    (True, "expected an integer at {at}, got a boolean."),
    ("x", "expected an integer at {at}, got 'x'."),
    ({"coeff": 1.5}, "expected an integer at {at}.coeff, got float."),
    ({"coef": 1}, "unknown field 'coef' at {at}; allowed fields: ['coeff', 'vector', 'weyl_elem']."),
    ({"vector": [1, 2]}, "vector at {at} has length 2; expected 1."),
    ({"vector": [False]}, "expected an integer at {at}.vector[0], got a boolean."),
    ({"weyl_elem": 0}, "expected a Weyl element label at {at}.weyl_elem."),
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(n // 2, n - 1))
    ),
    st.sampled_from(LATE_TERMS),
)
def test_malformed_entry_late_in_a_row_names_its_column(cell, late):
    n, i, j = cell
    bad, message = late
    document = wide_row_document(n)
    load_complex(copy.deepcopy(document))  # the unmodified document is valid
    document["iso_classes"][0]["chain"][0]["map"][i][j] = [{"coeff": 3, "vector": [1]}, bad]
    with pytest.raises(ValueError) as info:
        load_complex(document)
    assert str(info.value) == message.format(at=f"iso_classes[0].chain[0].map[{i}][{j}][term 1]")


@pytest.mark.parametrize("k", [2, 3, 5])
def test_malformed_coordinate_late_in_a_vector_names_its_index(k):
    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    iso = {"subgroup_class": ["1"], "component": "c", "pi1_rank": k, "phi_pi": identity}
    vector = ["-1"] + [0] * (k - 1)  # a decimal string among plain ints decodes
    iso["chain"] = [{"degree": 0, "rank": 1, "map": [[{"vector": vector}]]}]
    document = {"format_version": 1, "group": {"builtin": "trivial"}, "iso_classes": [iso]}
    load_complex(copy.deepcopy(document))  # the unmodified document is valid
    vector[-1] = "y"
    with pytest.raises(ValueError) as info:
        load_complex(document)
    assert str(info.value) == (
        f"expected an integer at iso_classes[0].chain[0].map[0][0][term 0].vector[{k - 1}], got 'y'."
    )


def test_non_dict_mapping_terms_decode():
    document = z2_table_document()
    document["iso_classes"][0]["chain"][0]["map"][1][0] = [
        types.MappingProxyType({"coeff": 3, "vector": [2], "weyl_elem": "g"})
    ]
    spelled_as_dict = z2_table_document()
    spelled_as_dict["iso_classes"][0]["chain"][0]["map"][1][0] = [
        {"coeff": 3, "vector": [2], "weyl_elem": "g"}
    ]
    assert serialize_complex(load_complex(document)) == serialize_complex(
        load_complex(spelled_as_dict)
    )


# ---------------------------------------------------------------------------
# serialize ∘ load on every spelling of a document


@st.composite
def canonical_documents(draw):
    """Serialized wedge realizations, T¹–T³ maps and builtins, or a free induction of one."""
    kind = draw(st.sampled_from(("wedge", "torus", "builtin")))
    if kind == "wedge":
        n, m = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        cells = st.integers(-3, 3)
        a = [[draw(cells) for _ in range(n)] for _ in range(n)]
        b = [[draw(cells) for _ in range(m)] for _ in range(m)]
        source = realize(
            RealizationTarget(
                IntMatrix.from_rows(a) if n else IntMatrix.zeros(0, 0),
                IntMatrix.from_rows(b) if m else IntMatrix.zeros(0, 0),
            )
        )
    elif kind == "torus":
        source = load_complex(
            torus_document(draw(st.lists(st.integers(-2, 3), min_size=1, max_size=3)))
        )
    else:
        return serialize_complex(load_builtin(draw(st.sampled_from(sorted(BUILTIN_COMPLEXES)))))
    if draw(st.booleans()):
        target = FiniteGroup.builtin(draw(st.sampled_from(("Z2", "Zn:3", "Z2xZ2", "Sym:3"))))
        source, _ = induce(source, target, {"1": target.labels[target.identity]})
    return serialize_complex(source)


@st.composite
def spellings(draw, entry, rank, identity):
    """An entry of a serialized group-ring matrix, spelled another equivalent way.

    Each term becomes a literal int or decimal string, a dict with or
    without its default ``vector`` and ``weyl_elem``, or two dicts whose
    coefficients add up to it; the entry becomes a bare term or a term list.
    """
    spelled = []
    for item in entry if isinstance(entry, list) else [entry]:
        term = item if isinstance(item, dict) else {"coeff": item}
        coeff = term["coeff"]
        vector, weyl = term.get("vector"), term.get("weyl_elem")
        full = {"coeff": coeff, "vector": vector or [0] * rank, "weyl_elem": weyl or identity}
        form = draw(st.sampled_from(("literal", "string", "sparse", "full", "split")))
        if form in ("literal", "string") and vector is None and weyl is None:
            spelled.append(coeff if form == "literal" else f" {coeff} ")
        elif form == "full":
            spelled.append(full)
        elif form == "split":
            part = draw(st.integers(-3, 3))
            spelled += [{**full, "coeff": part}, {**full, "coeff": int(coeff) - part}]
        else:
            spelled.append(term)
    if len(spelled) == 1 and draw(st.booleans()):
        return spelled[0]
    return spelled


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_serialize_load_is_idempotent_on_every_spelling(data):
    canonical = data.draw(canonical_documents())
    respelled = copy.deepcopy(canonical)
    for raw_class, iso in zip(respelled["iso_classes"], load_complex(canonical).classes):
        identity = iso.aut.weyl.labels[iso.aut.weyl.identity]
        for raw_degree in raw_class["chain"]:
            for key in ("map", "boundary"):
                for row in raw_degree.get(key, []):
                    row[:] = [data.draw(spellings(e, iso.aut.pi1_rank, identity)) for e in row]
    once = serialize_complex(load_complex(respelled))
    assert serialize_complex(load_complex(once)) == once
    assert once == canonical


# ---------------------------------------------------------------------------
# boundaries into a missing degree


def z2_gap_document():
    """Degrees 0, 2 and 3 over ℤ₂; degree 2's boundary has no columns."""
    return {
        "format_version": 1,
        "group": {"builtin": "Z2"},
        "name": "z2-gap",
        "iso_classes": [
            {
                "subgroup_class": ["1"],
                "component": "c",
                "pi1_rank": 0,
                "phi_pi": [],
                "chain": [
                    {
                        "degree": 0,
                        "rank": 1,
                        "relative_mask": [True],
                        "stabilizers": [["1", "g"]],
                        "map": [[-1]],
                    },
                    {
                        "degree": 2,
                        "rank": 2,
                        "relative_mask": [False, True],
                        "stabilizers": [["1"], ["1", "g"]],
                        "map": [[{"coeff": -1, "weyl_elem": "g"}, 0], [0, 1]],
                        "boundary": [[], []],
                    },
                    {
                        "degree": 3,
                        "rank": 1,
                        "relative_mask": [False],
                        "map": [[1]],
                        "boundary": [[[1, {"coeff": -1, "weyl_elem": "g"}], 0]],
                    },
                ],
            }
        ],
    }


def trivial_gap_document():
    """Degrees 1 and 2 over the trivial group; degree 1's boundary has no columns."""
    return {
        "format_version": 1,
        "group": {"builtin": "trivial"},
        "name": "trivial-gap",
        "iso_classes": [
            {
                "subgroup_class": ["1"],
                "component": "c",
                "pi1_rank": 1,
                "phi_pi": [[1]],
                "chain": [
                    {
                        "degree": 1,
                        "rank": 2,
                        "map": [[{"vector": [1]}, 0], [0, {"vector": [1]}]],
                        "boundary": [[], []],
                    },
                    {
                        "degree": 2,
                        "rank": 1,
                        "map": [[{"vector": [1]}]],
                        "boundary": [[1, -1]],
                    },
                ],
            }
        ],
    }


MISSING_DEGREE_PINS = {
    "z2-gap": (
        z2_gap_document,
        '{"group": {"order": 2, "labels": ["1", "g"]}, "classes": [{"subgroup_class": ["1"], '
        '"component": "c", "orbit_size": 1, "u": {"rendered": "−[1] +[−g]", "terms": '
        '[{"coeff": -1, "matrix": [[1]]}, {"coeff": 1, "matrix": [[{"coeff": -1, '
        '"weyl_elem": "g"}]]}]}, "lambda": [{"class": [], "coeff": -1}], "reidemeister": '
        '[{"class": [], "coeff": -2}], "lefschetz": -2}], "ell": {"rendered": "−2[1]", '
        '"slots": [{"subgroup_class": ["1"], "total": [{"class": [], "coeff": -2}], '
        '"contributions": [{"component": "c", "orbit_size": 1, "value": [{"class": [], '
        '"coeff": -2}]}]}]}, "vanishing": {"ell_zero": false, "lambda_zero": false, '
        '"consistent": true}, "name": "z2-gap"}',
        "z2-gap (group order 2)\n"
        "  (subgroup {1}, component 'c'):\n"
        "    u = −[1] +[−g]\n"
        "    lambda = −1[1]\n"
        "    R = −2[1]\n"
        "    L = -2\n"
        "  ell = −2[1]\n"
        "  vanishing: ell zero: no; lambda zero: no; consistent: yes",
        '{"format_version": 1, "group": {"builtin": "Z2"}, "name": "z2-gap", "iso_classes": '
        '[{"subgroup_class": ["1"], "component": "c", "pi1_rank": 0, "weyl": ["1", "g"], '
        '"action": {"g": []}, "phi_pi": [], "orbit_size": 1, "chain": [{"degree": 0, '
        '"rank": 1, "relative_mask": [true], "stabilizers": [["1", "g"]], "map": [[-1]]}, '
        '{"degree": 2, "rank": 2, "relative_mask": [false, true], "stabilizers": [["1"], '
        '["1", "g"]], "map": [[{"coeff": -1, "weyl_elem": "g"}, 0], [0, 1]], "boundary": '
        '[[], []]}, {"degree": 3, "rank": 1, "relative_mask": [false], "stabilizers": '
        '[["1"]], "map": [[1]], "boundary": [[[1, {"coeff": -1, "weyl_elem": "g"}], 0]]}]}]}',
    ),
    "trivial-gap": (
        trivial_gap_document,
        '{"group": {"order": 1, "labels": ["1"]}, "classes": [{"subgroup_class": ["1"], '
        '"component": "c", "orbit_size": 1, "u": {"rendered": "−[t]", "terms": [{"coeff": '
        '-1, "matrix": [[{"coeff": 1, "vector": [1]}]]}]}, "lambda": [{"class": [1], '
        '"coeff": -1}], "reidemeister": [{"class": [1], "coeff": -1}], "lefschetz": -1}], '
        '"ell": {"rendered": "−1[1]", "slots": [{"subgroup_class": ["1"], "total": '
        '[{"class": [1], "coeff": -1}], "contributions": [{"component": "c", "orbit_size": '
        '1, "value": [{"class": [1], "coeff": -1}]}]}]}, "vanishing": {"ell_zero": false, '
        '"lambda_zero": false, "consistent": true}, "name": "trivial-gap"}',
        "trivial-gap (group order 1)\n"
        "  (subgroup {1}, component 'c'):\n"
        "    u = −[t]\n"
        "    lambda = −1[1]\n"
        "    R = −1[1]\n"
        "    L = -1\n"
        "  ell = −1[1]\n"
        "  vanishing: ell zero: no; lambda zero: no; consistent: yes",
        '{"format_version": 1, "group": {"builtin": "trivial"}, "name": "trivial-gap", '
        '"iso_classes": [{"subgroup_class": ["1"], "component": "c", "pi1_rank": 1, '
        '"weyl": ["1"], "phi_pi": [[1]], "orbit_size": 1, "chain": [{"degree": 1, "rank": '
        '2, "relative_mask": [false, false], "stabilizers": [["1"], ["1"]], "map": '
        '[[{"coeff": 1, "vector": [1]}, 0], [0, {"coeff": 1, "vector": [1]}]], "boundary": '
        '[[], []]}, {"degree": 2, "rank": 1, "relative_mask": [false], "stabilizers": '
        '[["1"]], "map": [[{"coeff": 1, "vector": [1]}]], "boundary": [[1, -1]]}]}]}',
    ),
}


@pytest.mark.parametrize("name", list(MISSING_DEGREE_PINS))
def test_boundary_into_a_missing_degree_is_pinned(name):
    document, report, rendered, serialized = MISSING_DEGREE_PINS[name]
    loaded = load_complex(document())
    assert json.dumps(build_report(loaded), ensure_ascii=False) == report
    assert render_report(loaded) == rendered
    assert json.dumps(serialize_complex(loaded), ensure_ascii=False) == serialized


def test_noncommuting_map_above_a_missing_degree_is_named():
    document = trivial_gap_document()
    document["iso_classes"][0]["chain"][1]["map"] = [[1]]
    with pytest.raises(ValueError) as error:
        load_complex(document)
    assert str(error.value) == (
        "chain map does not commute with the boundary at degree 2 of "
        "(subgroup {1}, component 'c')."
    )
