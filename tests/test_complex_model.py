"""Document loading, validation diagnostics, and canonical serialization."""

import copy
import json

import pytest

from eqlef.complex_model import (
    load_builtin,
    load_complex,
    serialize_complex,
)


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


def test_rejects_mask_closure_violation():
    document = z2_masked_document()
    # make one degree-0 cell unmasked and send a masked 1-cell onto it:
    # the masked part must be a subcomplex, so this boundary is illegal
    document["iso_classes"][0]["chain"][0]["relative_mask"] = [True, False]
    document["iso_classes"][0]["chain"][0]["stabilizers"] = [["1", "g"], ["1"]]
    document["iso_classes"][0]["chain"][1]["relative_mask"] = [True]
    document["iso_classes"][0]["chain"][1]["boundary"] = [[0, 1]]
    with pytest.raises(ValueError, match="masked basis element to an unmasked"):
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


def test_rejects_degenerate_degree_order():
    document = minimal_document()
    document["iso_classes"][0]["chain"][1]["degree"] = 0
    # without a degree jump the boundary has no target; drop it so the
    # entry parses and the ordering rule itself is what fires
    document["iso_classes"][0]["chain"][1].pop("boundary")
    with pytest.raises(ValueError, match="strictly increasing"):
        load_complex(document)


def test_rejects_boolean_masquerading_as_integer():
    document = minimal_document()
    document["iso_classes"][0]["chain"][0]["map"] = [[True]]
    with pytest.raises(ValueError, match="got a boolean"):
        load_complex(document)


def test_stabilizer_row_invariance_enforced():
    document = z2_masked_document()
    # a row with stabilizer {1, g} must have g-invariant entries after
    # reduction by each target stabilizer; sending the fully stabilized
    # cell onto a freely-acted cell with coefficient 1 breaks that
    document["iso_classes"][0]["chain"][0]["stabilizers"] = [["1", "g"], ["1"]]
    document["iso_classes"][0]["chain"][0]["map"] = [[1, 1], [0, 1]]
    with pytest.raises(ValueError, match="not invariant under its stabilizer"):
        load_complex(document)
