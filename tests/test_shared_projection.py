"""λ and ℓ of the report pass against a reference that projects every class anew.

With a trivial Weyl group the report takes ℓ's summand as orbit·R, and when
no cell is masked as well it takes λ to be R.  The reference here does what
the shared path skips: it projects each class's relative maps for λ and
reduces every key of R over the Weyl-merged class set for ℓ.

L, R and λ read the diagonal entries directly; the last test compares them
with traces built by :meth:`GroupRingMatrix.trace`.
"""

from __future__ import annotations

import functools
import operator
import pathlib
import sys

import pytest

from eqlef import (
    ClassSum,
    FiniteGroup,
    build_report,
    induce,
    klein_williams,
    lambda_invariant,
    lefschetz_number,
    load_builtin,
    load_complex,
    pi1_projection,
    reidemeister_trace,
    twisted_classes,
)
from eqlef.corpus import BUILTIN_COMPLEXES
from eqlef.invariants import _analyze

from test_complex_model import z2_table_document
from test_invariants import ell_structure, per_degree_projection, renumbered_document, report_bytes
from test_torus import torus_document

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import all_torus_degrees  # noqa: E402


def reference_lambda_and_ell(c):
    """λ's values and ℓ's :func:`ell_structure`, each class projected and reduced anew."""
    lambdas, slots = [], {}
    for iso in c.classes:
        classes = twisted_classes(iso.aut, iso.twist)
        relative = [entry.relative_map for entry in iso.degrees]
        lambdas.append(per_degree_projection(iso, relative, classes))
        value = ClassSum(
            tuple(
                (classes.representative(v), iso.orbit_size * n)
                for v, n in reidemeister_trace(iso).terms
            )
        )
        slots.setdefault(iso.subgroup.members, []).append(
            (iso.subgroup.member_labels, iso.component, iso.orbit_size, value)
        )
    ell = [
        (parts[0][0], sum((part[3] for part in parts), ClassSum.zero()), parts)
        for _, parts in sorted(slots.items(), key=lambda item: (len(item[0]), item[0]))
    ]
    return lambdas, ell


def mixed_mask_document():
    """A trivial-group class whose degree 0 has a masked cell before an unmasked one.

    φ_π = 3, so twisted classes are vectors mod 2.  The masked cell maps to
    −2 times itself, the unmasked one to (3 + t) times itself plus t times
    the masked one: R = −2[0] + 3[0] + [1] and λ = 3[0] + [1].
    """
    t = {"coeff": 1, "vector": [1]}
    chain = {
        "degree": 0,
        "rank": 2,
        "relative_mask": [True, False],
        "stabilizers": [["1"], ["1"]],
        "map": [[-2, 0], [[t], [3, t]]],
    }
    iso = {"subgroup_class": ["1"], "component": "c", "pi1_rank": 1, "phi_pi": [[3]]}
    iso["chain"] = [chain]
    return {"format_version": 1, "group": {"builtin": "trivial"}, "iso_classes": [iso]}


def z2_reflection_document():
    """z2_table_document with t in degree 0: W = ℤ₂ acts by −1 on π₁ and φ_π = 1,
    so ℓ identifies each key of R with its negative."""
    document = z2_table_document()
    t = {"coeff": 1, "vector": [1]}
    document["iso_classes"][0]["chain"][0]["map"] = [[t, 0], [0, 1]]
    return document


def free_induction_into_zn12():
    zn12 = FiniteGroup.builtin("Zn:12")
    source = load_complex(torus_document((2, -1)))
    return induce(source, zn12, {"1": zn12.labels[zn12.identity]})[0]


CASES = {
    **{
        f"torus:{','.join(map(str, degrees))}": (
            lambda degrees=degrees: load_complex(torus_document(degrees))
        )
        for degrees in all_torus_degrees(3)
    },
    **{f"builtin:{name}": (lambda name=name: load_builtin(name)) for name in BUILTIN_COMPLEXES},
    "free induction into Zn:12": free_induction_into_zn12,
    "Z2 acting by -1 on pi1": lambda: load_complex(z2_reflection_document()),
    "trivial group, masked cell": lambda: load_complex(mixed_mask_document()),
}


@pytest.mark.parametrize("name", list(CASES))
def test_lambda_and_ell_equal_the_unshared_reference(name):
    c = CASES[name]()
    lambdas, ell = reference_lambda_and_ell(c)
    analysis = _analyze(c)
    assert [l_value for _, l_value, _, _ in analysis.rows] == lambdas
    assert [entry.value for entry in lambda_invariant(c).entries] == lambdas
    assert ell_structure(analysis.ell) == ell
    assert ell_structure(klein_williams(c)) == ell


def test_the_cases_reach_every_branch():
    # the torus maps share λ and ℓ with R; the ℤ₂ reflection has a nontrivial W
    # that moves keys of R; the masked document shares ℓ but not λ
    (torus,) = CASES["torus:-1,2,3"]().classes
    assert torus.aut.weyl.order == 1 and not any(e.relative_mask[0] for e in torus.degrees)
    reflection = load_complex(z2_reflection_document())
    assert reflection.classes[0].aut.weyl.order == 2
    assert str(reidemeister_trace(reflection.classes[0])) == "1[−1] 1[1]"
    assert str(klein_williams(reflection)) == "2[−1]"
    (masked,) = load_complex(mixed_mask_document()).classes
    assert masked.aut.weyl.order == 1 and masked.degrees[0].relative_mask == (True, False)
    assert str(reidemeister_trace(masked)) == "1[0] 1[1]"
    assert str(lambda_invariant(load_complex(mixed_mask_document()))) == (
        "(subgroup {1}, component 'c'): 3[0] 1[1]"
    )


def test_mixed_masks_in_one_degree_report_as_when_the_masked_cell_is_last():
    # λ reads the unmasked cells by their positions, not by how many there are
    document = mixed_mask_document()
    masked_last = renumbered_document(document, lambda rank: list(range(rank))[::-1])
    assert masked_last["iso_classes"][0]["chain"][0]["relative_mask"] == [False, True]
    assert report_bytes(masked_last) == report_bytes(document)
    assert build_report(load_complex(document))["classes"][0]["lambda"] == [
        {"class": [0], "coeff": 3},
        {"class": [1], "coeff": 1},
    ]


def alternating_trace(iso, matrices):
    """Σ_p (−1)^p tr(M_p), each trace built by :meth:`GroupRingMatrix.trace`."""
    signed = [
        matrix.trace().scale(-1 if entry.degree % 2 else 1)
        for entry, matrix in zip(iso.degrees, matrices, strict=True)
    ]
    return functools.reduce(operator.add, signed) if signed else None


def projected_trace(iso, matrices, classes):
    """The projection of :func:`alternating_trace`, as R and λ were computed
    before they read the diagonals directly."""
    summed = alternating_trace(iso, matrices)
    return ClassSum.zero() if summed is None else ClassSum.from_mapping(pi1_projection(summed, classes))


@pytest.mark.parametrize("name", list(CASES))
def test_l_r_and_lambda_read_off_the_diagonals_equal_the_built_traces(name):
    c = CASES[name]()
    lambdas = lambda_invariant(c).entries
    for iso, lam in zip(c.classes, lambdas, strict=True):
        expanded = [m for _, _, m, _ in iso.ladder]
        assert lefschetz_number(iso) == sum(
            (-1) ** entry.degree * matrix.trace().augmentation()
            for entry, matrix in zip(iso.degrees, expanded, strict=True)
        )
        r_classes = twisted_classes(iso.pi1_aut(), iso.twist)
        assert reidemeister_trace(iso) == projected_trace(iso, expanded, r_classes)
        relative = [entry.relative_map for entry in iso.degrees]
        lambda_classes = twisted_classes(iso.aut, iso.twist)
        assert lam.value == projected_trace(iso, relative, lambda_classes)
