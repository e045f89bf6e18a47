"""Self-maps of tori: the Nielsen-number oracle and rejection of broken chain data.

For the product of circle maps z ↦ z^d_i on T^k the Lefschetz number is
L = Π(1 − d_i), and the Reidemeister trace has exactly |L| nonzero classes,
each with coefficient sign(L) (Brooks, Brown, Pak and Taylor, *Nielsen
numbers of maps of tori*, Proc. AMS 1975).
"""

import copy
import itertools
import math

import pytest

from eqlef.complex_model import IsoClassData, load_complex
from eqlef.invariants import build_report, lefschetz_number, reidemeister_trace


def torus_document(degrees):
    """T^k with one cell per subset S of the coordinates, in degree |S|.

    The map sends S to Π_{i∈S} P_{d_i}(t_i)·S, with P_d = 1 + t + … + t^{d−1}
    (P_0 = 0, P_d = −(t^d + … + t^{−1}) for d < 0); the boundary of S is
    Σ_{i∈S} (−1)^{position of i in S}·(t_i − 1)·(S − i).
    """
    k = len(degrees)

    def term(vector, coefficient):
        return {"coeff": coefficient, "vector": list(vector)}

    def circle(d):  # (exponent, coefficient) pairs of P_d
        return [(e, 1) for e in range(d)] if d >= 0 else [(e, -1) for e in range(d, 0)]

    def map_entry(cell):
        terms = []
        for choice in itertools.product(*(circle(degrees[i]) for i in cell)):
            vector = [0] * k
            for i, (exponent, _) in zip(cell, choice):
                vector[i] = exponent
            terms.append(term(vector, math.prod(c for _, c in choice)))
        return terms or 0

    def boundary_entry(cell, face):
        if not set(face) < set(cell):
            return 0
        (i,) = set(cell) - set(face)
        sign = (-1) ** cell.index(i)
        return [term([int(j == i) for j in range(k)], sign), -sign]

    chain = []
    for p in range(k + 1):
        cells = list(itertools.combinations(range(k), p))
        degree = {"degree": p, "rank": len(cells)}
        degree["map"] = [[map_entry(c) if c == o else 0 for o in cells] for c in cells]
        if p:
            faces = list(itertools.combinations(range(k), p - 1))
            degree["boundary"] = [[boundary_entry(c, f) for f in faces] for c in cells]
        chain.append(degree)
    phi = [[d if i == j else 0 for j in range(k)] for i, d in enumerate(degrees)]
    iso = {"subgroup_class": ["1"], "component": "torus", "pi1_rank": k, "phi_pi": phi}
    iso["chain"] = chain
    return {"format_version": 1, "group": {"builtin": "trivial"}, "iso_classes": [iso]}


@pytest.mark.parametrize(
    "degrees",
    [(2,), (-1,), (0,), (3,), (1,), (2, -1), (3, 2), (0, 2), (1, 2), (2, 2, -1),
     (-1, 3, 2), (2, -2, 3, -1), (0, -1, 2, 3)],
)
def test_torus_lefschetz_and_nielsen_numbers(degrees):
    (iso,) = load_complex(torus_document(degrees)).classes
    expected = math.prod(1 - d for d in degrees)
    assert lefschetz_number(iso) == expected
    trace = reidemeister_trace(iso)
    assert len(trace.terms) == abs(expected)
    assert all(c == (1 if expected > 0 else -1) for _, c in trace.terms)


def _flip_first_term(entry):
    """The entry with the sign of its first term flipped."""
    first = entry[0]
    flipped = {**first, "coeff": -first["coeff"]} if isinstance(first, dict) else -first
    return [flipped] + entry[1:]


def _first_nonzero(matrix):
    return next((i, j) for i, row in enumerate(matrix) for j, e in enumerate(row) if e != 0)


BROKEN_DEGREES = (2, -1, 3, -2)  # no d = 0 or 1, so every single flip is visible


@pytest.mark.parametrize(
    "k, p", [(k, p) for k in range(1, 5) for p in range(1, k + 1)]
)
def test_flipped_boundary_sign_is_rejected(k, p):
    document = copy.deepcopy(torus_document(BROKEN_DEGREES[:k]))
    boundary = document["iso_classes"][0]["chain"][p]["boundary"]
    i, j = _first_nonzero(boundary)
    boundary[i][j] = _flip_first_term(boundary[i][j])
    with pytest.raises(ValueError, match="boundary composition is nonzero|does not commute"):
        load_complex(document)


@pytest.mark.parametrize(
    "k, p", [(k, p) for k in range(1, 5) for p in range(k + 1)]
)
def test_flipped_chain_map_sign_is_rejected(k, p):
    document = copy.deepcopy(torus_document(BROKEN_DEGREES[:k]))
    chain_map = document["iso_classes"][0]["chain"][p]["map"]
    i, j = _first_nonzero(chain_map)
    chain_map[i][j] = _flip_first_term(chain_map[i][j])
    with pytest.raises(ValueError, match="does not commute"):
        load_complex(document)


def test_load_and_report_expand_each_matrix_once(monkeypatch):
    """Validation, R and L share one expansion per degree and matrix kind."""
    calls = {}
    original = IsoClassData.expand_matrix

    def counting(self, matrix, source, target):
        kind = "map" if matrix is source.chain_map else "boundary"
        calls[(source.degree, kind)] = calls.get((source.degree, kind), 0) + 1
        return original(self, matrix, source, target)

    monkeypatch.setattr(IsoClassData, "expand_matrix", counting)
    build_report(load_complex(torus_document((2, -1, 3))))
    assert calls == {
        **{(p, "map"): 1 for p in range(4)},
        **{(p, "boundary"): 1 for p in range(1, 4)},
    }
