"""Documents for self-maps of the torus T^k = (S^1)^k.

The map is the product of circle maps z -> z^d_i.  On the universal cover the
cellular chain complex is the tensor product of k copies of
Z[t^{+-1}]e -> Z[t^{+-1}]v, e -> (t - 1)v, so T^k has 2^k cells, one per subset
S of the coordinates, in degree |S|.  The chain map is diagonal: the cell S is
sent to prod_{i in S} P_{d_i}(t_i) times itself, where P_d = 1 + t + ... +
t^{d-1} for d > 0, P_0 = 0 and P_d = -(t^{-1} + ... + t^{d}) for d < 0.  The
boundary of S is sum_{i in S} (-1)^{#{j in S : j < i}} (t_i - 1) e_{S - i}.

The Lefschetz number is L = prod(1 - d_i) and the Nielsen number is |L|
(Brooks, Brown, Pak and Taylor, Proc. AMS 1975): the Reidemeister trace has
exactly |L| nonzero classes, each with coefficient sign(L).
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence


def _circle_terms(d: int) -> list[tuple[int, int]]:
    """(exponent, coefficient) pairs of P_d."""
    if d > 0:
        return [(e, 1) for e in range(d)]
    return [(e, -1) for e in range(d, 0)]


def _cells(k: int, degree: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(k), degree))


def _term(vector: Sequence[int], coefficient: int):
    if not any(vector):
        return coefficient
    return {"coeff": coefficient, "vector": list(vector)}


def _map_entry(k: int, cell: tuple[int, ...], degrees: Sequence[int]) -> list:
    factors = [_circle_terms(degrees[i]) for i in cell]
    entry = []
    for choice in itertools.product(*factors):
        vector = [0] * k
        coefficient = 1
        for i, (exponent, sign) in zip(cell, choice):
            vector[i] = exponent
            coefficient *= sign
        entry.append(_term(vector, coefficient))
    return entry if entry else [0]


def _boundary_entry(k: int, cell: tuple[int, ...], face: tuple[int, ...]):
    """The coefficient of ``face`` (one coordinate fewer) in the boundary of ``cell``."""
    if not set(face) < set(cell):
        return 0
    (i,) = set(cell) - set(face)
    sign = -1 if cell.index(i) % 2 else 1
    unit = [0] * k
    unit[i] = 1
    return [_term(unit, sign), -sign]


def torus_document(degrees: Sequence[int]) -> dict:
    """The document of the self-map of T^k with the given circle degrees."""
    k = len(degrees)
    chain = []
    for p in range(k + 1):
        cells = _cells(k, p)
        raw = {
            "degree": p,
            "rank": len(cells),
            "relative_mask": [False] * len(cells),
            "map": [
                [_map_entry(k, cell, degrees) if cell == other else 0 for other in cells]
                for cell in cells
            ],
        }
        if p > 0:
            faces = _cells(k, p - 1)
            raw["boundary"] = [[_boundary_entry(k, cell, face) for face in faces] for cell in cells]
        chain.append(raw)
    return {
        "format_version": 1,
        "group": {"builtin": "trivial"},
        "name": "torus-" + "_".join(str(d) for d in degrees),
        "iso_classes": [
            {
                "subgroup_class": ["1"],
                "component": "torus",
                "pi1_rank": k,
                "phi_pi": [[d if i == j else 0 for j in range(k)] for i, d in enumerate(degrees)],
                "chain": chain,
            }
        ],
    }


def lefschetz(degrees: Sequence[int]) -> int:
    """L = prod(1 - d_i)."""
    return math.prod(1 - d for d in degrees)
