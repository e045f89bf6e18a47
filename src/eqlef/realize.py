"""Realization of prescribed universal classes by wedge-of-spheres models.

Given two square integer matrices ``a`` and ``b_prime``, :func:`realize`
builds a validated complex over the trivial group — the cellular model of a
self-map on a wedge of 2- and 3-spheres — whose universal class normalizes
to ``[a] − [b_prime]`` and whose integer-class image is
``class_of_matrix(a) − class_of_matrix(b_prime)``.  ``eqlef realize`` checks
that round trip through ``class_of_matrix``, block by block, never factoring
diag(1, ``b_prime``) or a block-triangular ``a`` or ``b_prime`` whole.

The model has one 0-cell (mapped identically), no 1-cells, one 2-cell per
row of ``a``, and one 3-cell per row of ``b_prime`` plus one extra 3-cell
mapped identically; all boundary maps vanish, so every chain map choice is
automatically a chain map.
"""

from __future__ import annotations

import dataclasses

from .complex_model import EquivariantComplex, _encode_int_matrix, load_complex
from .exact_algebra import MAX_MATRIX_ORDER, IntMatrix, block_diagonal

__all__ = ["RealizationTarget", "realize"]


@dataclasses.dataclass(frozen=True)
class RealizationTarget:
    """A pair of square integer matrices to realize as ``[a] − [b_prime]``.

    Either matrix may be 0×0 (an empty wedge summand).  The model has one
    3-cell more than ``b_prime`` has rows, so ``b_prime`` has at most
    ``MAX_MATRIX_ORDER − 1`` rows.

    >>> RealizationTarget(IntMatrix.from_rows([[2]]), IntMatrix.zeros(0, 0)).a.rows
    1
    """

    a: IntMatrix
    b_prime: IntMatrix

    def __post_init__(self) -> None:
        if not self.a.is_square:
            raise ValueError(
                f"realization targets must be square; 'a' is {self.a.rows}×{self.a.cols}."
            )
        if not self.b_prime.is_square:
            raise ValueError(
                "realization targets must be square; 'b_prime' is "
                f"{self.b_prime.rows}×{self.b_prime.cols}."
            )
        if self.b_prime.rows > MAX_MATRIX_ORDER - 1:
            raise ValueError(
                f"'b_prime' is {self.b_prime.rows}×{self.b_prime.cols}; the wedge model adds "
                f"one 3-cell, so 'b_prime' is limited to MAX_MATRIX_ORDER − 1 = "
                f"{MAX_MATRIX_ORDER - 1} rows."
            )


def realize(t: RealizationTarget) -> EquivariantComplex:
    """Build the validated wedge-of-spheres model realizing ``[a] − [b_prime]``.

    >>> from .invariants import universal_invariant
    >>> target = RealizationTarget(IntMatrix.from_rows([[2]]), IntMatrix.zeros(0, 0))
    >>> str(universal_invariant(realize(target)).entries[0].uz_image)
    '+1·(x−2)'
    """
    n = t.a.rows
    m = t.b_prime.rows
    top = block_diagonal(IntMatrix.identity(1), t.b_prime)
    document = {
        "format_version": 1,
        "group": {"builtin": "trivial"},
        "name": "wedge-realization",
        "description": (
            "self-map of a wedge of spheres realizing the class "
            f"[a ({n}×{n})] − [b' ({m}×{m})]"
        ),
        "iso_classes": [
            {
                "subgroup_class": ["1"],
                "component": "wedge",
                "pi1_rank": 0,
                "phi_pi": [],
                "chain": [
                    {
                        "degree": 0,
                        "rank": 1,
                        "relative_mask": [False],
                        "map": [[1]],
                    },
                    {
                        "degree": 1,
                        "rank": 0,
                        "relative_mask": [],
                        "map": [],
                        "boundary": [],
                    },
                    {
                        "degree": 2,
                        "rank": n,
                        "relative_mask": [False] * n,
                        "map": _encode_int_matrix(t.a),
                        "boundary": [[] for _ in range(n)],
                    },
                    {
                        "degree": 3,
                        "rank": m + 1,
                        "relative_mask": [False] * (m + 1),
                        "map": _encode_int_matrix(top),
                        "boundary": [[0] * n for _ in range(m + 1)],
                    },
                ],
            }
        ],
    }
    return load_complex(document)
