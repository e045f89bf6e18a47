"""Realizing a prescribed class by a self-map of a wedge of spheres.

Pick any two square integer matrices ``a`` and ``b'``.  The constructor
builds a cellular self-map on a wedge of 2- and 3-spheres (one 2-sphere
per row of ``a``, one 3-sphere per row of ``b'`` plus a stabilizing one)
whose universal class is exactly ``[a] - [b']``.

Run with:  python3 demos/03_realization.py
"""

import json

from eqlef import (
    RealizationTarget,
    class_of_matrix,
    realize,
    serialize_complex,
    universal_invariant,
)
from eqlef.exact_algebra import IntMatrix


def main():
    a = IntMatrix.from_rows([[0, 1], [1, 0]])
    b_prime = IntMatrix.from_rows([[3]])
    print("target: [a] - [b'] with")
    print("  a  =", [[0, 1], [1, 0]])
    print("  b' =", [[3]])

    c = realize(RealizationTarget(a, b_prime))
    iso = c.classes[0]
    print("\nthe realizing complex has cells in degrees", [d.degree for d in iso.degrees])
    print("with ranks", [d.rank for d in iso.degrees], "and all boundary maps zero")

    entry = universal_invariant(c).entries[0]
    print("\nuniversal class of the realized map:", entry.kclass)
    print("its integer-class image:            ", entry.uz_image)

    expected = class_of_matrix(a) - class_of_matrix(b_prime)
    print("class(a) - class(b') computed directly:", expected)
    assert entry.uz_image == expected
    print("\nround trip verified: the realized map carries exactly the target class")

    document = serialize_complex(c)
    print("\nserialized document (first lines):")
    print("\n".join(json.dumps(document, indent=2, sort_keys=True).splitlines()[:14]))
    print("  ...")


if __name__ == "__main__":
    main()
