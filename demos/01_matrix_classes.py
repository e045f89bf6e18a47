"""Canonical classes of integer matrices.

Two square integer matrices are identified when they have the same
characteristic polynomial; the resulting classes form a free abelian group
generated by the irreducible monic factors.  ``class_of_matrix`` computes
the canonical decomposition, and the group operations act coefficientwise.

Run with:  python3 demos/01_matrix_classes.py
"""

from eqlef import class_of_matrix
from eqlef.exact_algebra import IntMatrix, IntPolynomial, char_poly, factor_over_Q


def show(title, value):
    print(f"{title:<42} {value}")


def main():
    print("=== canonical classes of integer matrices ===\n")

    identity = IntMatrix.identity(2)
    rotation = IntMatrix.from_rows([[0, -1], [1, 0]])
    nilpotent = IntMatrix.from_rows([[0]])
    show("class of the 2x2 identity:", class_of_matrix(identity))
    show("class of a quarter rotation:", class_of_matrix(rotation))
    show("class of the 1x1 zero matrix:", class_of_matrix(nilpotent))

    print("\nThe class only sees the characteristic polynomial, so conjugating")
    print("by a unimodular matrix changes nothing:")
    m = IntMatrix.from_rows([[2, 1], [1, 3]])
    u = IntMatrix.from_rows([[1, 4], [0, 1]])
    u_inverse = IntMatrix.from_rows([[1, -4], [0, 1]])
    assert u_inverse @ u == IntMatrix.identity(2)
    conjugated = u_inverse @ m @ u
    show("  original:", class_of_matrix(m))
    show("  conjugated:", class_of_matrix(conjugated))
    assert class_of_matrix(m) == class_of_matrix(conjugated)

    print("\nClasses add and negate formally:")
    total = class_of_matrix(identity) - class_of_matrix(rotation)
    show("  [identity] - [rotation]:", total)

    print("\nA companion matrix recovers the factorization of its polynomial:")
    poly = IntPolynomial((-1, 0, 0, 0, 1))  # x^4 - 1
    # ones below the diagonal, minus the low coefficients (1, 0, 0, 0) in the last column
    companion = IntMatrix.from_rows([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    show("  polynomial:", poly)
    show("  characteristic polynomial:", char_poly(companion))
    content, factors = factor_over_Q(poly)
    show(
        "  irreducible factors:",
        " * ".join(f"({factor})^{mult}" if mult > 1 else f"({factor})" for factor, mult in factors),
    )
    show("  class of the companion matrix:", class_of_matrix(companion))


if __name__ == "__main__":
    main()
