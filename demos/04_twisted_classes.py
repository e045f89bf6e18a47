"""Twisted conjugacy classes of translations.

On a component with fundamental group Z^k, two translation vectors a and b
name the same fixed-point class when b = theta(w)a + (phi - I)m for some
integer vector m and a Weyl element w acting through theta.  The class set
is built over a group, and that group's Weyl elements are the ones it may
use: over the translation-only group AutGroup.translations(k) only the
lattice moves remain.  The class set is finite exactly when det(phi - I) is
nonzero, and then its size is |det(phi - I)|.

Run with:  python3 demos/04_twisted_classes.py
"""

from eqlef import TwistData, twisted_classes
from eqlef.equivariant_groups import AutGroup, FiniteGroup
from eqlef.exact_algebra import IntMatrix


def main():
    print("=== the antipodal twist on a circle ===")
    line = AutGroup.translations(1)
    phi = IntMatrix.from_rows([[-1]])
    antipodal = twisted_classes(line, TwistData(phi))
    print("phi = [[-1]]  =>  a ~ a - 2m")
    # phi is 1x1, so det(phi - I) is its one entry minus 1
    print("|det(phi - I)| =", abs(phi.entry(0, 0) - 1), "classes")
    print("the class of 7:", antipodal.representative((7,)))
    print("the class of -4:", antipodal.representative((-4,)))

    print("\n=== an identity twist is infinite ===")
    phi = IntMatrix.identity(1)
    identity = twisted_classes(line, TwistData(phi))
    print("phi = [[1]]  =>  a ~ a, classes = all integers")
    print("|det(phi - I)| =", abs(phi.entry(0, 0) - 1))
    print("the class of 5:", identity.representative((5,)))

    print("\n=== Weyl merging ===")
    z2 = FiniteGroup.builtin("Z2")
    flip = AutGroup(1, z2, (IntMatrix.identity(1), IntMatrix.from_rows([[-1]])))
    twist = TwistData(IntMatrix.identity(1))
    plain = twisted_classes(AutGroup.translations(1), twist)
    merged = twisted_classes(flip, twist)
    print("theta(g) = -1 with phi = [[1]]:")
    print("without Weyl moves, 4 and -4 stay distinct:")
    print("  class of 4:", plain.representative((4,)), " class of -4:", plain.representative((-4,)))
    print("with Weyl moves, a ~ -a merges them:")
    print("  class of 4:", merged.representative((4,)), " class of -4:", merged.representative((-4,)))


if __name__ == "__main__":
    main()
