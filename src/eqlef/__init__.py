"""Exact equivariant Lefschetz invariants for cellular self-maps.

The package computes, over exact integer arithmetic:

* canonical classes of integer-matrix endomorphisms in the universal
  abelian group generated by irreducible monic integer polynomials,
* universal, generalized, and component-wise equivariant Lefschetz
  invariants of cellular self-maps of finite equivariant CW complexes,
* Reidemeister traces and Lefschetz numbers of the component maps,
* wedge-of-spheres realizations of prescribed universal classes.
"""

__version__ = "0.1.0"

from .exact_algebra import (
    IntMatrix,
    IntPolynomial,
    char_poly,
    factor_over_Q,
)
from .uz import UZClass, class_of_matrix
from .equivariant_groups import (
    AutGroup,
    FiniteGroup,
    GroupRingElement,
    GroupRingMatrix,
    Subgroup,
    TwistData,
    TwistedClassSet,
    WeylGroup,
    all_subgroups,
    conjugacy_classes_of_subgroups,
    pi1_projection,
    twisted_classes,
    weyl_group,
)
from .complex_model import (
    EquivariantComplex,
    FixedPointDatum,
    IsoClassData,
    load_builtin,
    load_complex,
    serialize_complex,
)
from .invariants import (
    ClassSum,
    EllInvariant,
    KClass,
    LambdaVector,
    UniversalInvariant,
    build_report,
    induce,
    klein_williams,
    lambda_invariant,
    lefschetz_number,
    reidemeister_from_fixed_points,
    reidemeister_trace,
    render_report,
    universal_invariant,
    vanishing_report,
)
from .realize import RealizationTarget, realize

__all__ = [
    "IntMatrix",
    "IntPolynomial",
    "char_poly",
    "factor_over_Q",
    "UZClass",
    "class_of_matrix",
    "AutGroup",
    "FiniteGroup",
    "GroupRingElement",
    "GroupRingMatrix",
    "Subgroup",
    "TwistData",
    "TwistedClassSet",
    "WeylGroup",
    "all_subgroups",
    "conjugacy_classes_of_subgroups",
    "pi1_projection",
    "twisted_classes",
    "weyl_group",
    "EquivariantComplex",
    "FixedPointDatum",
    "IsoClassData",
    "load_builtin",
    "load_complex",
    "serialize_complex",
    "ClassSum",
    "EllInvariant",
    "KClass",
    "LambdaVector",
    "UniversalInvariant",
    "build_report",
    "induce",
    "klein_williams",
    "lambda_invariant",
    "lefschetz_number",
    "reidemeister_from_fixed_points",
    "reidemeister_trace",
    "render_report",
    "universal_invariant",
    "vanishing_report",
    "RealizationTarget",
    "realize",
    "__version__",
]
