"""Exact mod-p engine for reduced power operations on characteristic
classes, Koszul-homology Tor tables, and section obstructions for
quotient maps of the classical split groups."""

from .algebra import (AlgebraPresentation, Bidegree, Element, GeneratorSpec,
                      INHOMOGENEOUS, Monomial, bidegree_of, polynomial_algebra,
                      validate_realizability)
from .koszul import (KoszulComplex, TorTable, build_koszul,
                     homogeneous_space_odd_basis, homogeneous_space_tor,
                     koszul_homology)
from .modp import Prime, binom_mod_p, exponent_n, raynaud_number
from .models import GroupModel, TorsionPrimeError
from .obstruction import (DivisibilityScan, ObstructionReport, SectionQuery,
                          Witness, check_cohomological, check_gl_quotient,
                          check_orthogonal, check_symplectic, divisibility_scan)
from .steenrod import (apply_P_polynomial, apply_P_primitive,
                       decomposable_quotient, verify_axiom)

__all__ = [
    "AlgebraPresentation", "Bidegree", "DivisibilityScan", "Element",
    "GeneratorSpec", "GroupModel", "INHOMOGENEOUS", "KoszulComplex",
    "Monomial", "ObstructionReport", "Prime", "SectionQuery",
    "TorTable", "TorsionPrimeError", "Witness",
    "apply_P_polynomial", "apply_P_primitive", "bidegree_of", "binom_mod_p",
    "build_koszul", "check_cohomological", "check_gl_quotient",
    "check_orthogonal", "check_symplectic", "decomposable_quotient",
    "divisibility_scan", "exponent_n", "homogeneous_space_odd_basis",
    "homogeneous_space_tor", "koszul_homology", "polynomial_algebra",
    "raynaud_number", "validate_realizability", "verify_axiom",
]
