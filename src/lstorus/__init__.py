"""Combinatorial models and deciders for locally standard torus actions.

The package models a torus action through the combinatorics of its orbit
space: a face poset plus a primitive integer label on every facet.  It
validates that data, decides when two labeled posets are equivalent
(exactly, or up to a torus automorphism), enumerates labelings, and
numerically checks the explicit chart formulas for lifted equivariant
diffeomorphisms.
"""

from .census import (
    BudgetExceededError,
    CensusError,
    CensusResult,
    CensusSpec,
    enumerate_census,
    primitive_vectors_in_box,
)
from .charpair import (
    Attestations,
    CharacteristicPair,
    CharPairError,
    relabel,
    rename_faces,
    validate_characteristic,
)
from .classify import (
    CanonicalFormError,
    IsoWitness,
    Verdict,
    canonical_form,
    strong_equivalence,
    verify_witness,
    weak_equivalence,
)
from .documents import (
    DocumentError,
    parse_document,
    parse_pair,
    serialize_pair,
    serialize_poset,
)
from .faceposet import FacePoset, PosetError, ValidityReport, Violation, validate_poset
from .lattice import (
    LatticeError,
    PrimitiveVector,
    UnimodularSolution,
    hnf,
    is_direct_summand,
    saturate,
    snf_diagonal,
    solve_unimodular,
)
from .localmodel import (
    CornerHypothesisError,
    FaceDiffeo,
    LocalModelError,
    ModelPoint,
    OrbitPoint,
    SmoothMapSpec,
    SmoothnessReport,
    TorusMap,
    corner_quotient,
    even_substitution,
    lift_diffeo,
    orbit_map,
    run_local_checks,
    section_compat_check,
    smoothness_probe,
    standard_section,
)

__version__ = "0.1.0"

__all__ = [
    "Attestations",
    "BudgetExceededError",
    "CanonicalFormError",
    "CensusError",
    "CensusResult",
    "CensusSpec",
    "CharPairError",
    "CharacteristicPair",
    "CornerHypothesisError",
    "DocumentError",
    "FaceDiffeo",
    "FacePoset",
    "IsoWitness",
    "LatticeError",
    "LocalModelError",
    "ModelPoint",
    "OrbitPoint",
    "PosetError",
    "PrimitiveVector",
    "SmoothMapSpec",
    "SmoothnessReport",
    "TorusMap",
    "UnimodularSolution",
    "ValidityReport",
    "Verdict",
    "Violation",
    "canonical_form",
    "corner_quotient",
    "enumerate_census",
    "even_substitution",
    "hnf",
    "is_direct_summand",
    "lift_diffeo",
    "orbit_map",
    "parse_document",
    "parse_pair",
    "primitive_vectors_in_box",
    "relabel",
    "rename_faces",
    "run_local_checks",
    "saturate",
    "section_compat_check",
    "serialize_pair",
    "serialize_poset",
    "smoothness_probe",
    "snf_diagonal",
    "solve_unimodular",
    "standard_section",
    "strong_equivalence",
    "validate_characteristic",
    "validate_poset",
    "verify_witness",
    "weak_equivalence",
]
