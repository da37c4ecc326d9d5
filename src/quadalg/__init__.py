"""Exact classification of two-generator quadratic algebras.

A degree-two relation f presents an algebra on x and y; its defining matrix
is canonicalized under standard-form congruence with an independently
checkable change-of-variables witness.  The canonical class names the
algebra and, after homogenization by a central generator, the homogenized
algebra as well.
"""

from .scalar import (
    Enclosure,
    Scalar,
    ScalarError,
    TowerDepthError,
    as_scalar,
    enclosure_decimal,
    format_scalar,
    sqrt_extend,
)
from .matrix import (
    DegreeError,
    Mat2,
    Mat3,
    StdFormMatrix,
    coeffs_from_matrix,
    matrix_from_coeffs,
    sf_map,
)
from .congruence2 import (
    Canon2Label,
    Label,
    canon2,
    canonical_mat2,
    kappa,
    reciprocal_equivalent,
    stab_membership,
)
from .sfcanon import (
    CANONICAL_TAGS,
    CanonicalClass,
    SfWitness,
    canonical_matrix,
    orbit_sample,
    orbit_sample_with_witness,
    scaling,
    sf_canonicalize,
    sf_compare,
    sf_congruent,
    verify_witness,
)
from .ncrewrite import (
    DegreeBoundError,
    NCPoly,
    NotOrientableError,
    RewriteSystem,
    Rule,
    leading_word,
    locally_confluent,
    orient,
    parse_precedence,
    reduce,
    substitute,
    system_from_relations,
)
from .algebra import (
    ALGEBRA_NAMES,
    ENVV_BRIDGE,
    H_CLASS_NAMES,
    AlgebraClass,
    HClass,
    HTriple,
    algebra_of_class,
    classify,
    classify_h,
    h_class_of,
    homogenize,
    iso_check,
    poly_from_sf,
    qas_iso,
    sf_from_poly,
    verified_uv_bridge,
)
from .polyio import (
    PolySyntaxError,
    available_systems,
    canonicalization_report,
    classification_report,
    congruence_report,
    format_poly,
    homogenize_report,
    load_system,
    matrix_document,
    matrix_from_document,
    parse_poly,
    parse_scalar,
    witness_document,
    witness_from_document,
)

__version__ = "0.1.0"
