"""Exact-arithmetic divisor/curve intersection toolkit for moduli of stable
pointed rational curves, built around the 12-marking biplane divisor."""

__version__ = "0.1.0"

from .biplane import (
    Biplane,
    DesignReport,
    automorphism_group_order,
    automorphisms,
    build_biplane_qr,
    load_biplane,
    parse_biplane,
    verify_biplane,
)
from .cone import (
    DEFAULT_PRIMES,
    BoundaryCertificate,
    CounterexampleReport,
    ExtremalityReport,
    FNefReport,
    ProjectionFormulaReport,
    certify_not_boundary,
    extremality_rank,
    fnef_check,
    projection_formula_report,
    verify_counterexample,
)
from .divisors import (
    DivisorClass,
    biplane_block_star_divisor,
    biplane_divisor,
    canonical_divisor,
    divisor_from_json_dict,
    divisor_from_text,
    divisor_to_json_dict,
    divisor_to_text,
    eliminate_psi,
    load_divisor,
    pullback_forgetful,
    reduce_canonical,
    relation_row,
    relation_system,
    symmetric_divisor,
)
from .errors import (
    BoundaryFormError,
    FnefError,
    InvalidInputError,
    MalformedDesignError,
    MalformedInputError,
    VerificationFailedError,
)
from .pairing import (
    CurveFunctional,
    RelationCheck,
    biplane_curve_functional,
    check_relations,
    functional_from_json_dict,
    functional_to_json_dict,
    load_functional,
    pair_divisor_fcurve,
    pair_divisor_functional,
    pair_generator_fcurve,
    pairing_values,
)
from .subsets import (
    FCurve,
    canonical_generator,
    count_fcurves,
    enumerate_fcurves,
    fcurve_block_arrays,
    format_subset,
    parse_fcurve,
    parse_subset,
    stirling2,
)
