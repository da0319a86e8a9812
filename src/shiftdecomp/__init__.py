"""Exact verification toolkit for multiplicative-subgroup decomposition claims.

Everything runs over a prime field F_p with exact arithmetic (or, for the
roots-of-unity component, over C with an exact combinatorial cross-check):
auxiliary-polynomial bounds, exhaustive product/sum/ratio/difference
decomposition searches, symmetric-function identities, and Mobius-map
classification on the unit circle.
"""

from .errors import (
    BoundViolationError,
    DegenerateInputError,
    FactorialOverflowError,
    HypothesisViolatedError,
    InternalMismatchError,
    MissingZeroError,
    ModulusMismatchError,
    NonInvertibleIndexError,
    NotADivisorError,
    NotASubgroupError,
    NotPrimeError,
    OutOfRangeError,
    ShiftDecompError,
    TheoremViolation,
    UnexpectedRootError,
    ZeroDivisorError,
    ZeroElementError,
    ZeroInTargetError,
    ZeroParameterError,
    ZeroPolynomialError,
    ZeroScaleError,
)
from .field import (
    MAX_PRIME,
    FieldContext,
    MultSubgroup,
    enumerate_proper_subgroups,
    is_prime,
    make_field,
    subgroup_of_order,
)
from .sets import ElementSet, SetOp, compose_sets
from .poly import DensePoly, root_multiplicity
from .symfunc import (
    elementary_from_power_sums,
    elementary_from_roots,
    power_sums,
    reconstruct_polynomial_from_power_sums,
    roots_over_field,
)
from .stepanov import (
    AuxAudit,
    audit_instance,
    build_auxiliary_polynomial,
    check_derivative_ratio,
    check_gf_identity,
    check_hp_additive_bound,
    harmonic_sum_identity,
    solve_coefficients,
)
from .search import (
    DecompWitness,
    SearchReport,
    canonical_product_witness,
    factorization_oracle,
    find_difference_representations,
    find_exact_factorizations,
    find_ratio_representations,
    max_difference_clique,
)
from .unity import (
    INF,
    MobiusMap,
    ProductClaimVerdict,
    UnityGroup,
    check_xk_product_claim,
    classify_circle_preserving_maps,
    mobius_fit,
    search_2x2_decomposition,
)
from .audits import (
    AuditKind,
    audit_theorems,
    build_target,
    primes_in_range,
    reproduce_counterexamples,
)
from .suites import (
    IdentitySuiteResult,
    StepanovSuiteResult,
    UnitySuiteResult,
    run_identity_suite,
    run_stepanov_suite,
    run_unity_suite,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ShiftDecompError", "NotPrimeError", "OutOfRangeError", "NotADivisorError",
    "NotASubgroupError", "ZeroElementError", "ModulusMismatchError", "ZeroDivisorError",
    "ZeroScaleError", "ZeroParameterError", "ZeroInTargetError",
    "MissingZeroError", "InternalMismatchError",
    "ZeroPolynomialError", "HypothesisViolatedError", "BoundViolationError",
    "UnexpectedRootError", "FactorialOverflowError", "NonInvertibleIndexError",
    "DegenerateInputError", "TheoremViolation",
    # field
    "MAX_PRIME", "FieldContext", "MultSubgroup", "make_field", "is_prime",
    "subgroup_of_order", "enumerate_proper_subgroups",
    # sets
    "ElementSet", "SetOp", "compose_sets",
    # poly
    "DensePoly", "root_multiplicity",
    # symfunc
    "power_sums", "elementary_from_roots",
    "elementary_from_power_sums", "reconstruct_polynomial_from_power_sums",
    "roots_over_field",
    # stepanov
    "AuxAudit", "solve_coefficients",
    "build_auxiliary_polynomial", "audit_instance", "check_hp_additive_bound",
    "check_gf_identity", "check_derivative_ratio", "harmonic_sum_identity",
    # search
    "DecompWitness", "SearchReport", "canonical_product_witness",
    "find_exact_factorizations", "factorization_oracle",
    "find_ratio_representations", "find_difference_representations",
    "max_difference_clique",
    # unity
    "INF", "UnityGroup", "MobiusMap", "ProductClaimVerdict",
    "mobius_fit", "check_xk_product_claim", "classify_circle_preserving_maps",
    "search_2x2_decomposition",
    # audits
    "AuditKind", "build_target", "primes_in_range", "audit_theorems",
    "reproduce_counterexamples",
    # suites
    "StepanovSuiteResult", "IdentitySuiteResult", "UnitySuiteResult",
    "run_stepanov_suite", "run_identity_suite", "run_unity_suite",
]
