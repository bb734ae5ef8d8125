"""2-dimensional representations of a rank-2 Hecke algebra at complex
parameter specializations: construction, irreducibility decisions validated
against a brute-force oracle, and exact symbolic verification of the
underlying algebraic identities."""

from .exact import (
    DenominatorVanishes,
    DivisionByZero,
    ExtElem,
    InconsistentRootImage,
    Poly,
    RatElem,
    eval_numeric,
    rat_equals,
    substitute,
)
from .identities import (
    IdentityReport,
    REGISTRY,
    report_as_dict,
    run_all,
    sym_generators,
    w_alpha_beta,
)
from .irreducibility import (
    ALL_CASES,
    BranchDiagnosis,
    ConditionFlag,
    ConditionNotSatisfied,
    ContradictoryCase,
    Verdict,
    decide,
    invariant_vector_predicted,
    oracle_verdict,
    regime,
    solve_case,
    theorem_verdict,
)
from .matrix2 import (
    EigenReport,
    Mat2,
    Vec2,
    common_eigenvector,
    eigen_directions,
    normalize_direction,
    parallel,
)
from .numerics import (
    VERDICT_TOL,
    approx_eq,
    from_polar,
    principal_sqrt,
)
from .representation import (
    GeneratorTriple,
    InvalidParams,
    Params,
    braid_residual,
    build_general,
    conjugator,
    delta,
    hecke_residuals,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CASES",
    "BranchDiagnosis",
    "ConditionFlag",
    "ConditionNotSatisfied",
    "ContradictoryCase",
    "DenominatorVanishes",
    "DivisionByZero",
    "EigenReport",
    "ExtElem",
    "GeneratorTriple",
    "IdentityReport",
    "InconsistentRootImage",
    "InvalidParams",
    "Mat2",
    "Params",
    "Poly",
    "RatElem",
    "REGISTRY",
    "Vec2",
    "Verdict",
    "VERDICT_TOL",
    "approx_eq",
    "braid_residual",
    "build_general",
    "common_eigenvector",
    "conjugator",
    "decide",
    "delta",
    "eigen_directions",
    "eval_numeric",
    "from_polar",
    "hecke_residuals",
    "invariant_vector_predicted",
    "normalize_direction",
    "oracle_verdict",
    "parallel",
    "principal_sqrt",
    "rat_equals",
    "regime",
    "report_as_dict",
    "run_all",
    "solve_case",
    "substitute",
    "sym_generators",
    "theorem_verdict",
    "w_alpha_beta",
]
