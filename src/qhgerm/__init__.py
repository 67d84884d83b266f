"""Exact decision of right-equivalence for quasihomogeneous plane germs.

The package decides whether two non-homogeneous quasihomogeneous complex
polynomials in X, Y are analytically (equivalently bi-Lipschitz)
right-equivalent as germs at the origin, and constructs and verifies
explicit witness coordinate changes. Exact Gaussian-rational arithmetic
carries the verdicts; an mpmath-based numeric kernel, which imports mpmath
on first use, provides independent oracles and witness realization at
arbitrary precision.
"""

from .errors import (
    AmbiguousClusteringError,
    BranchOutOfRangeError,
    DegenerateConfigurationError,
    EmptyInputError,
    FormulaMismatchError,
    InternalInconsistencyError,
    NegativeExponentError,
    NonConvergenceError,
    NotEquivalentVerdictError,
    NotQuasihomogeneousError,
    ParseError,
    QhgermError,
    WeightMismatchError,
    ZeroPolynomialError,
)
from .exact import (
    GQ_I,
    GQ_ONE,
    GQ_ZERO,
    GaussianRational,
    UniPoly,
    format_coefficient,
    format_unipoly,
    gcd_bezout,
    gq,
)
from .polyio import (
    MODE_EXACT,
    MODE_NUMERIC,
    BivarPoly,
    X,
    Y,
    format_poly,
    parse_poly,
)
from .structure import (
    HOMOGENEOUS,
    MONOMIAL_LIKE,
    NON_HOMOGENEOUS_QH,
    CanonicalForm,
    GermAnalysis,
    WeightSignature,
    analyze_germ,
    infer_weights,
    validate_weights,
)
from .numeric import (
    ComplexApprox,
    NumericMatch,
    RootCluster,
    cluster_roots,
    eval_bivar,
    find_roots,
    nth_root,
    numeric_match,
    to_mpc,
)
from .engine import (
    DEFAULT_PRECISION,
    DEFAULT_TOL,
    MIN_PRECISION,
    STATUS_EQUIVALENT,
    STATUS_INEQUIVALENT,
    STATUS_NOT_APPLICABLE,
    RadicalScalar,
    ScaleClass,
    ShearTerm,
    VerificationReport,
    Verdict,
    Witness,
    affine_multiset_match,
    build_witness,
    cross_ratio,
    decide_equivalence,
    j_from_cross_ratio,
    ladder_roots,
    linear_multiset_match,
    scalar_to_mpc,
    verify_witness,
    whitney_compare,
    whitney_configuration,
    whitney_quartic,
    witness_branch_count,
    witness_to_mpc,
)

__version__ = "1.0.0"

# every public name imported above, without the submodules that importing binds
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(engine))
)
