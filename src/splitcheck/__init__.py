"""Exact-arithmetic verification of line-bundle splitting obstructions.

Graded cohomology rings with rational coefficients, characteristic classes
of sums of complex line bundles, certified exhaustive integer searches, the
chi_y genus with its congruences, and representation-dimension obstructions,
all over exact rationals with machine-checkable certificates.
"""

__version__ = "0.1.0"

from .cases import builtin_case, list_builtin_cases
from .charclass import (
    LineBundleSum,
    MatchReport,
    RankError,
    TargetClasses,
    TargetError,
    TargetMatcher,
    euler_class,
    first_pontryagin,
    matches_targets,
    total_chern,
)
from .genus import (
    ChernRootData,
    TelescopeReport,
    YPolynomial,
    chi_y,
    chi_y_scaled,
    duality_check,
    euler_from_chi,
    hirzebruch_congruence,
    signature_direct,
    signature_from_chi,
    telescoped_congruence,
    todd_from_chi,
    top_chern_integral,
)
from .repcat import (
    Irrep,
    IrrepCatalog,
    ObstructionCase,
    ObstructionResult,
    ProductIrrep,
    RootSystem,
    catalog_irreps,
    field_type,
    obstruct_tangent_rep,
    weyl_dim,
)
from .ring import (
    ConfluenceError,
    DegreeError,
    DivergenceError,
    GradedClass,
    PresentationError,
    RewriteRule,
    RingPresentation,
    basis,
    check_confluence,
    integrate,
    normal_form,
    parse_presentation,
    ring_add,
    ring_mul,
    ring_pow,
    ring_scale,
    ring_sub,
)
from .search import (
    BoundError,
    DerivedBounds,
    ExplicitBound,
    SearchCertificate,
    SearchSpec,
    SumOfSquaresBound,
    canonicalize_solution,
    derive_bounds,
    enumerate_splittings,
)

__all__ = [name for name in dir() if not name.startswith("_")]
