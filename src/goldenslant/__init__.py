"""Golden structures, slant submanifolds and space-form curvature checks."""

__version__ = "0.1.0"

from .config import ScenarioConfig, Tolerances, load_config, parse_config
from .errors import (
    BadSignature,
    ConfigError,
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    GoldenslantError,
    InvalidInvolution,
    InvalidStructure,
    LambdaZero,
    MetricIncompat,
    NotAntiInvariant,
    NotInvariant,
    NotSlant,
    RankDeficient,
    UnknownIdentifier,
    ZeroVector,
)
from .expr import Expr, eval_jet, parse
from .extrinsic import (
    SecondFundamentalForm,
    anti_invariant_shape_vanishing,
    gauss_split_residual,
    invariant_connection_check,
    second_fundamental_form,
)
from .jets import Jet2
from .quadrat import ONE_MINUS_PSI, PSI, SQRT5, QuadRat, parse_quadrat
from .slant import (
    SlantReport,
    characterization_residual,
    classify,
    corollary_residual,
    lemma_pq_identities,
    reference_cosine,
    slant_angle_at,
    tq_identity_residual,
)
from .spaceform import (
    SpaceFormModel,
    curvature,
    curvature_commutation_checks,
    nabla_identities_certificate,
    non_semi_symmetry_probe,
    r_dot_s,
    r_dot_s_closed_form,
    ricci_closed,
    ricci_framesum,
    ricci_phi_checks,
    rs_phi_propositions,
)
from .structures import (
    AlmostProductStructure,
    GoldenStructure,
    Metric,
    StructureReport,
    diagonal_golden,
    golden_eigendecomp,
    golden_from_product,
    product_from_golden,
    random_golden,
    verify_golden,
)
from .submanifold import (
    ImmersionSpec,
    InducedOperators,
    SampleSpec,
    TangentFrame,
    frame_at,
    induced_operators,
    structural_identity_residuals,
)
from .suites import render_report, run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
