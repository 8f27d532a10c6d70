"""schwarz_lab: numerical verification of boundary Schwarz lemmas, invariant
metric bounds, and rigidity certificates on the unit balls of lp(C^n)."""

from .errors import (
    BadParams,
    DimensionMismatch,
    HypothesisFailed,
    InsufficientClearance,
    NoConvergence,
    NotOnBoundary,
    OutsideBall,
    PoleHit,
    SchemaError,
    SchwarzLabError,
    StepTooLarge,
    ZeroVector,
)
from .geometry import (
    BoundaryPoint,
    as_exponent,
    cinner,
    conjugate_exponent,
    cvector,
    norm_p,
    norming_functional,
    pluriharmonic_V,
    realify,
    rigidity_v,
    schwarz_v,
)
from .maps import (
    Compose,
    ConjugateCoordinate,
    Constant,
    Coordinate,
    LinearMatrix,
    MapExpr,
    MapTuple,
    MoebiusDisk,
    Power,
    Product,
    Scale,
    Sum,
    evaluate,
    identity_map,
    map_from_json,
    map_to_json,
)
from .gallery import (
    gallery,
    gallery_names,
    haar_unitary,
)
from .diff import (
    JacobianRecord,
    RadialDerivative,
    RichardsonConfig,
    complex_jacobian,
    complex_jacobian_fd,
    pluriharmonic_residual,
    radial_boundary_derivative,
    real_jacobian,
    tangent_pass,
)
from .verify import (
    CheckConfig,
    HypothesisCheck,
    Verdict,
    operator_norm_lower,
    sample_ball,
    verify_kalaj,
    verify_liu_wang,
    verify_lp_boundary_schwarz,
    verify_pluriharmonic_boundary,
    verify_product_slice,
    verify_schwarz_pick,
    verify_zhu,
)
from .caratheodory import (
    OptResult,
    competitor_membership_max,
    distance_lower_bound_opt,
    distance_origin_closed,
    metric_lower_bound_opt,
    metric_origin_closed,
    verify_caratheodory_distance,
    verify_caratheodory_metric,
)
from .rigidity import (
    RigidityInstance,
    RigidityReport,
    check_proof_chain,
    check_rigidity,
    counterexample_polydisk_eigen,
    equality_case_1d,
    halton_ball_grid,
)
from .suite import (
    JobSpec,
    SuiteConfig,
    emit_report,
    parse_suite,
    run_suite,
)

__version__ = "0.1.0"
