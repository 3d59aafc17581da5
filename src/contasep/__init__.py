"""Deterministic continuum exclusion dynamics with obstacles.

Simulator and analysis toolkit: parallel-update particle dynamics with
per-segment speed limits and waiting obstacles, flow-law prediction and phase
classification, zero-range lattice equivalence, coupled-process diagnostics,
and constructive scenarios.
"""
from .core import (
    ConfigurationError,
    ContasepError,
    CouplingError,
    DegenerateInputError,
    Domain,
    ExtendedObstacleField,
    INFINITY,
    InvariantViolationError,
    Line,
    ObserverError,
    ObstacleField,
    ParticleConfig,
    PropertyViolationError,
    RefinedObstacleField,
    Ring,
    Scalar,
    build_extended,
    extended_density,
    format_scalar,
    gap,
    modified_gap,
    parse_scalar,
    refine_waiting,
)
from .coupling import (
    CoupledState,
    CouplingDiagnostics,
    apply_pairing,
    detect_overtakes,
    is_proper,
    run_coupled,
)
from .dynamics import (
    InvariantChecker,
    Replicas,
    SimState,
    TrajectorySummary,
    TrajectoryWriter,
    displacements,
    local_velocity,
    run,
    step,
)
from .scenarios import (
    SCENARIOS,
    ScenarioResult,
    ScenarioSpec,
    adversarial_velocities,
    half_integer_counterexample,
    irregular_example,
    make_obstacles,
    run_scenario,
    scale_config,
)
from .stats import (
    DensityEstimate,
    ExtendedBoundsReport,
    VelocityEstimate,
    check_extended_bounds,
    classify_phase,
    density,
    estimate_density,
    one_sided_density,
    one_sided_profile,
    predict_velocity,
    velocity,
    velocity_estimate,
    velocity_spread,
)
from .zerorange import (
    EquivalenceReport,
    TrackedZeroRange,
    ZeroRangeState,
    embed_and_compare,
    hetero_velocity,
    zr_step,
    zr_step_tracked,
    zr_trajectory,
    zr_velocity,
)

__version__ = "0.1.0"
