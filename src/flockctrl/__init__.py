"""Mean-field flocking simulator with sparse control synthesis.

Weighted particle ensembles evolve under nonlocal velocity alignment; the
control modules build explicit band-shaped feedback laws that steer any
compactly supported configuration into the flocking region while respecting
a mass or Lebesgue-volume budget on the controlled region at every instant.
"""

from .control_mass import (
    AlreadyFlockedSignal,
    ContractionError,
    DegenerateMeasureError,
    MassBudget,
    StepParams,
    StepRecord,
    StrategyBudgetError,
    StrategyResult,
    axis_step_params,
    build_control_piece,
    complete_strategy,
    fundamental_step,
    theorem4_threshold,
    theorem5_threshold,
)
from .control_space import (
    VolumeBudget,
    space_step_params,
    theorem6_threshold,
)
from .dynamics import (
    ControlPiece,
    ControlPlan,
    IntegrationError,
    SampleColumns,
    Trajectory,
    TrajectorySample,
    decay_rate_estimate,
    integrate,
)
from .ensemble import (
    Ensemble,
    FlockingMetrics,
    SupportBox,
    flocking_metrics,
    grid_ensemble,
    mass_quantile_cuts,
    normalized,
    support_box,
    uniform_box_ensemble,
    wasserstein1_1d,
)
from .flocking import (
    FlockingVerdict,
    corollary2_test,
    finite_dim_test,
    theorem3_test,
)
from .kernels import (
    ExponentialKernel,
    Kernel,
    PowerLawKernel,
    TabulatedKernel,
    interaction_field,
    inward_radii,
    kernel_from_dict,
    xi_eval,
)
from .runner import (
    ConfigError,
    RunSummary,
    Scenario,
    StrategyFailure,
    replay_plan,
    run_scenario,
    validate_config,
)

__version__ = "0.1.0"
