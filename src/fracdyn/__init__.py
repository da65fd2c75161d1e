"""Discrete-time fractional-order dynamical systems toolkit.

Subpackages cover the full pipeline: Grunwald-Letnikov kernels (fraccore),
model containers and finite-memory lifts (model), forward simulation
(simulate), stability / controllability / observability / frequency response
(analysis), bilevel bisection + least-squares identification (sysid),
minimum-energy state estimation (estimate), and receding-horizon predictive
control with box input constraints (mpc).  A batch CLI wires the pieces
together (`python -m fracdyn` or `fracdyn`).  fracdyn imports numpy only.
"""

from .errors import (
    BranchWarning,
    DimensionError,
    DomainError,
    EigenFailure,
    FracdynError,
    InfeasibleStateConstraints,
    InnovationSingular,
    NonFiniteError,
    NotControllable,
    NotObservable,
    NotSPD,
    PoleError,
    SingularError,
)
from .fraccore import (
    FracWeightTable,
    build_weight_table,
    frac_difference,
    gl_weight_recursive,
    history_sum,
)
from .model import (
    AugmentedModel,
    FosModel,
    MultiTermNetwork,
    NetworkSeries,
    aj_series,
    augment_p,
    augment_v,
    network_series,
)
from .simulate import (
    FosSimulator,
    Trajectory,
    gaussian_noise,
    simulate_augmented,
    simulate_fos,
    simulate_network,
    transition_matrices,
)
from .analysis import (
    FractionalTransferFunction,
    FrequencyResponse,
    GramianReport,
    ObservabilityReport,
    StabilityReport,
    augmented_spectral_radius,
    commensurate_stability,
    controllability_gramian,
    deadbeat_input,
    fopid_response,
    observability_matrices,
    reconstruct_initial_state,
    tf_eval,
)
from .sysid import (
    IdentificationResult,
    OlsBound,
    OlsResult,
    bisection_bound,
    finite_time_gramian,
    identify,
    ols_error_bound,
    ols_spatial,
)
from .estimate import (
    EstimationRun,
    EstimatorConfig,
    EstimatorState,
    me_batch,
    me_filter_init,
    me_filter_step,
    run_estimator,
)
from .mpc import (
    ClosedLoopResult,
    CondensedProblem,
    MpcProblem,
    MpcSolution,
    condense,
    run_closed_loop,
    solve_horizon,
    uncontrolled_baseline,
)

__version__ = "0.1.0"
