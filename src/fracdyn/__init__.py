"""Discrete-time fractional-order dynamical systems toolkit.

Subpackages cover the full pipeline: Grunwald-Letnikov kernels (fraccore),
model containers and finite-memory lifts (model), forward simulation
(simulate), stability / controllability / observability / frequency response
(analysis), bilevel bisection + least-squares identification (sysid),
minimum-energy state estimation (estimate), and receding-horizon predictive
control with box input constraints (mpc).  A batch CLI wires the pieces
together (`python -m fracdyn` or `fracdyn`).  fracdyn imports numpy only.

The namespace loads on first use (PEP 562): ``import fracdyn`` imports no
submodule and no numpy, and ``fracdyn.X`` or ``from fracdyn import X`` imports
the module that defines X and what that module imports.  Records (models,
problems, results) are named tuples: they unpack and index, ``==`` on their
array fields raises as numpy's ``==`` does, and ``_replace`` skips the checks
that construction runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: The public names of each submodule, as its ``__all__`` declares them
#: (``errors``: every class it defines).
_NAMES = {
    "errors": """BranchWarning DimensionError DomainError EigenFailure FracdynError
        InfeasibleStateConstraints InnovationSingular NonFiniteError NotControllable
        NotObservable NotSPD SingularError""".split(),
    "fraccore": "build_weight_table history_sum frac_difference".split(),
    "model": """FosModel MultiTermNetwork Trajectory AugmentedModel NetworkSeries aj_series
        augment_p network_series augment_v""".split(),
    "simulate": """FosSimulator simulate_fos simulate_network simulate_augmented
        transition_matrices gaussian_noise""".split(),
    "analysis": """StabilityReport GramianReport ObservabilityReport FractionalTransferFunction
        FrequencyResponse commensurate_stability augmented_spectral_radius
        controllability_gramian deadbeat_input observability_matrices
        reconstruct_initial_state tf_eval fopid_response""".split(),
    "sysid": """IdentificationResult OlsResult OlsBound identify ols_spatial bisection_bound
        finite_time_gramian ols_error_bound""".split(),
    "estimate": """EstimatorConfig EstimatorState EstimationRun me_filter_init me_filter_step
        me_batch run_estimator""".split(),
    "mpc": """MpcProblem MpcSolution ClosedLoopResult CondensedProblem condense solve_horizon
        run_closed_loop uncontrolled_baseline""".split(),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = [*_NAMES, *_HOME]


def __getattr__(name):
    if name in _NAMES:  # importing a submodule sets it as an attribute here
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
