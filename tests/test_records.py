"""Record contracts: the 20 record classes of fracdyn.

Every record is a named tuple.  Each keeps the constructor it had as a
dataclass: keyword names, positional order and defaults.  None can be
assigned to, and the records that check their inputs refuse the same bad
inputs with the same messages.
"""

import copy
import inspect
import re

import numpy as np
import pytest

import fracdyn
from fracdyn import DimensionError, DomainError, FosModel, NotSPD, SingularError, augment_p

#: The constructor of each record: parameter names in order, "=" and the default.
SIGNATURES = {
    "FosModel": "alpha A B=None Bw=None",
    "MultiTermNetwork": "state_terms input_terms=() disturbance_terms=() C=None",
    "AugmentedModel": "kind depth Atil Btil Gtil Ctil n m q",
    "NetworkSeries": "A B G",
    "Trajectory": "states inputs=None outputs=None noises=None dt=1.0",
    "StabilityReport": "eigenvalues margins alpha verdict",
    "GramianReport": "matrix rank smallest_retained",
    "ObservabilityReport": "obsv gramian rank",
    "FractionalTransferFunction": "num=None den=None ss=None",
    "FrequencyResponse": "omega response",
    "OlsBound": "value side_lhs side_rhs side_ok lambda_min logdet",
    "OlsResult": "A_hat residuals normal_residual ridge",
    "IdentificationResult": "alpha_hat A_hat mse iterations window flags",
    "EstimatorConfig": "Q R P0 xhat0",
    "EstimatorState": "k xhat P gain M aug config",
    "EstimationRun": "estimates base_estimates err_norms terminal_error sup_error",
    "MpcProblem": "p P M Q R c=None u_lo=-inf u_hi=inf state_H=None state_h=None "
                  "hard_state=False",
    "MpcSolution": "u predicted cost kkt_residual active_lower active_upper penalty_cost=0.0",
    "CondensedProblem": "powers S Qbar H cvec lo hi rows rows_S J G g W neq atol zpad",
    "ClosedLoopResult": "trajectory applied cycle_costs solutions solve_steps noise=None",
}

_LIFT = augment_p(FosModel(alpha=[0.5], A=[[0.2]], B=[[1.0]]), 2)

#: Keywords for the records that check their inputs; the others take any values.
REQUIRED = {
    "FosModel": dict(alpha=[0.5], A=[[0.2]]),
    "MultiTermNetwork": dict(state_terms=[(0.6, [[2.0]])]),
    "AugmentedModel": {key: getattr(_LIFT, key) for key in SIGNATURES["AugmentedModel"].split()},
    "Trajectory": dict(states=[[0.0], [1.0]]),
    "FractionalTransferFunction": dict(den=[(1, 0.5)]),
    "EstimatorConfig": dict(Q=1.0, R=1.0, P0=1.0, xhat0=0.0),
    "MpcProblem": dict(p=1, P=2, M=1, Q=1.0, R=1.0),
}

#: What each defaulted field reads after keyword construction.
DEFAULTS = {
    "FosModel": dict(B=np.zeros((1, 0)), Bw=np.eye(1)),
    "MultiTermNetwork": dict(input_terms=(), disturbance_terms=(), C=np.eye(1),
                             lead_condition=1.0),
    "Trajectory": dict(inputs=None, outputs=None, noises=None, dt=1.0),
    "FractionalTransferFunction": dict(num=(), ss=None),
    "MpcProblem": dict(c=None, u_lo=np.array(-np.inf), u_hi=np.array(np.inf), state_H=None,
                       state_h=None, hard_state=False),
    "MpcSolution": dict(penalty_cost=0.0),
    "ClosedLoopResult": dict(noise=None),
}


def build(name):
    """The record ``name`` built by keyword from its required fields."""
    cls = getattr(fracdyn, name)
    kwargs = REQUIRED.get(name) or {p: object() for p in SIGNATURES[name].split() if "=" not in p}
    return cls(**kwargs), kwargs


def test_the_table_names_every_record():
    assert len(SIGNATURES) == 20 and set(REQUIRED) <= set(SIGNATURES)


@pytest.mark.parametrize("name", SIGNATURES)
def test_a_record_keeps_its_constructor(name):
    params = inspect.signature(getattr(fracdyn, name)).parameters.values()
    got = " ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params)
    assert got == SIGNATURES[name]


@pytest.mark.parametrize("name", SIGNATURES)
def test_a_record_builds_by_keyword_with_its_defaults(name):
    record, kwargs = build(name)
    assert isinstance(record, tuple)
    if name not in REQUIRED:  # a record that checks nothing holds what it was given
        assert all(getattr(record, key) is value for key, value in kwargs.items())
    for key, want in DEFAULTS.get(name, {}).items():
        got = getattr(record, key)
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want, strict=True)
        else:
            assert got == want and type(got) is type(want), key


@pytest.mark.parametrize("name", SIGNATURES)
def test_a_record_cannot_be_assigned_to(name):
    record, _ = build(name)
    for field in record._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_a_network_copies_with_its_lead_condition():
    net = fracdyn.MultiTermNetwork(state_terms=[(0.6, [[2.0]])])
    assert copy.deepcopy(net).lead_condition == net.lead_condition == 1.0


I2 = np.eye(2)

REFUSED = [
    ("FosModel", dict(alpha=[0.5, 0.6], A=[[0.2]]), DimensionError,
     "alpha must have length 1"),
    ("FosModel", dict(alpha=[0.5], A=[[0.2, 0.1]]), DimensionError, "A must be square, got (1, 2)"),
    ("FosModel", dict(alpha=[np.nan], A=[[0.2]]), DomainError, "alpha entries must be finite"),
    ("FosModel", dict(alpha=[2.5], A=[[0.2]]), DimensionError, "alpha entries must lie in [-1, 2)"),
    ("FosModel", dict(alpha=[True], A=[[0.2]]), DimensionError,
     "alpha must be numbers, got [True]"),
    ("FosModel", dict(alpha=[0.5], A=[[0.2]], B=[[1.0], [2.0]]), DimensionError,
     "B must have 1 rows, got 2"),
    ("FosModel", dict(alpha=[0.5], A=[[0.2]], Bw=[[np.nan]]), DomainError,
     "Bw entries must be finite"),
    ("MultiTermNetwork", dict(state_terms=[]), DimensionError,
     "at least one state term is required"),
    ("MultiTermNetwork", dict(state_terms=[(0.0, I2)]), DimensionError,
     "state term exponents must be positive and finite, got 0.0"),
    ("MultiTermNetwork", dict(state_terms=[("a", I2)]), DimensionError,
     "state terms must be (exponent, matrix) pairs with numeric exponents"),
    ("MultiTermNetwork", dict(state_terms=[(0.5, I2), (0.3, np.eye(3))]), DimensionError,
     "state-term matrices must be square and same size"),
    ("MultiTermNetwork",
     dict(state_terms=[(0.5, I2)], input_terms=[(0.5, I2), (0.5, [[1], [1]])]), DimensionError,
     "input-term matrices must share a column count"),
    ("MultiTermNetwork", dict(state_terms=[(0.5, I2)], C=np.eye(3)), DimensionError,
     "C must have 2 columns, got 3"),
    ("MultiTermNetwork", dict(state_terms=[(0.5, I2)], C=np.ones((2, 2, 3))), DimensionError,
     "per-step C must have shape (T, q, 2)"),
    ("MultiTermNetwork", dict(state_terms=[(0.5, [[1.0, 0.0], [0.0, 0.0]])]), SingularError,
     "sum of state-term matrices is singular to tolerance (cond=inf)"),
    ("MpcProblem", dict(p=2.5, P=2, M=1, Q=1.0, R=1.0), DomainError,
     "model depth p must be a whole number, got 2.5"),
    ("MpcProblem", dict(p=1, P=True, M=1, Q=1.0, R=1.0), DomainError,
     "prediction horizon P must be a whole number, got True"),
    ("MpcProblem", dict(p=0, P=2, M=1, Q=1.0, R=1.0), DomainError, "model depth p must be >= 1"),
    ("MpcProblem", dict(p=1, P=0, M=1, Q=1.0, R=1.0), DomainError,
     "prediction horizon P must be >= 1"),
    ("MpcProblem", dict(p=1, P=2, M=3, Q=1.0, R=1.0), DomainError,
     "control horizon M must satisfy 1 <= M <= P"),
    ("MpcProblem", dict(p=1, P=2, M=1, Q=-1.0, R=1.0), NotSPD, "Q must be positive semidefinite"),
    ("MpcProblem", dict(p=1, P=2, M=1, Q=1.0, R=0.0), NotSPD, "R must be positive definite"),
    ("MpcProblem", dict(p=1, P=2, M=1, Q=1.0, R=1.0, c=[np.nan]), DomainError,
     "c entries must be finite"),
    ("MpcProblem", dict(p=1, P=2, M=1, Q=1.0, R=1.0, u_lo=1.0, u_hi=0.0), DomainError,
     "u_lo exceeds u_hi, or a bound is NaN"),
    ("MpcProblem", dict(p=1, P=2, M=1, Q=1.0, R=1.0, state_H=[[1.0]]), DomainError,
     "state_H and state_h must be given together"),
    ("MpcProblem", dict(p=1, P=2, M=1, Q=1.0, R=1.0, state_H=[[1.0]], state_h=[1.0, 2.0]),
     DimensionError, "state_h must have 1 entries, one a state_H row"),
    ("MpcProblem", dict(p=1, P=2, M=1, Q=1.0, R=1.0, state_H=[[1.0]], state_h=[-np.inf]),
     DomainError, "state_h limits must not be NaN, nor -inf on a soft row "
                  "(its slack would cost infinitely)"),
    ("EstimatorConfig", dict(Q=-1.0, R=1.0, P0=1.0, xhat0=0.0), NotSPD,
     "Q must be positive definite"),
    ("EstimatorConfig", dict(Q=1.0, R=[[1.0, 2.0], [0.0, 1.0]], P0=1.0, xhat0=0.0), NotSPD,
     "R must be symmetric"),
    ("EstimatorConfig", dict(Q=1.0, R=1.0, P0=np.nan, xhat0=0.0), DomainError,
     "P0 entries must be finite"),
    ("EstimatorConfig", dict(Q=1.0, R=1.0, P0=1.0, xhat0=[True]), DimensionError,
     "xhat0 must be numbers, got [True]"),
]


@pytest.mark.parametrize("name,kwargs,error,message", REFUSED)
def test_a_checked_record_refuses_bad_input_with_its_message(name, kwargs, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        getattr(fracdyn, name)(**kwargs)
