"""One weight rule for the estimator and the controller.

``EstimatorConfig`` and ``MpcProblem`` read their quadratic weights through the
same rule: a number is that multiple of I, a vector is the diagonal, then a
matrix, or a per-step schedule.  So each form means the same blocks in both,
and a bad weight fails the same way in both, naming the weight.
"""

import json

import numpy as np
import pytest

import fracdyn.estimate as estimate
from fracdyn import (
    DimensionError,
    DomainError,
    EstimatorConfig,
    FosModel,
    MpcProblem,
    MultiTermNetwork,
    NotSPD,
    Trajectory,
    augment_v,
    condense,
    me_filter_init,
    me_filter_step,
    simulate_network,
)
from fracdyn.cli import main
from fracdyn.fileio import write_model, write_trajectory

#: Filter steps and horizon length; a schedule of STEPS + 1 blocks serves both.
STEPS = 4
#: Two states and two outputs, so Q and R have 2x2 blocks in the filter.
NET = MultiTermNetwork(state_terms=((0.6, np.eye(2)), (0.3, [[0.0, 0.1], [0.1, 0.0]])),
                       disturbance_terms=((0.7, np.eye(2)),), C=np.eye(2))
#: Two states and two inputs, so Q and R have 2x2 blocks in the controller.
PLANT = FosModel(alpha=[0.5, 0.7], A=[[-0.2, 0.1], [0.0, -0.3]], B=np.eye(2))


def filtered(**weights):
    """(xhat, P) after STEPS filter steps, unit weights except ``weights``."""
    aug = augment_v(NET, 2)
    state = me_filter_init(aug, EstimatorConfig(**{"Q": 1.0, "R": 1.0, "P0": 1.0, "xhat0": 0.0,
                                                   **weights}))
    for k in range(STEPS):
        state = me_filter_step(state, None, [np.sin(k), np.cos(k)])
    return state.xhat, state.P


def condensed(**weights):
    """(Qbar, H) of the horizon-STEPS problem, unit weights except ``weights``."""
    cp = condense(MpcProblem(p=2, P=STEPS, M=1, **{"Q": 1.0, "R": 1.0, **weights}), PLANT)
    return cp.Qbar, cp.H


MATRIX = [[2.0, 0.5], [0.5, 1.0]]
SCHEDULE = [(1.0 + 0.5 * k) * np.array(MATRIX) for k in range(STEPS + 1)]
#: form -> (weight, the same weight as an explicit per-step schedule)
FORMS = {
    "number": (0.5, [0.5 * np.eye(2)] * (STEPS + 1)),
    "vector": ([0.5, 2.0], [np.diag([0.5, 2.0])] * (STEPS + 1)),
    "matrix": (MATRIX, [np.array(MATRIX)] * (STEPS + 1)),
    "schedule": ([block.tolist() for block in SCHEDULE], SCHEDULE),
}


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("key", ["Q", "R"])
def test_each_form_weights_the_filter_and_the_controller_alike(key, form):
    weight, blocks = FORMS[form]
    for run in (filtered, condensed):
        for got, want in zip(run(**{key: weight}), run(**{key: np.stack(blocks)})):
            assert np.array_equal(got, want), (run.__name__, key, form)


BAD = {
    "non-square": (np.ones((2, 3)), NotSPD, "must be a number, a diagonal"),
    "asymmetric": ([[1.0, 0.5], [-0.5, 1.0]], NotSPD, "must be symmetric"),
    "indefinite": ([[1.0, 2.0], [2.0, 1.0]], NotSPD, "must be positive"),
    "4-D": (np.ones((1, 1, 2, 2)), NotSPD, "must be a number, a diagonal"),
    "wrong size": (np.eye(3), DimensionError, "must have 2x2 blocks"),
    "short schedule": (np.stack([np.eye(2)] * 2), DimensionError, "must cover step 2"),
}


@pytest.mark.parametrize("case", list(BAD))
@pytest.mark.parametrize("key", ["Q", "R"])
def test_a_bad_weight_fails_alike_in_the_filter_and_the_controller(key, case):
    weight, error, message = BAD[case]
    for run in (filtered, condensed):
        with pytest.raises(error, match=f"^{key} {message}"):
            run(**{key: weight})


def test_only_the_controller_state_weight_may_be_singular():
    singular = [[1.0, 0.0], [0.0, 0.0]]
    condensed(Q=singular)
    for key in ("Q", "R"):
        with pytest.raises(NotSPD, match=f"^{key} must be positive definite"):
            filtered(**{key: singular})
    with pytest.raises(NotSPD, match="^R must be positive definite"):
        condensed(R=singular)


def test_the_prior_resolves_against_the_lift():
    aug = augment_v(NET, 2)
    d = aug.dim
    base = [1.0, -0.5]
    lifted = np.zeros(d)
    lifted[:2] = base
    number = np.zeros(d)
    number[:2] = 0.3
    for xhat0, want in ((0.3, number), (base, lifted), (lifted, lifted)):
        state = me_filter_init(aug, EstimatorConfig(Q=1.0, R=1.0, P0=2.0, xhat0=xhat0))
        assert np.array_equal(state.xhat, want)
        assert np.array_equal(state.P, 2.0 * np.eye(d))
    with pytest.raises(DimensionError, match="^xhat0 must"):
        me_filter_init(aug, EstimatorConfig(Q=1.0, R=1.0, P0=2.0, xhat0=[1.0, 2.0, 3.0]))
    with pytest.raises(DomainError, match="^xhat0 entries must be finite"):
        me_filter_init(aug, EstimatorConfig(Q=1.0, R=1.0, P0=2.0, xhat0=[1.0, np.nan]))
    with pytest.raises(DomainError, match="^xhat0 entries must be finite"):
        EstimatorConfig.from_scalars(aug, 1.0, 1.0, 1.0, None)
    with pytest.raises(DimensionError, match=f"^P0 must have {d}x{d} blocks"):
        me_filter_init(aug, EstimatorConfig(Q=1.0, R=1.0, P0=[1.0, 2.0], xhat0=0.0))


def test_a_number_prior_starts_the_filter_alike_from_every_entry_point(tmp_path, monkeypatch):
    # a number sets every base state and leaves the history at zero, whether
    # it reaches the filter through the config, from_scalars or the CLI
    aug = augment_v(NET, 2)
    want = np.zeros(aug.dim)
    want[: aug.n] = 0.5
    starts = [me_filter_init(aug, EstimatorConfig(Q=1.0, R=1.0, P0=1.0, xhat0=0.5)).xhat,
              me_filter_init(aug, EstimatorConfig.from_scalars(aug, 1.0, 1.0, 1.0, 0.5)).xhat]

    def recording_init(aug, config):
        state = me_filter_init(aug, config)
        starts.append(state.xhat)
        return state

    monkeypatch.setattr(estimate, "me_filter_init", recording_init)
    net_path, traj_path, config = tmp_path / "net.json", tmp_path / "meas.csv", tmp_path / "c.json"
    write_model(str(net_path), NET)
    truth = simulate_network(NET, [1.0, -0.5], w=0.01 * np.ones((STEPS, 2)), K=STEPS)
    write_trajectory(str(traj_path), Trajectory(states=truth.states, outputs=truth.outputs))
    config.write_text(json.dumps({"v": 2, "xhat0": 0.5}))
    assert main(["estimate", "--model", str(net_path), "--trajectory", str(traj_path),
                 "--config", str(config), "--out", str(tmp_path / "est.csv")]) == 0
    assert len(starts) == 3
    for start in starts:
        assert np.array_equal(start, want)
