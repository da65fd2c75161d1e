"""The minimum-energy filter step as dense products, held against the library.

``dense_filter_step`` is the step fracdyn used to take: M = A P A^T + G Q G^T
and P = (I - K C) M as full d x d products.  The library assembles M from the
lift's copy, dense and noise rows instead, so it sums in another order and
must agree to 1e-12 relative to the largest magnitude of each quantity.
"""

import numpy as np
import pytest
import scipy.linalg

import fracdyn.estimate as estimate
from fracdyn import (
    EstimatorConfig,
    EstimatorState,
    FosModel,
    MultiTermNetwork,
    Trajectory,
    augment_p,
    augment_v,
    me_filter_init,
    me_filter_step,
    run_estimator,
    simulate_network,
)

RTOL = 1e-12


def dense_filter_step(state, u, y, C=None):
    aug, cfg = state.aug, state.config
    k = state.k
    u = np.zeros(aug.m) if u is None else np.atleast_1d(np.asarray(u, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    A, G = aug.Atil, aug.Gtil
    C = aug.Ctil if C is None else np.atleast_2d(np.asarray(C, dtype=float))
    Qk = estimate._weight_at(cfg.Q, k, "Q")
    Rk1 = estimate._weight_at(cfg.R, k + 1, "R")
    xpred = A @ state.xhat + aug.Btil @ u
    M = A @ state.P @ A.T + G @ Qk @ G.T
    S = C @ M @ C.T + Rk1
    factor = scipy.linalg.cho_factor(0.5 * (S + S.T))
    K = scipy.linalg.cho_solve(factor, C @ M.T).T
    xhat = xpred + K @ (y - C @ xpred)
    P = (np.eye(aug.dim) - K @ C) @ M
    P = 0.5 * (P + P.T)
    return EstimatorState(k=k + 1, xhat=xhat, P=P, gain=K, M=M, aug=aug, config=cfg)


def assert_close(actual, expected):
    scale = np.abs(expected).max(initial=0.0)
    err = np.abs(actual - expected).max(initial=0.0)
    assert err <= RTOL * scale, err / max(scale, 1e-300)


def _network(rng, n, m, q, C=None):
    inputs = ((0.5 + 0.4 * rng.random(), rng.normal(size=(n, m))),) if m else ()
    return MultiTermNetwork(
        state_terms=((0.3 + rng.random(), np.eye(n) + 0.2 * rng.normal(size=(n, n))),
                     (0.2 + rng.random(), 0.3 * rng.normal(size=(n, n)))),
        input_terms=inputs,
        disturbance_terms=((0.5 + rng.random(), rng.normal(size=(n, n))),),
        C=rng.normal(size=(q, n)) if C is None else C,
    )


def _config(rng, aug, steps=None):
    """Random SPD weights; with ``steps``, Q and R are per-step schedules."""
    def spd(size, count=None):
        L = rng.normal(size=(size, size) if count is None else (count, size, size))
        return L @ np.swapaxes(L, -1, -2) + size * np.eye(size)
    n_r, d = aug.Gtil.shape[1], aug.dim
    return EstimatorConfig(Q=spd(n_r, steps), R=spd(aug.q, None if steps is None else steps + 1),
                           P0=spd(d), xhat0=rng.normal(size=d))


def _run_both(aug, cfg, u, y, C=None):
    fast = dense = me_filter_init(aug, cfg)
    for k in range(y.shape[0]):
        Ck = None if C is None else C[k]
        fast = me_filter_step(fast, u[k], y[k], C=Ck)
        dense = dense_filter_step(dense, u[k], y[k], C=Ck)
        for name in ("xhat", "P", "M", "gain"):
            assert_close(getattr(fast, name), getattr(dense, name))


@pytest.mark.parametrize("v,m", [(1, 1), (2, 2), (40, 1), (3, 0)])
def test_structured_step_matches_the_dense_step_on_v_lifts(v, m):
    rng = np.random.default_rng(10 * v + m)
    n, q, N = 2, 1, 30
    aug = augment_v(_network(rng, n, m, q), v)
    u = rng.normal(size=(N, m))
    y = rng.normal(size=(N, q))
    _run_both(aug, _config(rng, aug), u, y)


def test_structured_step_matches_the_dense_step_on_a_p_lift():
    rng = np.random.default_rng(5)
    model = FosModel(alpha=[0.4, 0.9, 0.7], A=-0.2 * np.eye(3) + 0.05 * rng.normal(size=(3, 3)),
                     B=rng.normal(size=(3, 2)), Bw=rng.normal(size=(3, 2)))
    aug = augment_p(model, 6)
    N = 25
    _run_both(aug, _config(rng, aug), rng.normal(size=(N, 2)), rng.normal(size=(N, 3)))


def test_structured_step_matches_the_dense_step_with_schedules():
    # per-step Q, R and output maps, with a map that reads a history block
    rng = np.random.default_rng(6)
    aug = augment_v(_network(rng, 2, 1, 2), 4)
    N = 20
    C = np.zeros((N, 2, aug.dim))
    C[:, :, :2] = rng.normal(size=(N, 2, 2))
    C[::3, 1, 4:6] = rng.normal(size=(len(range(0, N, 3)), 2))
    C[5] = 0.0
    _run_both(aug, _config(rng, aug, steps=N), rng.normal(size=(N, 1)),
              rng.normal(size=(N, 2)), C)


def test_run_estimator_matches_the_dense_step_with_a_c_schedule(monkeypatch):
    rng = np.random.default_rng(7)
    K, v = 50, 5
    C = rng.normal(size=(K + 1, 1, 2))
    C[::4] = 0.0
    net = _network(rng, 2, 1, 1, C=C)
    u = 0.2 * rng.normal(size=(K, 1))
    truth = simulate_network(net, [1.0, -0.5], u=u, w=0.05 * rng.normal(size=(K, 2)), K=K)
    traj = Trajectory(states=truth.states, inputs=u, outputs=truth.outputs)
    cfg = _config(rng, augment_v(net, v), steps=K)
    fast = run_estimator(net, v, cfg, traj)
    monkeypatch.setattr(estimate, "me_filter_step", dense_filter_step)
    dense = run_estimator(net, v, cfg, traj)
    assert_close(fast.estimates, dense.estimates)
    assert_close(fast.err_norms, dense.err_norms)
