"""The minimum-energy filter held against slower forms of itself.

``dense_filter_step`` is the step fracdyn used to take: M = A P A^T + G Q G^T
and P = (I - K C) M as full d x d products.  The library assembles M from the
layout the lift declares (copy runs, top dense and noise rows) instead, so it
sums in another order and must agree to 1e-12 relative to the largest
magnitude of each quantity.

``run_estimator`` with constant weights propagates only the low-rank
increment of the predicted weight (the Chandrasekhar recursion).  Its
estimates must agree with the ``me_filter_step`` loop to 1e-10 of the running
maximum of the loop's estimates over 800 steps, and with ``me_batch`` within
the tolerance of ``tests/test_estimate.py``.  A spy on ``me_filter_step``
tells which route ran: only a per-step schedule of Q, R or C keeps the loop,
whatever the rank of the first increment.
"""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import fracdyn.estimate as estimate
from fracdyn import (
    EstimatorConfig,
    EstimatorState,
    FosModel,
    MultiTermNetwork,
    NonFiniteError,
    Trajectory,
    augment_p,
    augment_v,
    me_batch,
    me_filter_init,
    me_filter_step,
    run_estimator,
    simulate_network,
)
from fracdyn.cli import main
from fracdyn.fileio import read_model, read_trajectory
from fracdyn.model import _weight_block

RTOL = 1e-12
#: Largest gap between the two routes, relative to the running maximum.
ROUTE_RTOL = 1e-10
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def dense_filter_step(state, u, y, C=None):
    aug, cfg = state.aug, state.config
    k = state.k
    u = np.zeros(aug.m) if u is None else np.atleast_1d(np.asarray(u, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    A, G = aug.Atil, aug.Gtil
    C = aug.Ctil if C is None else np.atleast_2d(np.asarray(C, dtype=float))
    Qk = _weight_block(cfg.Q, k, G.shape[1], "Q")
    Rk1 = _weight_block(cfg.R, k + 1, aug.q, "R")
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
    # an order-1 channel with a zero row of A makes the top row a unit row,
    # and a zero row of Bw a zero noise row; both stay dense and noise rows
    A = model.A.copy()
    A[0] = 0.0
    Bw = model.Bw.copy()
    Bw[1] = 0.0
    degenerate = FosModel(alpha=[1.0, 0.9, 0.7], A=A, B=model.B, Bw=Bw)
    N = 25
    for aug in (augment_p(model, 6), augment_p(degenerate, 4)):
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


@pytest.fixture
def filter_calls(monkeypatch):
    """Calls that ``run_estimator`` makes to ``me_filter_step``."""
    calls = []
    step = estimate.me_filter_step

    def counted(*args, **kwargs):
        calls.append(args[0].k)
        return step(*args, **kwargs)

    monkeypatch.setattr(estimate, "me_filter_step", counted)
    return calls


def _loop_estimates(aug, cfg, traj):
    """Lifted estimates of the ``me_filter_step`` loop at steps 0..N."""
    N = traj.outputs.shape[0] - 1
    u = traj.inputs if traj.inputs is not None else np.zeros((N, aug.m))
    state = me_filter_init(aug, cfg)
    est = [state.xhat]
    for k in range(N):
        state = me_filter_step(state, u[k], traj.outputs[k + 1])
        est.append(state.xhat)
    return np.array(est)


def _route_gap(net, v, cfg, traj, filter_calls):
    """Largest gap of the low-rank route to the loop, relative to the loop's running maximum."""
    run = run_estimator(net, v, cfg, traj)
    assert filter_calls == []  # the low-rank route ran
    ref = _loop_estimates(augment_v(net, v), cfg, traj)
    scale = np.maximum.accumulate(np.abs(ref).max(axis=1))
    gap = np.abs(run.estimates - ref).max(axis=1)
    assert np.all(gap <= ROUTE_RTOL * scale)
    return float(np.max(gap[1:] / scale[1:]))


def _benchmark_network(seed, directory, monkeypatch):
    """The long-memory workload's network and its measured trajectory at ``seed``."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads",
                                                  BENCHMARKS / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    jobs = workloads.prepare("long-memory", seed, str(directory / "inputs")).jobs
    (directory / "pass").mkdir()
    monkeypatch.chdir(directory / "pass")
    job = next(job for job in jobs if job.name == "network_simulate")
    assert main(list(job.argv)) == 0
    return read_model("../inputs/network.json"), read_trajectory("measured.csv"), workloads


@pytest.mark.parametrize("v", [10, 40, 200])
@pytest.mark.parametrize("seed", [5, 7, 23])
def test_low_rank_route_matches_the_step_loop_on_the_benchmark_network(
        tmp_path, monkeypatch, filter_calls, seed, v):
    net, traj, workloads = _benchmark_network(seed, tmp_path, monkeypatch)
    assert traj.outputs.shape[0] == 801
    cfg = EstimatorConfig(xhat0=0.0, **workloads.NET_WEIGHTS)
    assert _route_gap(net, v, cfg, traj, filter_calls) <= ROUTE_RTOL


#: (n, m, q) of the random networks: one to four nodes, zero to two inputs.
_SHAPES = [(1, 0, 1), (1, 1, 1), (2, 0, 1), (2, 0, 2), (2, 1, 2), (2, 2, 1),
           (3, 0, 3), (3, 1, 2), (3, 2, 1), (4, 0, 2), (4, 1, 4), (4, 2, 3)]


def _random_case(index, N):
    """A random network, constant random weights and N steps of random data."""
    n, m, q = _SHAPES[index]
    rng = np.random.default_rng(300 + index)
    net = _network(rng, n, m, q)
    v = int(rng.integers(6, 13))
    aug = augment_v(net, v)

    def spd(size):
        L = rng.normal(size=(size, size))
        return L @ L.T + size * np.eye(size)

    cfg = EstimatorConfig(Q=spd(n), R=spd(q), P0=0.5 + rng.random(),
                          xhat0=rng.normal(size=aug.dim))
    traj = Trajectory(states=np.zeros((N + 1, n)), inputs=rng.normal(size=(N, m)) if m else None,
                      outputs=rng.normal(size=(N + 1, q)))
    return net, v, aug, cfg, traj


@pytest.mark.parametrize("index", range(len(_SHAPES)))
def test_low_rank_route_matches_the_step_loop_on_random_networks(filter_calls, index):
    net, v, _, cfg, traj = _random_case(index, 800)
    assert _route_gap(net, v, cfg, traj, filter_calls) <= ROUTE_RTOL


def _batch_gap(net, v, cfg, traj):
    """Norm gap of the route's last estimate to me_batch's, as tests/test_estimate.py bounds it."""
    xb, _ = me_batch(augment_v(net, v), cfg, traj.inputs, traj.outputs[1:])
    last = run_estimator(net, v, cfg, traj).estimates[-1]
    return np.linalg.norm(last - xb[-1]) / (1.0 + np.linalg.norm(xb[-1]))


@pytest.mark.parametrize("index", [0, 4, 7, 10])
def test_low_rank_route_matches_the_batch_solve(filter_calls, index):
    net, v, _, cfg, traj = _random_case(index, 30)
    assert _batch_gap(net, v, cfg, traj) <= 1e-6
    assert filter_calls == []


def test_low_rank_route_matches_the_batch_solve_on_the_benchmark_network(
        tmp_path, monkeypatch, filter_calls):
    net, traj, workloads = _benchmark_network(5, tmp_path, monkeypatch)
    N, v = 100, 10
    cfg = EstimatorConfig(xhat0=0.0, **workloads.NET_WEIGHTS)
    head = Trajectory(states=traj.states[: N + 1], inputs=traj.inputs[:N],
                      outputs=traj.outputs[: N + 1])
    assert _batch_gap(net, v, cfg, head) <= 1e-6
    assert filter_calls == []


@pytest.mark.parametrize("kind", ["constant", "Q schedule", "R schedule", "C schedule",
                                  "dense P0"])
def test_only_constant_weights_take_the_low_rank_route(filter_calls, kind):
    rng = np.random.default_rng(11)
    K, v = 40, 10
    C = rng.normal(size=(K + 1, 2, 3)) if kind == "C schedule" else None
    net = _network(rng, 3, 1, 2, C=C)
    d = augment_v(net, v).dim
    weights = {"Q": 1.0, "R": 0.01, "P0": 1.0}
    if kind == "Q schedule":
        weights["Q"] = np.tile(np.eye(3), (K, 1, 1))
    if kind == "R schedule":
        weights["R"] = np.tile(0.01 * np.eye(2), (K + 1, 1, 1))
    if kind == "dense P0":
        L = rng.normal(size=(d, d))
        weights["P0"] = L @ L.T + d * np.eye(d)
    traj = Trajectory(states=np.zeros((K + 1, 3)), inputs=rng.normal(size=(K, 1)),
                      outputs=rng.normal(size=(K + 1, 2)))
    run_estimator(net, v, EstimatorConfig(xhat0=0.0, **weights), traj)
    assert filter_calls == ([] if kind in ("constant", "dense P0") else list(range(K)))


def test_a_prior_schedule_runs_as_its_block_0(filter_calls):
    # P0 weights step 0 only, so the blocks after it are never read: the run is the
    # low-rank run of the constant prior, bit for bit
    rng = np.random.default_rng(13)
    K, v = 40, 10
    net = _network(rng, 3, 1, 2)
    d = augment_v(net, v).dim
    L = rng.normal(size=(d, d))
    P0 = L @ L.T / d + np.eye(d)
    schedule = np.concatenate([P0[None], np.tile(5.0 * np.eye(d), (K, 1, 1))])
    traj = Trajectory(states=np.zeros((K + 1, 3)), inputs=rng.normal(size=(K, 1)),
                      outputs=rng.normal(size=(K + 1, 2)))
    constant, scheduled = (run_estimator(net, v, EstimatorConfig(Q=1.0, R=0.01, P0=P, xhat0=0.0),
                                         traj) for P in (P0, schedule))
    assert filter_calls == []
    assert scheduled.estimates.tobytes() == constant.estimates.tobytes()


@pytest.mark.parametrize("v", [10, 40], ids=["d40", "d160"])
@pytest.mark.parametrize("seed", [21, 22, 23])
def test_the_low_rank_recursion_matches_the_step_loop_at_full_rank(seed, v):
    # a dense prior gives a first increment of rank d - 1; the recursion run from it
    # directly still keeps to the loop
    rng = np.random.default_rng(seed)
    K = 100
    aug = augment_v(_network(rng, 3, 1, 2), v)
    d = aug.dim
    L = rng.normal(size=(d, d))
    cfg = EstimatorConfig(Q=1.0, R=0.01, P0=L @ L.T / d + np.eye(d), xhat0=rng.normal(size=d))
    traj = Trajectory(states=np.zeros((K + 1, 3)), inputs=rng.normal(size=(K, 1)),
                      outputs=rng.normal(size=(K + 1, 2)))
    state = me_filter_init(aug, cfg)
    start = estimate._increment(aug, state.P, np.eye(3), 0.01 * np.eye(2))
    assert start[3].shape[1] == d - 1
    est = np.zeros((K + 1, d))
    est[0] = state.xhat
    estimate._low_rank_filter(aug, state.xhat, start, traj.inputs, traj.outputs, est)
    ref = _loop_estimates(aug, cfg, traj)
    scale = np.maximum.accumulate(np.abs(ref).max(axis=1))
    assert np.all(np.abs(est - ref).max(axis=1) <= ROUTE_RTOL * scale)


@pytest.mark.parametrize("v", [10, 40], ids=["d40", "d160"])
def test_a_dense_prior_takes_the_low_rank_route(filter_calls, v):
    # without a schedule, an increment of rank d - 1 runs the recursion, not the loop
    rng = np.random.default_rng(24)
    K = 100
    net = _network(rng, 3, 1, 2)
    d = augment_v(net, v).dim
    L = rng.normal(size=(d, d))
    cfg = EstimatorConfig(Q=1.0, R=0.01, P0=L @ L.T / d + np.eye(d), xhat0=rng.normal(size=d))
    traj = Trajectory(states=np.zeros((K + 1, 3)), inputs=rng.normal(size=(K, 1)),
                      outputs=rng.normal(size=(K + 1, 2)))
    assert _route_gap(net, v, cfg, traj, filter_calls) <= ROUTE_RTOL


@pytest.mark.parametrize("R", [0.01, "schedule"])
def test_both_routes_name_the_step_where_the_estimate_overflows(filter_calls, R):
    rng = np.random.default_rng(12)
    K, v = 30, 10
    net = _network(rng, 3, 1, 2)
    y = rng.normal(size=(K + 1, 2))
    y[5] = 1.7e308
    traj = Trajectory(states=np.zeros((K + 1, 3)), inputs=np.zeros((K, 1)), outputs=y)
    if R == "schedule":
        R = np.tile(0.01 * np.eye(2), (K + 1, 1, 1))
    cfg = EstimatorConfig(Q=1.0, R=R, P0=1.0, xhat0=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteError, match=r"^estimate became non-finite at step 5$"):
            run_estimator(net, v, cfg, traj)
    assert caught == []
    assert len(filter_calls) == (0 if np.ndim(R) == 0 else 5)
