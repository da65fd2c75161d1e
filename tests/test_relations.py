"""Metamorphic relations: each checks the mathematics of a stage, with no oracle.

Power-of-two scaling.  Every stage below is linear in its data (identification
is homogeneous: its orders and rows do not move, its MSEs scale by the square),
and multiplying a float by 2^e rounds nothing.  So scaling every data input by
2^e scales every output by 2^e bitwise, and a Gramian or an MSE by 4^e, absent
overflow and underflow.  The exponents are fixed before any run.

Channel permutation.  Relabelling the channels of a model by P (orders and x0
by P, A -> P A P^T, B -> P B, Bw -> P Bw) relabels its states and transition
matrices.  A permuted matrix product sums in another order, so the runs agree
to ``PERMUTATION_RTOL`` of the running maximum, not bitwise.

Models, data and permutations are drawn by derandomized hypothesis.  Two
relations are left out because they fail today: MPC under scaling below
e = -36 (ROADMAP item 8) and identification under permutation (item 2).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdyn import (
    EstimatorConfig,
    FosModel,
    MultiTermNetwork,
    Trajectory,
    controllability_gramian,
    identify,
    run_estimator,
    simulate_fos,
    simulate_network,
    transition_matrices,
)

#: Exponents e of the scale 2^e.
SIM_EXPONENTS = range(-200, 31, 10)
GRAMIAN_EXPONENTS = range(-200, 201, 10)
ESTIMATE_EXPONENTS = (-300, -100, -10, 10, 100, 300)
#: Share of the running maximum of the states within which permuted runs agree.
PERMUTATION_RTOL = 1e-12

relation = settings(max_examples=6, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)


def _fos(rng, alpha, m=2) -> FosModel:
    n = len(alpha)
    return FosModel(alpha=alpha, A=-0.2 * np.eye(n) + 0.05 * rng.standard_normal((n, n)),
                    B=rng.standard_normal((n, m)), Bw=rng.standard_normal((n, n)))


def _network(rng, n=3) -> MultiTermNetwork:
    """A network of the long-memory benchmark's shape: two state terms, one input node."""
    return MultiTermNetwork(
        state_terms=((0.6, np.eye(n)), (0.3, 0.1 * rng.standard_normal((n, n)))),
        input_terms=((0.5, np.eye(n)[:, :1]),),
        disturbance_terms=((0.7, np.eye(n)),),
        C=np.eye(n)[:2],
    )


def _data(rng, n, m, p, K) -> tuple:
    """x0, inputs and noise of a K-step run."""
    return (rng.standard_normal(n), rng.standard_normal((K, m)),
            0.1 * rng.standard_normal((K, p)))


def _within_running_max(got, want) -> bool:
    """Whether each step of ``got`` is within the rtol of the largest entry of ``want`` so far."""
    scale = np.maximum.accumulate(np.abs(want).reshape(len(want), -1).max(axis=1))
    err = np.abs(got - want).reshape(len(want), -1).max(axis=1)
    return bool((err <= PERMUTATION_RTOL * scale).all())


@relation
@given(seed=seeds)
def test_simulate_fos_scales_by_a_power_of_two(seed):
    rng = np.random.default_rng(seed)
    model = _fos(rng, [0.4, 0.7, 0.9])
    x0, u, w = _data(rng, 3, 2, 3, 3000)
    base = simulate_fos(model, x0, u=u, w=w, K=3000).states
    for e in SIM_EXPONENTS:
        run = simulate_fos(model, np.ldexp(x0, e), u=np.ldexp(u, e), w=np.ldexp(w, e), K=3000)
        assert np.array_equal(run.states, np.ldexp(base, e)), e


@relation
@given(seed=seeds)
def test_simulate_network_scales_by_a_power_of_two(seed):
    rng = np.random.default_rng(seed)
    net = _network(rng)
    x0, u, w = _data(rng, 3, 1, 3, 800)
    base = simulate_network(net, x0, u=u, w=w, K=800)
    for e in SIM_EXPONENTS:
        run = simulate_network(net, np.ldexp(x0, e), u=np.ldexp(u, e), w=np.ldexp(w, e), K=800)
        assert np.array_equal(run.states, np.ldexp(base.states, e)), e
        assert np.array_equal(run.outputs, np.ldexp(base.outputs, e)), e


@relation
@given(seed=seeds)
def test_identify_is_unmoved_by_a_power_of_two_and_its_mse_scales_by_the_square(seed):
    rng = np.random.default_rng(seed)
    model = _fos(rng, [0.4, 0.7, 0.9])
    x0, u, w = _data(rng, 3, 2, 3, 3000)
    traj = simulate_fos(model, x0, u=u, w=w, K=3000)
    base = identify(traj, 50, 1e-3, (1000, 1500))
    for e in SIM_EXPONENTS:
        got = identify(Trajectory(np.ldexp(traj.states, e), np.ldexp(traj.inputs, e)),
                       50, 1e-3, (1000, 1500))
        assert np.array_equal(got.alpha_hat, base.alpha_hat), e
        assert np.array_equal(got.A_hat, base.A_hat), e
        assert np.array_equal(got.iterations, base.iterations), e
        assert got.flags == base.flags, e
        assert np.array_equal(got.mse, np.ldexp(base.mse, 2 * e)), e


@relation
@given(seed=seeds)
def test_controllability_gramian_scales_by_the_square_of_a_power_of_two_in_b(seed):
    rng = np.random.default_rng(seed)
    model = _fos(rng, rng.uniform(0.3, 1.3, 3))
    base = controllability_gramian(model, model.B, 40)
    for e in GRAMIAN_EXPONENTS:
        got = controllability_gramian(model, np.ldexp(model.B, e), 40)
        assert np.array_equal(got.matrix, np.ldexp(base.matrix, 2 * e)), e
        assert got.rank == base.rank, e


@relation
@given(seed=seeds)
def test_run_estimator_scales_by_a_power_of_two(seed):
    rng = np.random.default_rng(seed)
    net = _network(rng)
    x0, u, w = _data(rng, 3, 1, 3, 200)
    traj = simulate_network(net, x0, u=u, w=w, K=200)
    weights = EstimatorConfig(Q=1.0, R=0.01, P0=1.0, xhat0=0.0)
    base = run_estimator(net, 40, weights, traj)
    for e in ESTIMATE_EXPONENTS:
        scaled = Trajectory(*(np.ldexp(series, e) for series in traj[:3]))
        got = run_estimator(net, 40, weights, scaled)
        assert np.array_equal(got.estimates, np.ldexp(base.estimates, e)), e
        assert np.array_equal(got.err_norms, np.ldexp(base.err_norms, e)), e


def _permuted(model: FosModel, P: np.ndarray) -> FosModel:
    return FosModel(alpha=P @ model.alpha, A=P @ model.A @ P.T, B=P @ model.B, Bw=P @ model.Bw)


@relation
@given(seed=seeds, order=st.permutations(range(3)))
def test_simulate_fos_permutes_with_its_channels(seed, order):
    rng = np.random.default_rng(seed)
    model, P = _fos(rng, [0.4, 0.7, 1.3]), np.eye(3)[order]
    x0, u, w = _data(rng, 3, 2, 3, 3000)
    base = simulate_fos(model, x0, u=u, w=w, K=3000).states
    got = simulate_fos(_permuted(model, P), P @ x0, u=u, w=w, K=3000).states
    assert _within_running_max(got, base @ P.T)


@relation
@given(seed=seeds, order=st.permutations(range(3)))
def test_transition_matrices_permute_with_the_channels(seed, order):
    rng = np.random.default_rng(seed)
    model, P = _fos(rng, rng.uniform(0.3, 1.3, 3)), np.eye(3)[order]
    base = transition_matrices(model, 2000)
    assert _within_running_max(transition_matrices(_permuted(model, P), 2000), P @ base @ P.T)


@relation
@given(seed=seeds, order=st.permutations(range(3)))
def test_simulate_network_permutes_with_its_channels(seed, order):
    rng = np.random.default_rng(seed)
    net, P = _network(rng), np.eye(3)[order]
    x0, u, w = _data(rng, 3, 1, 3, 800)
    permuted = MultiTermNetwork(
        state_terms=[(e, P @ M @ P.T) for e, M in net.state_terms],
        input_terms=[(e, P @ M) for e, M in net.input_terms],
        disturbance_terms=[(e, P @ M) for e, M in net.disturbance_terms],
        C=net.C @ P.T,
    )
    base = simulate_network(net, x0, u=u, w=w, K=800)
    got = simulate_network(permuted, P @ x0, u=u, w=w, K=800)
    assert _within_running_max(got.states, base.states @ P.T)
    assert _within_running_max(got.outputs, base.outputs)
