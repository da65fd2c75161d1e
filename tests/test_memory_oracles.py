"""The loops the memory sums were once written as, held against the library.

Each oracle below is a per-lag or per-row Python loop that fracdyn used to
evaluate a Grunwald-Letnikov memory sum with.  Paths that keep the rounding
order of their loop must agree bitwise: the weight table, the reduced network
series, and the first ``NEAR_BLOCK`` steps of the single-term simulator, the
transition matrices and the network stepper.  The convolutions sum in a
different order, so later steps of the steppers and the identification sums
must agree to 1e-12 relative to the running maximum magnitude of the series
they sum.  On networks that grow by many orders of magnitude the float64
direct sum is itself that far off, so there the reference is a long double
sum.  A long identification sum by FFT rounds relative to its largest sum,
which is the bound it is held to on a series that grows a millionfold.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

import fracdyn.sysid as sysid
from fracdyn import (
    FosModel,
    MpcProblem,
    MultiTermNetwork,
    NonFiniteError,
    build_weight_table,
    controllability_gramian,
    deadbeat_input,
    frac_difference,
    gaussian_noise,
    history_sum,
    identify,
    network_series,
    observability_matrices,
    ols_spatial,
    run_closed_loop,
    simulate_fos,
    simulate_network,
    transition_matrices,
    uncontrolled_baseline,
)
import fracdyn.fraccore as fraccore
from fracdyn.analysis import _forced_output
from fracdyn.fraccore import FFT_SUM_RATIO, NEAR_BLOCK, MemoryTail

#: The 18 orders of acceptance criterion 01b, then the integer orders a
#: FosModel accepts.
ORDERS = [round(0.1 * k, 1) for k in range(1, 20) if k != 10] + [-1.0, 0.0, 1.0]

RTOL = 1e-12


def loop_weight_table(orders, J):
    orders = np.asarray(orders, dtype=float)
    w = np.empty((orders.shape[0], J + 1))
    w[:, 0] = 1.0
    for j in range(1, J + 1):
        w[:, j] = w[:, j - 1] * ((j - 1.0 - orders) / j)
    return w


def loop_scalar_weight(alpha, j):
    c = 1.0
    for i in range(1, j + 1):
        c *= (i - 1.0 - alpha) / i
    return c


def loop_simulate_fos(model, x0, u, w, K):
    weights = loop_weight_table(model.alpha, K + 1)
    A0 = model.A + np.diag(model.alpha)
    x = np.zeros((K + 1, model.n))
    x[0] = x0
    for k in range(K):
        nxt = A0 @ x[k]
        if k > 0:
            w_cols = weights[:, 2 : k + 2][:, ::-1]
            nxt = nxt - np.einsum("nt,tn->n", w_cols, x[:k])
        nxt = nxt + model.B @ u[k]
        nxt = nxt + model.Bw @ w[k]
        x[k + 1] = nxt
    return x


def loop_transition_matrices(model, K):
    n = model.n
    weights = loop_weight_table(model.alpha, K + 1)
    A0 = model.A + np.diag(model.alpha)
    G = np.zeros((K + 1, n, n))
    G[0] = np.eye(n)
    for k in range(1, K + 1):
        acc = A0 @ G[k - 1]
        if k >= 2:
            w_cols = weights[:, 2 : k + 1][:, ::-1]
            acc = acc - np.einsum("nt,tnm->nm", w_cols, G[: k - 1])
        G[k] = acc
    return G


def loop_network_series(net, J):
    """Each group's terms added one at a time into a zero stack, then one solve per stack.

    A stack without columns is not solved, and lag 0 of the state stack is
    left zero.
    """
    def stack(terms, cols):
        out = np.zeros((J + 1, net.n, cols))
        for exponent, mat in terms:
            out += build_weight_table([exponent], J)[0][:, None, None] * mat[None, :, :]
        return out

    Ahat, Bhat, Ghat = (stack(net.state_terms, net.n), stack(net.input_terms, net.m),
                        stack(net.disturbance_terms, net.p))

    def lead_solve(hat, cols):
        flat = np.linalg.solve(Ahat[0], hat.transpose(1, 0, 2).reshape(net.n, -1))
        return flat.reshape(net.n, hat.shape[0], cols).transpose(1, 0, 2)

    A = np.zeros_like(Ahat)
    if J >= 1:
        A[1:] = -lead_solve(Ahat[1:], net.n)
    B = lead_solve(Bhat, net.m) if net.m else Bhat
    G = lead_solve(Ghat, net.p) if net.p else Ghat
    return A, B, G


def loop_simulate_network(net, x0, u, w, K):
    series = network_series(net, K)
    X = np.zeros((K + 1, net.n))
    X[0] = x0
    for k in range(K):
        acc = np.zeros(net.n)
        for j in range(1, k + 2):
            acc += series.A[j] @ X[k + 1 - j]
        for j in range(k + 1):
            if net.m:
                acc += series.B[j] @ u[k - j]
            if net.p:
                acc += series.G[j] @ w[k - j]
        X[k + 1] = acc
    return X


def direct_simulate_network(net, x0, u, w, K, dtype=float):
    """The double loop with its lag loop as one whole-history sum per step, in ``dtype``.

    In float64 this is the network stepper as it was before the far field.
    """
    series = network_series(net, K)
    A, B, G = (np.asarray(s, dtype=dtype) for s in (series.A, series.B, series.G))
    u, w = np.asarray(u, dtype=dtype), np.asarray(w, dtype=dtype)
    X = np.zeros((K + 1, net.n), dtype=dtype)
    X[0] = x0
    for k in range(K):
        acc = np.einsum("jab,jb->a", A[1 : k + 2], X[k::-1])
        if net.m:
            acc += np.einsum("jab,jb->a", B[: k + 1], u[k::-1])
        if net.p:
            acc += np.einsum("jab,jb->a", G[: k + 1], w[k::-1])
        X[k + 1] = acc
    return X


def loop_gl_targets(x_col, w, ks):
    out = np.empty(ks.size)
    for idx, k in enumerate(ks):
        out[idx] = w[: k + 2] @ x_col[k + 1 :: -1]
    return out


def loop_prediction_sums(x_col, w, ks, p):
    out = np.empty(ks.size)
    for idx, k in enumerate(ks):
        mlag = min(k + 1, p)
        out[idx] = w[1 : mlag + 1] @ x_col[k::-1][:mlag]
    return out


def loop_prediction_mse(x, i, a_row, w, ks, p):
    pred = x[ks] @ a_row - loop_prediction_sums(x[:, i], w, ks, p)
    return float(np.mean((pred - x[ks + 1, i]) ** 2))


def loop_history_sum(x, weights, start, stop):
    """Row-by-row, channel-by-channel sum_{j<=min(t, J)} w[j] x[t-j]."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(weights, dtype=float)
    x2 = x.reshape(x.shape[0], -1)
    w2 = w.reshape(-1, w.shape[-1])
    out = np.empty((stop - start, x2.shape[1]))
    for r, t in enumerate(range(start, stop)):
        lags = min(t, w2.shape[1] - 1) + 1
        for i in range(x2.shape[1]):
            out[r, i] = w2[i, :lags] @ x2[t::-1, i][:lags]
    return out.reshape((stop - start,) + x.shape[1:])


def assert_close_to_running_max(actual, expected, series):
    """|actual - expected| <= RTOL * max |series| over the rows up to each row."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    mags = np.abs(np.asarray(series)).reshape(len(series), -1).max(axis=1)
    scale = np.maximum.accumulate(mags)[-len(actual):]
    err = np.abs(actual - expected).reshape(len(actual), -1).max(axis=1)
    assert np.all(err <= RTOL * scale), float(np.max(err / np.maximum(scale, 1e-300)))


def random_fos(seed, orders):
    """A small model that stays bounded over a few hundred steps."""
    rng = np.random.default_rng(seed)
    n = len(orders)
    A = -0.2 * np.eye(n) + 0.05 * rng.normal(size=(n, n))
    m = int(rng.integers(0, 3))
    return FosModel(alpha=orders, A=A, B=rng.normal(size=(n, m)),
                    Bw=0.1 * rng.normal(size=(n, n))), rng


# ----------------------------------------------------------------------------
# the weight table bitwise; the stepper bitwise over its first NEAR_BLOCK
# steps, then to 1e-12 of the running maximum once the far field joins


def assert_stepper_matches(actual, expected):
    """Bitwise up to state NEAR_BLOCK, then within RTOL of the running maximum."""
    assert np.all(np.isfinite(actual))
    assert np.array_equal(actual[: NEAR_BLOCK + 1], expected[: NEAR_BLOCK + 1])
    assert_close_to_running_max(actual, expected, expected)


def test_weight_table_matches_the_lag_loop_bitwise():
    assert np.array_equal(build_weight_table(ORDERS, 3000),
                          loop_weight_table(ORDERS, 3000))
    rng = np.random.default_rng(11)
    for _ in range(20):
        orders = rng.uniform(-1.0, 2.0, size=int(rng.integers(1, 6)))
        J = int(rng.integers(0, 3001))
        assert np.array_equal(build_weight_table(orders, J),
                              loop_weight_table(orders, J))


def _random_network(rng, m, p):
    n = int(rng.integers(1, 5))

    def terms(count, cols):
        return [(float(rng.uniform(0.05, 1.95)), rng.normal(size=(n, cols)))
                for _ in range(count if cols else 0)]

    state = terms(int(rng.integers(1, 4)), n)
    state[0] = (state[0][0], state[0][1] + 4.0 * np.eye(n))  # keeps the lead well conditioned
    dist = terms(int(rng.integers(1, 4)), p)
    if p <= n and rng.random() < 0.5:  # zero entries, whose products carry a sign
        dist = [(0.7, np.eye(n)[:, :p])]
    return MultiTermNetwork(state, terms(int(rng.integers(1, 4)), m), dist)


def assert_series_bitwise(net, J):
    series = network_series(net, J)
    for actual, expected in zip(series, loop_network_series(net, J)):
        assert actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("J", [0, 1, 2, 40, 800])
@pytest.mark.parametrize("m,p", [(0, 0), (0, 2), (3, 0), (1, 1), (2, 3)])
def test_network_series_matches_the_term_loop_bitwise(m, p, J):
    rng = np.random.default_rng(100 * m + 10 * p + J)
    for _ in range(4):
        assert_series_bitwise(_random_network(rng, m, p), J)


@pytest.mark.parametrize("J", [40, 800])
def test_network_series_matches_the_term_loop_bitwise_on_the_benchmark_network(
        monkeypatch, tmp_path, J):
    # the long-memory network at seed 5; its simulate job runs 800 steps, its estimate v = 40
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import workloads

    net = workloads.prepare("long-memory", 5, str(tmp_path)).truth["network"]
    assert_series_bitwise(net, J)


@pytest.mark.parametrize("alpha", ORDERS)
def test_scalar_weight_matches_the_lag_loop_bitwise(alpha):
    for j in (0, 1, 2, 7, 200, 1000):
        assert build_weight_table([alpha], j)[0, j] == loop_scalar_weight(alpha, j)


@pytest.mark.parametrize("seed", range(6))
def test_simulate_fos_matches_the_step_loop_bitwise(seed):
    rng = np.random.default_rng(100 + seed)
    orders = rng.choice(ORDERS, size=int(rng.integers(1, 5)))
    model, rng = random_fos(seed, orders)
    K = 300
    x0 = rng.normal(size=model.n)
    u = rng.normal(size=(K, model.m))
    w = rng.normal(size=(K, model.p))
    traj = simulate_fos(model, x0, u=u, w=w, K=K)
    assert_stepper_matches(traj.states, loop_simulate_fos(model, x0, u, w, K))


@pytest.mark.parametrize("seed", range(6))
def test_transition_matrices_match_their_loop_bitwise(seed):
    rng = np.random.default_rng(200 + seed)
    orders = rng.choice(ORDERS, size=int(rng.integers(1, 5)))
    model, _ = random_fos(seed, orders)
    assert_stepper_matches(transition_matrices(model, 300),
                           loop_transition_matrices(model, 300))


def test_simulate_fos_matches_the_step_loop_across_far_field_levels():
    # K = 4100 is no power of two: far-field blocks of 64 to 2048 steps all
    # occur, and the last ones are cut at the horizon
    orders = [0.3, 1.7, 0.9, 0.55]
    model, rng = random_fos(7, orders)
    model = FosModel(alpha=orders, A=model.A, B=rng.normal(size=(4, 2)), Bw=model.Bw)
    K = 4100
    x0 = rng.normal(size=4)
    u = 0.1 * rng.normal(size=(K, 2))
    w = rng.normal(size=(K, 4))
    traj = simulate_fos(model, x0, u=u, w=w, K=K)
    assert_stepper_matches(traj.states, loop_simulate_fos(model, x0, u, w, K))


def test_transition_matrices_match_their_loop_across_far_field_levels():
    model, _ = random_fos(8, [0.4, 1.2, 0.8])
    K = 1100
    assert_stepper_matches(transition_matrices(model, K), loop_transition_matrices(model, K))


def test_closed_loop_plant_matches_the_step_loop():
    orders = [0.6, 0.8]
    model, rng = random_fos(9, orders)
    plant = FosModel(alpha=orders, A=model.A, B=np.array([[1.0], [0.5]]), Bw=model.Bw)
    problem = MpcProblem(p=4, P=6, M=3, Q=np.eye(2), R=[[0.1]], u_lo=-0.5, u_hi=0.5)
    K = 3 * NEAR_BLOCK + 10
    x0 = rng.normal(size=2)
    result = run_closed_loop(plant, problem, K, 4, x0=x0, noise_sigma=0.1)
    # the plant must be the full-memory recursion driven by what was applied
    expected = loop_simulate_fos(plant, x0, result.applied, result.noise, K)
    assert_stepper_matches(result.trajectory.states, expected)


def test_integer_order_channels_follow_the_integer_recursion_exactly():
    # orders 0 and 1 have no memory tail: with the fractional channels beside
    # them, their rows must still be A0 x[k] + B u[k] + Bw w[k] bit for bit
    orders = [0.0, 0.45, 1.0, 1.6]
    model, rng = random_fos(10, orders)
    K = 4 * NEAR_BLOCK + 37
    x0 = rng.normal(size=4)
    u = rng.normal(size=(K, model.m))
    w = rng.normal(size=(K, 4))
    X = simulate_fos(model, x0, u=u, w=w, K=K).states
    A0 = model.A + np.diag(model.alpha)
    integer = [0, 2]
    for k in range(K):
        want = A0 @ X[k] + model.B @ u[k] + model.Bw @ w[k]
        assert np.array_equal(X[k + 1, integer], want[integer]), k
    assert_stepper_matches(X, loop_simulate_fos(model, x0, u, w, K))


# ----------------------------------------------------------------------------
# the block solve: open-loop runs past their first NEAR_BLOCK steps advance a
# block at a time, and must stay within RTOL of the step loop


@pytest.mark.parametrize("K", [64, 65, 128, 129, 4100])
def test_block_solve_matches_the_step_loop_at_block_edges(K):
    # K = 65 and 129 end on a one-step block; orders above 1 beside ones below
    orders = [0.35, 1.4881, 0.8, 1.6]
    model, rng = random_fos(13, orders)
    model = FosModel(alpha=orders, A=model.A, B=rng.normal(size=(4, 2)), Bw=model.Bw)
    x0 = rng.normal(size=4)
    u = rng.normal(size=(K, 2))
    w = rng.normal(size=(K, 4))
    traj = simulate_fos(model, x0, u=u, w=w, K=K)
    assert_stepper_matches(traj.states, loop_simulate_fos(model, x0, u, w, K))


def test_block_solve_matches_the_step_loop_on_a_growing_model():
    model = FosModel(alpha=[0.55, 1.6], A=[[0.1, 0.02], [0.01, -0.1]], B=[[1.0], [0.5]],
                     Bw=0.1 * np.eye(2))
    rng = np.random.default_rng(16)
    K = 2000
    x0 = rng.normal(size=2)
    u = rng.normal(size=(K, 1))
    w = rng.normal(size=(K, 2))
    X = loop_simulate_fos(model, x0, u, w, K)
    assert np.abs(X).max() >= 1e10
    assert_stepper_matches(simulate_fos(model, x0, u=u, w=w, K=K).states, X)
    G = loop_transition_matrices(model, K)
    assert np.abs(G).max() >= 1e10
    assert_stepper_matches(transition_matrices(model, K), G)


@pytest.mark.parametrize("n", [16, 64])
def test_block_solve_matches_the_step_loop_on_wide_models(n):
    rng = np.random.default_rng(n)
    model = FosModel(alpha=rng.uniform(0.1, 0.95, n),
                     A=-0.2 * np.eye(n) + 0.05 / np.sqrt(n) * rng.normal(size=(n, n)),
                     B=rng.normal(size=(n, 2)), Bw=0.1 * rng.normal(size=(n, n)))
    K = 700
    x0 = rng.normal(size=n)
    u = rng.normal(size=(K, 2))
    w = rng.normal(size=(K, n))
    traj = simulate_fos(model, x0, u=u, w=w, K=K)
    assert_stepper_matches(traj.states, loop_simulate_fos(model, x0, u, w, K))


def test_transition_matrices_match_their_loop_over_4100_steps():
    model, _ = random_fos(15, [0.4, 1.2, 0.8])
    K = 4100
    assert_stepper_matches(transition_matrices(model, K), loop_transition_matrices(model, K))


def growing_fos(a):
    """A model whose G_64 is about 840 at a = 0.24, where it grows 1.11x a step."""
    return FosModel(alpha=[0.55, 0.8], A=[[a, 0.05], [-0.02, a - 0.05]], B=[[1.0], [0.5]],
                    Bw=np.eye(2))


@pytest.mark.parametrize("a", [0.24, 0.45])
def test_block_solve_matches_the_step_loop_on_fast_growing_models(a):
    # a block's FFT rounds each row to eps of the block's largest term, up to
    # max |G_i| times the row's own scale; the block solve takes G_64 ~ 840
    # (a = 0.24) and leaves G_64 ~ 1.2e7 (a = 0.45, 1.3x a step) to the loop
    model = growing_fos(a)
    rng = np.random.default_rng(18)
    K = 700
    x0 = rng.normal(size=2)
    u = rng.normal(size=(K, 1))
    w = 0.1 * rng.normal(size=(K, 2))
    X = loop_simulate_fos(model, x0, u, w, K)
    assert np.abs(X).max() >= 1e30
    assert_stepper_matches(simulate_fos(model, x0, u=u, w=w, K=K).states, X)
    assert_stepper_matches(transition_matrices(model, K), loop_transition_matrices(model, K))


def diverging_fos():
    """A model whose runs overflow in the middle of the block after step 4 NEAR_BLOCK."""
    return FosModel(alpha=[0.45, 0.7], A=[[10.5, 0.1], [-0.05, 10.5]], Bw=np.eye(2))


def first_non_finite_row(X):
    return int(np.flatnonzero(~np.isfinite(X.reshape(len(X), -1)).all(axis=1))[0])


@pytest.mark.parametrize("model,scale,K,K_G", [
    # G grows about 11x a step, past the block solve's bound: every block loops
    (diverging_fos(), 1.0, 600, 600),
    # G_64 ~ 670: the block that overflows is solved, found not finite, re-stepped
    (growing_fos(0.235), 1e287, 700, 7000),
])
def test_a_diverging_run_names_the_step_of_the_loop(model, scale, K, K_G):
    x0 = scale * np.array([1.0, -0.5])
    w = gaussian_noise(3, K, 2, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        X = loop_simulate_fos(model, x0, np.zeros((K, model.m)), w, K)
        G = loop_transition_matrices(model, K_G)
    first, first_G = first_non_finite_row(X), first_non_finite_row(G)
    assert 4 * NEAR_BLOCK < first < K and first % NEAR_BLOCK not in (0, 1)
    assert 4 * NEAR_BLOCK < first_G < K_G and first_G % NEAR_BLOCK not in (0, 1)
    with pytest.raises(NonFiniteError, match=f"^state became non-finite at step {first}$"):
        simulate_fos(model, x0, w=w, K=K)
    with pytest.raises(NonFiniteError, match=f"^state became non-finite at step {first_G}$"):
        transition_matrices(model, K_G)
    # up to the overflow the states are the loop's
    before = simulate_fos(model, x0, w=w[: first - 1], K=first - 1)
    assert_stepper_matches(before.states, X[:first])
    assert_stepper_matches(transition_matrices(model, first_G - 1), G[:first_G])


def test_a_far_field_that_overflows_before_its_states_names_the_step_of_the_loop():
    # from 1e290 the far field's transform, which sums up to 4096 states,
    # passes the float64 maximum before the states do; it is redone scaled
    model = growing_fos(0.24)
    K = 700
    x0 = 1e290 * np.array([1.0, -0.5])
    w = gaussian_noise(3, K, 2, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        X = loop_simulate_fos(model, x0, np.zeros((K, 1)), w, K)
    assert first_non_finite_row(X) == 401
    with pytest.raises(NonFiniteError, match="^state became non-finite at step 401$"):
        simulate_fos(model, x0, w=w, K=K)
    assert_stepper_matches(simulate_fos(model, x0, w=w[:400], K=400).states, X[:401])


def test_the_zero_input_baseline_is_the_closed_loop_plant_at_zero_input():
    # uncontrolled_baseline runs the block solve, run_closed_loop the step loop
    orders = [0.6, 0.8]
    model, rng = random_fos(17, orders)
    plant = FosModel(alpha=orders, A=model.A, B=np.array([[1.0], [0.5]]), Bw=model.Bw)
    problem = MpcProblem(p=4, P=6, M=3, Q=np.eye(2), R=[[0.1]], u_lo=0.0, u_hi=0.0)
    K = 300
    x0 = rng.normal(size=2)
    result = run_closed_loop(plant, problem, K, 4, x0=x0, noise_sigma=0.1)
    assert np.all(result.applied == 0.0)
    baseline = uncontrolled_baseline(plant, K, 4, x0=x0, noise_sigma=0.1)
    assert np.array_equal(baseline.noises, result.noise)
    assert_stepper_matches(baseline.states, result.trajectory.states)


@pytest.mark.parametrize("seed", range(4))
def test_gramian_deadbeat_and_observability_stacks_match_their_lag_loops(seed):
    # the per-lag loops these were written as; G_K is conditioned below 2e2
    model, rng = random_fos(seed, [0.4, 1.2, 0.8])
    B, C = rng.normal(size=(3, 2)), rng.normal(size=(2, 3))
    model = FosModel(alpha=model.alpha, A=model.A, B=B, Bw=model.Bw)
    K = 150
    G = loop_transition_matrices(model, K)
    S = np.zeros((3, 3))
    for j in range(K):
        S += (G[j] @ B) @ (G[j] @ B).T
    W = np.linalg.solve(G[K], np.linalg.solve(G[K], S.T).T)
    gram = controllability_gramian(model, K=K).matrix
    assert np.abs(gram - 0.5 * (W + W.T)).max() <= RTOL * np.abs(W).max()
    x0 = rng.normal(size=3)
    z = np.linalg.solve(G[K].T, np.linalg.solve(gram, x0))
    u = np.array([-(B.T @ G[K - 1 - j].T) @ z for j in range(K)])
    got = deadbeat_input(model, B, x0, K)
    assert np.abs(got - u).max() <= RTOL * np.abs(u).max()
    rep = observability_matrices(model, C, K)
    assert_close_to_running_max(rep.obsv, np.vstack([C @ G[j] for j in range(K)]), rep.obsv)
    # the forced response reconstruction subtracts, past the simulator's first block
    u = rng.normal(size=(K, 2))
    forced = np.zeros((K, 2))
    for r in range(K):
        for c in range(r):
            forced[r] += C @ G[r - 1 - c] @ B @ u[c]
    assert_close_to_running_max(_forced_output(model, B, C, u), forced, forced)


def test_forced_response_matches_the_lag_sum_over_1000_steps():
    # each row sum_{j<k} C G_{k-1-j} B u[j] of the loop G, against the
    # zero-state run that solves 15 blocks after the first
    model, rng = random_fos(9, [0.3, 0.7, 0.55])
    B, C = rng.normal(size=(3, 2)), rng.normal(size=(2, 3))
    K = 1000
    u = rng.normal(size=(K, 2))
    CGB = C @ loop_transition_matrices(model, K)[:K] @ B
    forced = np.zeros((K, 2))
    for k in range(1, K):
        forced[k] = np.einsum("jqm,jm->q", CGB[k - 1 :: -1], u[:k])
    assert_close_to_running_max(_forced_output(model, B, C, u), forced, forced)


# ----------------------------------------------------------------------------
# 1e-12 relative: the network recursion and the identification sums


def _network(seed, m, p, schedule):
    rng = np.random.default_rng(seed)
    n = 3
    state = ((1.0, np.eye(n) + 0.1 * rng.normal(size=(n, n))),
             (0.6, -0.3 * np.eye(n) + 0.05 * rng.normal(size=(n, n))))
    inputs = ((0.4, rng.normal(size=(n, m))),) if m else ()
    dist = ((0.8, 0.2 * rng.normal(size=(n, p))),) if p else ()
    C = rng.normal(size=(7, 2, n)) if schedule else rng.normal(size=(2, n))
    return MultiTermNetwork(state_terms=state, input_terms=inputs,
                            disturbance_terms=dist, C=C), rng


@pytest.mark.parametrize("m,p,schedule", [(2, 1, False), (0, 2, True), (1, 0, True), (0, 0, False)])
def test_simulate_network_matches_the_double_loop(m, p, schedule):
    net, rng = _network(m + 3 * p, m, p, schedule)
    K = 150
    x0 = rng.normal(size=net.n)
    u = rng.normal(size=(K, m))
    w = rng.normal(size=(K, p))
    traj = simulate_network(net, x0, u=u if m else None, w=w if p else None, K=K)
    X = loop_simulate_network(net, x0, u, w, K)
    assert np.all(np.isfinite(X)) and np.abs(X).max() > 0
    assert_close_to_running_max(traj.states, X, X)
    Y = np.vstack([net.output_map(k) @ X[k] for k in range(K + 1)])
    assert_close_to_running_max(traj.outputs, Y, Y)


def test_simulate_network_matches_the_direct_sum_across_far_field_levels():
    # shaped like the benchmark's network and bounded; K = 4100 reaches
    # far-field blocks of 64 to 2048 steps, the last ones cut at the horizon
    rng = np.random.default_rng(12)
    n = 3
    net = MultiTermNetwork(
        state_terms=((0.6, np.eye(n)), (0.3, 0.1 * rng.standard_normal((n, n)))),
        input_terms=((0.5, np.eye(n)[:, :1]),), disturbance_terms=((0.7, np.eye(n)),),
        C=np.eye(n)[:2])
    K = 4100
    x0 = rng.standard_normal(n)
    u = rng.standard_normal((K, 1))
    w = 0.1 * rng.standard_normal((K, n))
    traj = simulate_network(net, x0, u=u, w=w, K=K)
    X = direct_simulate_network(net, x0, u, w, K)
    assert np.all(np.isfinite(X)) and np.abs(X).max() < 1e3
    assert_stepper_matches(traj.states, X)
    assert_close_to_running_max(traj.outputs, X @ net.C.T, X)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="long double is no wider than float64 here, so it is no reference")
@pytest.mark.parametrize("m,p,schedule", [(2, 1, False), (0, 2, True), (1, 0, True), (0, 0, False)])
def test_growing_network_matches_a_long_double_sum_across_far_field_levels(m, p, schedule):
    # these networks grow by 1e17 to 1e105 over K steps; summed in float64,
    # the direct sum itself is 1e-12 to 4e-12 of the running maximum off
    net, rng = _network(m + 3 * p, m, p, schedule)
    K = 2100
    x0 = rng.normal(size=net.n)
    u = rng.normal(size=(K, m))
    w = rng.normal(size=(K, p))
    traj = simulate_network(net, x0, u=u if m else None, w=w if p else None, K=K)
    X = direct_simulate_network(net, x0, u, w, K, np.longdouble)
    assert_close_to_running_max(traj.states, X, X)


def test_diverging_network_names_the_first_non_finite_step():
    # it overflows long after the far field has joined
    net = MultiTermNetwork(state_terms=((1.0, np.eye(2)), (0.5, [[-0.905, 0.01], [-0.02, -0.93]])),
                           disturbance_terms=((0.7, np.eye(2)),))
    K = 600
    w = gaussian_noise(1, K, 2, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        X = direct_simulate_network(net, [1.0, -0.5], np.zeros((K, 0)), w, K)
    first = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
    assert 4 * NEAR_BLOCK < first < K
    with pytest.raises(NonFiniteError, match=f"^state became non-finite at step {first}$"):
        simulate_network(net, [1.0, -0.5], w=w, K=K)


def test_a_network_block_that_overflows_is_re_stepped_by_the_loop():
    # this network's G_64 is about 620, so its blocks are solved until one
    # overflows; the loop then re-steps that block and names the direct sum's step
    net, rng = _network(5, 2, 1, False)
    K = 800
    x0 = 1e288 * rng.normal(size=net.n)
    u = rng.normal(size=(K, 2))
    w = rng.normal(size=(K, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        first = first_non_finite_row(direct_simulate_network(net, x0, u, w, K))
    assert 4 * NEAR_BLOCK < first < K and first % NEAR_BLOCK not in (0, 1)
    with pytest.raises(NonFiniteError, match=f"^state became non-finite at step {first}$"):
        simulate_network(net, x0, u=u, w=w, K=K)


def test_a_network_far_field_that_overflows_before_its_states_names_the_step():
    net, rng = _network(6, 0, 2, True)
    K = 800
    x0 = 1e304 * rng.normal(size=net.n)
    w = rng.normal(size=(K, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        first = first_non_finite_row(direct_simulate_network(net, x0, np.zeros((K, 0)), w, K))
    assert first == 484
    with pytest.raises(NonFiniteError, match="^state became non-finite at step 484$"):
        simulate_network(net, x0, w=w, K=K)


def test_a_drive_kernel_whose_transform_overflows_warns_nothing():
    # the input series' lags are finite, their 2 NEAR_BLOCK-point transform is not
    net = MultiTermNetwork(state_terms=((1.0, np.eye(2)), (0.5, -0.5 * np.eye(2))),
                           input_terms=((0.4, [[8e307], [0.0]]),))
    K = NEAR_BLOCK
    u = np.zeros((K, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate_network(net, [1.0, -0.5], u=u, K=K)
    assert_stepper_matches(traj.states, direct_simulate_network(net, [1.0, -0.5], u,
                                                                np.zeros((K, 0)), K))


def direct_causal_sum(kernel, states):
    """y[k] = sum_{j<=k} kernel[j] . states[k-j], one direct np.convolve per kernel entry."""
    if kernel.ndim == 2:  # a diagonal kernel as its matrix stack
        kernel = kernel[:, :, None] * np.eye(kernel.shape[1])
    T = states.shape[0]
    flat = states.reshape(T, states.shape[1], -1)
    y = np.zeros((T, kernel.shape[1], flat.shape[2]))
    for a, b, r in np.ndindex(kernel.shape[1], kernel.shape[2], flat.shape[2]):
        y[:, a, r] += np.convolve(kernel[:, a, b], flat[:, b, r])[:T]
    return y.reshape((T, kernel.shape[1]) + states.shape[2:])


@pytest.mark.parametrize("shape,matrix", [((3,), False), ((3, 2), False), ((3,), True)])
def test_memory_tail_blocks_match_the_direct_sum(shape, matrix):
    # K = 4100 reaches far-field blocks of 64 to 2048 steps, the last one cut
    rng = np.random.default_rng(19)
    K = 4100
    decay = np.arange(1.0, K + 1.0) ** -1.3
    if matrix:
        kernel = rng.normal(size=(K, 4, shape[0])) * decay[:, None, None]
    else:
        kernel = -build_weight_table([0.3, 0.75, 1.4], K - 1).T
    states = rng.normal(size=(K,) + shape)
    tail = MemoryTail(kernel, states)
    got = np.concatenate([tail.block(s, min(NEAR_BLOCK, K - s))
                          for s in range(0, K, NEAR_BLOCK)])
    want = direct_causal_sum(kernel, states)
    assert_close_to_running_max(got, want, want)


def _noisy_trajectory(orders, K, seed):
    model, rng = random_fos(seed, orders)
    return simulate_fos(model, rng.normal(size=model.n), w=seed, K=K, noise_sigma=0.1)


@pytest.mark.parametrize("alpha", ORDERS)
@pytest.mark.parametrize("window,p", [((0, 120), 160), ((40, 100), 7), ((0, 60), 1)])
def test_identification_sums_match_the_row_loops(alpha, window, p):
    traj = _noisy_trajectory([alpha], 160, 5)
    x = traj.states[:, 0]
    ks = np.arange(window[0], window[0] + window[1])
    w = build_weight_table([alpha], int(ks[-1]) + 1)[0]
    # a depth reaching past time 0 must stop at the first sample
    targets = history_sum(x, w, ks[0] + 1, ks[-1] + 2)
    assert_close_to_running_max(targets, loop_gl_targets(x, w, ks), x[: ks[-1] + 2])
    sums = history_sum(x, w[1 : p + 1], ks[0], ks[-1] + 1)
    assert_close_to_running_max(sums, loop_prediction_sums(x, w, ks, p), x[: ks[-1] + 1])


def test_frac_difference_matches_the_row_loop():
    traj = _noisy_trajectory(ORDERS[:4], 200, 3)
    table = build_weight_table(ORDERS[:4], 200)
    for k in (0, 1, 57, 200):
        got = frac_difference(traj.states[: k + 1], ORDERS[:4], k, table)
        want = loop_history_sum(traj.states, table[:, : k + 1], k, k + 1)[0]
        assert_close_to_running_max(got[None], want[None], traj.states[: k + 1])


def test_history_sum_edge_rows():
    x = np.arange(1.0, 6.0)
    assert history_sum(x, [1.0, 2.0], 3, 3).shape == (0,)
    assert history_sum(np.ones((5, 2)), np.ones((2, 4)), 2, 2).shape == (0, 2)
    np.testing.assert_array_equal(history_sum(x, [1.0, 2.0, 4.0], 0, 5),
                                  loop_history_sum(x, [1.0, 2.0, 4.0], 0, 5))
    with pytest.raises(IndexError):
        history_sum(x, [1.0], 2, 6)


#: (start, stop, lags, by FFT): sums past the crossover from time 0, with a
#: zero-padded head, and from mid-series, and one well below it
HISTORY_CASES = [(0, 2000, 2001, True), (2000, 3001, 1000, True), (1500, 3001, 1501, True),
                 (2700, 2900, 200, False)]
SUM_ORDERS = [-1.0, -0.5, 0.0, 0.5, 1.0, 1.4]


def _counting_block_convolve(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args[1].shape)
        return block_convolve(*args)

    block_convolve = fraccore.block_convolve
    monkeypatch.setattr(fraccore, "block_convolve", spy)
    return calls


@pytest.mark.parametrize("start,stop,lags,by_fft", HISTORY_CASES)
def test_history_sum_by_fft_matches_the_row_loop(monkeypatch, start, stop, lags, by_fft):
    x = _noisy_trajectory(SUM_ORDERS, 3000, 11).states
    w = build_weight_table(SUM_ORDERS, lags - 1)
    calls = _counting_block_convolve(monkeypatch)
    got = history_sum(x, w, start, stop)
    assert len(calls) == by_fft
    assert_close_to_running_max(got, loop_history_sum(x, w, start, stop), got)
    for i in range(len(SUM_ORDERS)):
        got_i = history_sum(x[:, i], w[i], start, stop)
        assert_close_to_running_max(got_i, loop_history_sum(x[:, i], w[i], start, stop), got_i)
    assert len(calls) == by_fft * (1 + len(SUM_ORDERS))


def test_history_sum_stays_direct_and_bitwise_just_below_the_crossover(monkeypatch):
    # the most rows of 1000 lags that a 2048-point transform would sum directly
    lags, size = 1000, 2048
    rows = FFT_SUM_RATIO * size * (size.bit_length() - 1) // lags
    x = _noisy_trajectory(SUM_ORDERS[:2], 3000, 12).states
    w = build_weight_table(SUM_ORDERS[:2], lags - 1)
    calls = _counting_block_convolve(monkeypatch)
    got = history_sum(x, w, 2000, 2000 + rows)
    assert not calls
    for i in range(2):
        want = np.convolve(x[2000 - lags + 1 : 2000 + rows, i], w[i], "valid")
        assert np.array_equal(got[:, i], want)
    history_sum(x, w, 2000, 2001 + rows)
    assert len(calls) == 1


def test_history_sum_whose_transform_overflows_is_summed_directly(monkeypatch):
    # order -1 sums every lag with weight 1, so the transform's zero frequency
    # holds 2000 times the 1e306 state and overflows; the direct sums stay finite
    x = 0.1 * np.random.default_rng(4).normal(size=3000)
    x[2500] = 1e306
    w = build_weight_table([-1.0], 1999)[0]
    calls = _counting_block_convolve(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = history_sum(x, w, 1000, 3000)
    assert calls
    assert np.array_equal(got, np.convolve(np.concatenate([np.zeros(999), x]), w, "valid"))


def _convolved_channels(monkeypatch, w):
    """The channels, told by their rows of ``w``, that ``np.convolve`` sums, in call order."""
    channels = []
    convolve = np.convolve

    def spy(a, v, mode):
        channels.extend(i for i in range(w.shape[0]) if np.array_equal(v, w[i]))
        return convolve(a, v, mode)

    monkeypatch.setattr(np, "convolve", spy)
    return channels


#: (rows [start, stop), lags, transform calls) of each route; the FFT one with one
#: channel whose transform overflows.
CHANNEL_ROUTES = {"direct": (100, 250, 50, 0), "fft": (1000, 3000, 2000, 1),
                  "overflow": (1000, 3000, 2000, 1)}


@pytest.mark.parametrize("route", sorted(CHANNEL_ROUTES))
@pytest.mark.parametrize("seed", range(12))
def test_each_channel_of_a_history_sum_has_the_bits_of_its_one_channel_call(
        monkeypatch, route, seed):
    rng = np.random.default_rng(seed)
    n = 1 + seed % 6
    start, stop, lags, transforms = CHANNEL_ROUTES[route]
    x = 0.1 * rng.normal(size=(3000, n))
    w = build_weight_table(rng.uniform(-0.9, 1.4, n), lags - 1).copy()
    hot = int(rng.integers(n))
    if route == "overflow":
        # order -1 sums every lag with weight 1: the transform of the 1e306 state
        # overflows, its direct sums do not
        x[2500, hot] = 1e306
        w[hot] = 1.0
    calls = _counting_block_convolve(monkeypatch)
    summed = _convolved_channels(monkeypatch, w)
    got = history_sum(x, w, start, stop)
    assert len(calls) == transforms
    # np.convolve sums a channel again after the transform only if its sums are not finite
    assert summed == {"direct": list(range(n)), "fft": [], "overflow": [hot]}[route]
    assert np.isfinite(got).all()
    for i in range(n):
        assert got[:, i].tobytes() == history_sum(x[:, i], w[i], start, stop).tobytes(), i
    if route == "overflow":
        want = np.convolve(np.concatenate([np.zeros(lags - 1 - start), x[:stop, hot]]), w[hot],
                           "valid")
        assert np.array_equal(got[:, hot], want)


def test_history_sum_by_fft_rounds_relative_to_the_whole_segment():
    # the transform spreads the rounding of the largest sums over every row:
    # on a series growing a millionfold the first rows are off by 1.3e-12 of
    # their own running maximum, but by 3e-15 of the largest sum
    x = np.exp(np.linspace(0.0, np.log(1e6), 3000)) * np.random.default_rng(3).normal(size=3000)
    w = build_weight_table([0.5], 2999)[0]
    got = history_sum(x, w, 1000, 3000)
    want = loop_history_sum(x, w, 1000, 3000)
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


@pytest.mark.parametrize("orders,window,p", [
    ([0.5], (0, 120), 160),
    ([0.3, 1.4], (20, 120), 12),
])
def test_identification_matches_the_row_loops(monkeypatch, orders, window, p):
    traj = _noisy_trajectory(orders, 160, 9)
    x = traj.states
    ks = np.arange(window[0], window[0] + window[1])
    fast = identify(traj, p, 1e-3, window)
    ols = ols_spatial(traj, fast.alpha_hat, window)
    for i, alpha in enumerate(fast.alpha_hat):
        w = build_weight_table([alpha], int(ks[-1]) + 1)[0]
        row = np.linalg.lstsq(x[ks], loop_gl_targets(x[:, i], w, ks), rcond=None)[0]
        np.testing.assert_allclose(fast.A_hat[i], row, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(ols.A_hat[i], row, rtol=1e-9, atol=1e-12)
        assert fast.mse[i] == pytest.approx(loop_prediction_mse(x, i, row, w, ks, p), rel=1e-9)
    # the bisection takes the same path when every sum is a row loop
    monkeypatch.setattr(sysid, "history_sum", loop_history_sum)
    slow = identify(traj, p, 1e-3, window)
    assert np.array_equal(fast.alpha_hat, slow.alpha_hat)
    assert np.array_equal(fast.iterations, slow.iterations)
    assert fast.flags == slow.flags


@pytest.mark.parametrize("orders", [[0.5], [0.3, 1.4]])
def test_identification_above_the_fft_crossover_matches_the_row_loops(monkeypatch, orders):
    traj = _noisy_trajectory(orders, 10000, 9)
    x = traj.states
    window, p = (8000, 2000), 200
    ks = np.arange(window[0], window[0] + window[1])
    calls = _counting_block_convolve(monkeypatch)
    fast = identify(traj, p, 1e-3, window)
    ols = ols_spatial(traj, fast.alpha_hat, window)
    # the full-memory targets go by FFT, the depth-p prediction sums stay direct
    assert calls and all(shape[0] == ks.size + ks[-1] + 1 for shape in calls)
    for i, alpha in enumerate(fast.alpha_hat):
        w = build_weight_table([alpha], int(ks[-1]) + 1)[0]
        row = np.linalg.lstsq(x[ks], loop_gl_targets(x[:, i], w, ks), rcond=None)[0]
        np.testing.assert_allclose(fast.A_hat[i], row, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(ols.A_hat[i], row, rtol=1e-9, atol=1e-12)
        assert fast.mse[i] == pytest.approx(loop_prediction_mse(x, i, row, w, ks, p), rel=1e-9)
