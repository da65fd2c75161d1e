import re
import sys
import warnings

import numpy as np
import pytest

from fracdyn import (
    DimensionError,
    DomainError,
    FosModel,
    FosSimulator,
    MpcProblem,
    MultiTermNetwork,
    NonFiniteError,
    Trajectory,
    aj_series,
    augment_p,
    augment_v,
    build_weight_table,
    deadbeat_input,
    finite_time_gramian,
    frac_difference,
    gaussian_noise,
    identify,
    network_series,
    ols_error_bound,
    ols_spatial,
    run_closed_loop,
    simulate_augmented,
    simulate_fos,
    simulate_network,
    transition_matrices,
    uncontrolled_baseline,
)


def scalar_fixture():
    return FosModel(alpha=[0.5], A=[[0.2]], B=[[1.0]])


def test_zero_everything_gives_zero_trajectory():
    m = scalar_fixture()
    traj = simulate_fos(m, [0.0], K=10)
    assert np.abs(traj.states).max() == 0.0


def test_scalar_derived_states():
    traj = simulate_fos(scalar_fixture(), [1.0], K=2)
    np.testing.assert_allclose(traj.states.ravel(), [1.0, 0.7, 0.615], atol=1e-15)


# Regression profile for the identified scalar seizure surrogate
# (A = -0.0054, alpha = 1.4881): values pinned from the first verified run.
SEIZURE_PROFILE = {
    1: 1.4827,
    10: 3.319016870677201,
    25: 4.028738312778211,
    50: 2.995001343564687,
    100: -0.09457890317611309,
}


def test_seizure_surrogate_regression_profile():
    m = FosModel(alpha=[1.4881], A=[[-0.0054]], B=[[1.0]], Bw=[[0.1]])
    traj = simulate_fos(m, [1.0], K=100)
    x = traj.states.ravel()
    for k, val in SEIZURE_PROFILE.items():
        assert x[k] == pytest.approx(val, rel=1e-12)
    # bounded, single peak, monotone (non-oscillating) decay afterwards
    assert np.abs(x).max() < 5.0
    peak = int(np.argmax(x))
    assert np.all(np.diff(x[peak:]) <= 1e-12)


def test_integer_order_reduces_to_lti():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        mdim = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        rho = np.max(np.abs(np.linalg.eigvals(A + np.eye(n))))
        if rho >= 0.98:
            A = 0.9 * A / rho
        B = rng.normal(size=(n, mdim))
        u = rng.normal(size=(100, mdim))
        w = 0.1 * rng.normal(size=(100, n))
        m = FosModel(alpha=np.ones(n), A=A, B=B, Bw=np.eye(n))
        traj = simulate_fos(m, rng.normal(size=n), u=u, w=w, K=100)
        X = np.zeros((101, n))
        X[0] = traj.states[0]
        for k in range(100):
            X[k + 1] = (A + np.eye(n)) @ X[k] + B @ u[k] + w[k]
        worst = max(worst, np.abs(traj.states - X).max())
    assert worst <= 1e-12


def stable_model(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    alpha = 0.4 + 0.5 * rng.random(n)
    A = -np.diag(0.3 + 0.4 * rng.random(n)) + 0.05 * rng.normal(size=(n, n))
    return FosModel(alpha=alpha, A=A), rng.normal(size=n)


def test_transition_matrix_consistency():
    for seed in range(10):
        m, x0 = stable_model(3000 + seed)
        traj = simulate_fos(m, x0, K=200)
        G = transition_matrices(m, 200)
        free = np.einsum("knm,m->kn", G, x0)
        assert np.abs(traj.states - free).max() <= 1e-10


def test_transition_matrix_examples():
    m = scalar_fixture()
    G = transition_matrices(m, 2)
    np.testing.assert_allclose(G[0], np.eye(1), atol=0.0)
    assert G[1][0, 0] == pytest.approx(0.7, abs=0.0)
    assert G[2][0, 0] == pytest.approx(0.615, abs=1e-15)


def test_transition_integer_order_powers():
    rng = np.random.default_rng(4)
    A = 0.4 * rng.normal(size=(3, 3))
    m = FosModel(alpha=np.ones(3), A=A)
    G = transition_matrices(m, 6)
    lti = A + np.eye(3)
    acc = np.eye(3)
    for k in range(7):
        np.testing.assert_allclose(G[k], acc, atol=1e-12)
        acc = lti @ acc


def test_superposition():
    rng = np.random.default_rng(8)
    m = FosModel(alpha=[0.6, 0.9], A=0.3 * rng.normal(size=(2, 2)), B=rng.normal(size=(2, 1)))
    x0 = rng.normal(size=2)
    u = rng.normal(size=(40, 1))
    both = simulate_fos(m, x0, u=u, K=40)
    free = simulate_fos(m, x0, K=40)
    forced = simulate_fos(m, np.zeros(2), u=u, K=40)
    np.testing.assert_allclose(both.states, free.states + forced.states, atol=1e-10)


def test_augmented_matches_full_when_depth_covers_horizon():
    m = scalar_fixture()
    aug = augment_p(m, 2)
    lifted = simulate_augmented(aug, [1.0], K=2)
    np.testing.assert_allclose(lifted.states.ravel(), [1.0, 0.7, 0.615], atol=1e-15)


def test_augmented_truncation_error_at_depth_one():
    m = scalar_fixture()
    aug = augment_p(m, 1)
    lifted = simulate_augmented(aug, [1.0], K=2)
    assert lifted.states[2, 0] == pytest.approx(0.49, abs=1e-15)
    full = simulate_fos(m, [1.0], K=2)
    assert abs(full.states[2, 0] - lifted.states[2, 0]) == pytest.approx(0.125, abs=1e-15)


def test_overflowing_lift_raises_without_a_numpy_warning():
    # x grows about 30-fold a step from 1e300; the lift's matmul overflows first
    aug = augment_p(FosModel(alpha=[0.5], A=[[30.0]]), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"^state became non-finite at step 6$"):
            simulate_augmented(aug, [1e300], K=50)


def test_an_overflowing_transition_block_keeps_the_step_loop():
    # G_k overflows within the first block, so every block is stepped; x0 = 0 stays put
    traj = simulate_fos(FosModel([0.5], [[1e200]]), [0.0], K=200)
    assert traj.states.shape == (201, 1) and not traj.states.any()


@pytest.fixture
def stored(monkeypatch):
    """The steps k that the one store step of ``simulate`` sums, in call order."""
    import fracdyn.simulate as simulate

    steps = []
    store = simulate._store

    def counted(X, k, parts):
        steps.append(k)
        return store(X, k, parts)

    monkeypatch.setattr(simulate, "_store", counted)
    return steps


#: Open-loop runs of 1000 steps: of a model with no channel of integer order, and of one
#: with an integer-order channel, which is stepped throughout.
OPEN_LOOP = {
    "simulate_fos": lambda: simulate_fos(
        FosModel([0.5, 0.8], [[-0.3, 0.1], [0.0, -0.2]], B=[[1.0], [0.5]]), [1.0, -1.0],
        u=np.ones((1000, 1)), K=1000),
    "transition_matrices": lambda: transition_matrices(
        FosModel([0.5, 0.8], [[-0.3, 0.1], [0.0, -0.2]]), 1000),
    "simulate_network": lambda: simulate_network(
        MultiTermNetwork(state_terms=[(0.6, np.eye(2))], input_terms=[(0.5, [[1.0], [0.0]])]),
        [1.0, -1.0], u=np.ones((1000, 1)), K=1000),
    "integer order": lambda: simulate_fos(
        FosModel([1.0, 0.8], [[-0.3, 0.1], [0.0, -0.2]]), [1.0, -1.0], K=1000),
}


@pytest.mark.parametrize("run", sorted(OPEN_LOOP))
def test_an_open_loop_run_stores_only_its_first_block_step_by_step(stored, run):
    # the first NEAR_BLOCK steps, then the NEAR_BLOCK steps of the transition matrices
    # that solve each later block at once; an integer-order channel keeps the loop
    from fracdyn.fraccore import NEAR_BLOCK

    OPEN_LOOP[run]()
    block = list(range(NEAR_BLOCK))
    assert stored == (list(range(1000)) if run == "integer order" else block + block)


def test_the_stepper_returns_the_row_it_stores(stored):
    sim = FosSimulator(scalar_fixture(), [1.0], 5)
    rows = [sim.step(u=[0.5]) for _ in range(5)]
    assert stored == list(range(5))
    assert np.array_equal(np.array(rows, dtype=float), sim.states[1:])


@pytest.mark.parametrize("steps", [None, 301, 7], ids=["constant", "full schedule", "clamped"])
def test_network_outputs_are_each_step_s_map_times_its_state(steps):
    rng = np.random.default_rng(41)
    K = 300
    C = rng.normal(size=(2, 3) if steps is None else (steps, 2, 3))
    net = MultiTermNetwork(state_terms=((0.7, np.eye(3)), (0.3, 0.1 * rng.normal(size=(3, 3)))),
                           disturbance_terms=((0.6, np.eye(3)),), C=C)
    traj = simulate_network(net, rng.normal(size=3), w=0.1 * rng.normal(size=(K, 3)), K=K)
    maps = C[np.minimum(np.arange(K + 1), C.shape[0] - 1)] if C.ndim == 3 else np.stack(
        [C] * (K + 1))
    assert traj.outputs.tobytes() == (maps @ traj.states[:, :, None])[:, :, 0].tobytes()


def test_truncation_monotone_in_depth_on_positive_family():
    for seed in range(8):
        rng = np.random.default_rng(4000 + seed)
        alpha = 0.3 + 0.5 * rng.random(2)
        A = 0.1 * rng.random((2, 2))
        m = FosModel(alpha=alpha, A=A)
        x0 = 0.5 + rng.random(2)
        K = 40
        full = simulate_fos(m, x0, K=K)
        prev = None
        for p in (1, 2, 5, 10, 20, 40):
            lifted = simulate_augmented(augment_p(m, p), x0, K=K)
            err = np.abs(lifted.states - full.states).max()
            if prev is not None:
                assert err <= prev + 1e-12
            prev = err


def test_gaussian_noise_contracts():
    assert np.abs(gaussian_noise(3, 50, 2, 0.0)).max() == 0.0
    a = gaussian_noise(123, 100, 3, 0.7)
    b = gaussian_noise(123, 100, 3, 0.7)
    np.testing.assert_array_equal(a, b)
    big = gaussian_noise(1, 10_000, 1, 1.0)
    assert 0.97 <= big.std() <= 1.03


def test_nonfinite_error_reports_step():
    # x grows about threefold a step from 1e300 and passes the float64 maximum at step 17
    m = FosModel(alpha=[1.9], A=[[1.5]])
    with pytest.raises(NonFiniteError, match=r"^state became non-finite at step 17$"):
        simulate_fos(m, [1e300], K=400)


def test_dimension_errors():
    m = scalar_fixture()
    with pytest.raises(DimensionError):
        simulate_fos(m, [1.0, 2.0], K=2)
    with pytest.raises(DimensionError):
        simulate_fos(m, [1.0], u=np.ones((3, 2)), K=3)
    with pytest.raises(DomainError, match="^step count K must be non-negative$"):
        simulate_fos(m, [1.0], K=-1)


def test_simulator_seed_dispatch_is_deterministic():
    m = FosModel(alpha=[0.5], A=[[0.2]], Bw=[[1.0]])
    t1 = simulate_fos(m, [1.0], w=42, K=20, noise_sigma=0.3)
    t2 = simulate_fos(m, [1.0], w=42, K=20, noise_sigma=0.3)
    np.testing.assert_array_equal(t1.states, t2.states)
    np.testing.assert_array_equal(t1.noises, gaussian_noise(42, 20, 1, 0.3))


def test_trajectory_validation():
    with pytest.raises(DimensionError):
        Trajectory(states=np.ones((3, 1)), inputs=np.ones((3, 1)))  # needs K rows
    with pytest.raises(DomainError):
        Trajectory(states=np.array([[np.inf]]))


def test_stepper_refuses_past_horizon():
    sim = FosSimulator(scalar_fixture(), [1.0], max_steps=2)
    sim.step()
    sim.step()
    with pytest.raises(DimensionError):
        sim.step()


@pytest.mark.parametrize("drives, message", [
    (dict(u=[1.0, 2.0]), "^u must have length 1$"),
    (dict(u=[1.0], w=[0.0]), "^w must have length 2$"),
    (dict(w=np.zeros((2, 1))), "^w must have length 2$"),
])
def test_stepper_checks_its_drive_lengths(drives, message):
    m = FosModel(alpha=[0.4, 1.3], A=[[-0.2, 0.1], [0.0, -0.3]], B=[[1.0], [0.5]], Bw=np.eye(2))
    sim = FosSimulator(m, [1.0, 0.0], max_steps=2)
    with pytest.raises(DimensionError, match=message):
        sim.step(**drives)
    assert sim.k == 0


def test_stepper_steps_a_matrix_of_free_responses():
    m = FosModel(alpha=[0.4, 1.3], A=[[-0.2, 0.1], [0.0, -0.3]], B=[[1.0], [0.5]])
    X0 = np.array([[1.0, 0.5, 0.0], [-2.0, 0.0, 1.0]])
    # the stepper holds one state vector: free responses side by side are
    # transition_matrices' open-loop run, not the closed-loop stepper's
    with pytest.raises(DimensionError):
        FosSimulator(m, X0, max_steps=2).step(u=[1.0])
    with pytest.raises(DimensionError):
        FosSimulator(m, np.ones((3, 2)), max_steps=2)


def _count_calls(count):
    """Each public call that takes a step count, horizon, depth or window, with ``count`` as it."""
    model = FosModel(alpha=[0.5, 0.7], A=[[-0.2, 0.1], [0.0, -0.3]], B=[[1.0], [0.5]])
    net = MultiTermNetwork(state_terms=[(0.6, np.eye(2))], input_terms=[(0.5, [[1.0], [0.0]])])
    problem = MpcProblem(p=3, P=4, M=2, Q=1.0, R=0.1, u_lo=-1.0, u_hi=1.0)
    x0 = [1.0, -0.5]
    run = simulate_fos(FosModel(alpha=[0.5], A=[[-0.1]], Bw=[[1.0]]), [1.0], w=3, K=30)
    return {
        "simulate_fos": lambda: simulate_fos(model, x0, K=count),
        "simulate_network": lambda: simulate_network(net, x0, K=count),
        "simulate_augmented": lambda: simulate_augmented(augment_p(model, 3), x0, K=count),
        "transition_matrices": lambda: transition_matrices(model, count),
        "FosSimulator": lambda: FosSimulator(model, x0, count).states,
        "deadbeat_input": lambda: deadbeat_input(model, None, x0, count),
        "run_closed_loop": lambda: run_closed_loop(model, problem, count, 0).applied,
        "uncontrolled_baseline": lambda: uncontrolled_baseline(model, count, 0).states,
        "build_weight_table": lambda: build_weight_table([0.5], count),
        "aj_series": lambda: np.array(aj_series(model, count)),
        "network_series": lambda: network_series(net, count).A,
        "augment_p": lambda: augment_p(model, count).Atil,
        "augment_v": lambda: augment_v(net, count).Atil,
        "MpcProblem p": lambda: MpcProblem(p=count, P=4, M=2, Q=1.0, R=0.1),
        "MpcProblem P": lambda: MpcProblem(p=3, P=count, M=1, Q=1.0, R=0.1),
        "gaussian_noise seed": lambda: gaussian_noise(count, 4, 2, 1.0),
        "gaussian_noise steps": lambda: gaussian_noise(1, count, 2, 1.0),
        "gaussian_noise dim": lambda: gaussian_noise(1, 4, count, 1.0),
        "frac_difference": lambda: frac_difference(run.states, [0.5], count),
        "identify": lambda: identify(run, count, 0.1).alpha_hat,
        "window offset": lambda: ols_spatial(run, [0.5], (count, 20)).A_hat,
        "window length": lambda: ols_spatial(run, [0.5], (0, count)).A_hat,
        "finite_time_gramian": lambda: finite_time_gramian([[0.5]], count),
        "ols_error_bound K": lambda: np.array(ols_error_bound([[0.5]], count, 1, 0.1)),
        "ols_error_bound k": lambda: np.array(ols_error_bound([[0.5]], 30, count, 0.1)),
    }


COUNTED = list(_count_calls(3))


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None])
@pytest.mark.parametrize("call", COUNTED)
def test_a_step_count_must_be_a_whole_number(call, bad):
    # the message names the argument: "step count K", "horizon J", "max_steps", ...
    named = (r"^[\w ]*\b(K|J|j|k|p|P|t|v|max_steps|steps|dim|seed|offset|length) "
             r"must be a whole number, got ")
    with pytest.raises(DomainError, match=named):
        _count_calls(bad)[call]()


@pytest.mark.parametrize("call", COUNTED)
def test_a_numpy_integer_count_keeps_the_bits_of_an_int(call):
    want, got = _count_calls(3)[call](), _count_calls(np.int64(3))[call]()
    if isinstance(want, Trajectory):
        want, got = want.states, got.states
    if isinstance(want, MpcProblem):
        want, got = want[:3], got[:3]
    np.testing.assert_array_equal(got, want, strict=True)


#: What each counted call says of a count below its floor.
FLOORS = {
    "simulate_fos": "step count K must be non-negative",
    "simulate_network": "step count K must be non-negative",
    "simulate_augmented": "step count K must be non-negative",
    "transition_matrices": "horizon K must be non-negative",
    "FosSimulator": "max_steps must be non-negative",
    "deadbeat_input": "horizon K must be >= 1",
    "run_closed_loop": "step count K must be >= 1",
    "uncontrolled_baseline": "step count K must be >= 1",
    "build_weight_table": "horizon J must be non-negative",
    "aj_series": "series length J must be non-negative",
    "network_series": "series length J must be non-negative",
    "augment_p": "augmentation depth p must be >= 1",
    "augment_v": "truncation depth v must be >= 1",
    "MpcProblem p": "model depth p must be >= 1",
    "MpcProblem P": "prediction horizon P must be >= 1",
    "gaussian_noise seed": "seed must be non-negative",
    "gaussian_noise steps": "steps must be non-negative",
    "gaussian_noise dim": "dim must be non-negative",
    # a step outside the series and a k outside 1..K keep the messages of their ranges
    "frac_difference": "step k=-1 outside series of length 31",
    "identify": "memory depth p must be >= 1",
    "window offset": "window offset must be non-negative",
    "window length": "window length must be >= 1",
    "finite_time_gramian": "gramian horizon t must be >= 1",
    "ols_error_bound K": "need 1 <= k <= K",
    "ols_error_bound k": "need 1 <= k <= K",
}

BELOW_FLOOR = [(call, count) for call, message in FLOORS.items()
               for count in ([-1, 0] if message.endswith(">= 1") else [-1])]


def test_every_counted_call_has_a_floor():
    assert list(FLOORS) == COUNTED


@pytest.mark.parametrize("call,count", BELOW_FLOOR)
def test_a_count_below_its_floor_is_refused_naming_it(call, count):
    error = IndexError if call == "frac_difference" else DomainError
    with pytest.raises(error, match=f"^{re.escape(FLOORS[call])}$"):
        _count_calls(count)[call]()


def _seeded(seed):
    """Each entry that draws its noise from ``seed`` when that is not an array."""
    model = FosModel(alpha=[0.5, 0.7], A=[[-0.2, 0.1], [0.0, -0.3]], B=[[1.0], [0.5]])
    net = MultiTermNetwork(state_terms=[(0.6, np.eye(2))], disturbance_terms=[(0.7, np.eye(2))])
    problem = MpcProblem(p=3, P=4, M=2, Q=1.0, R=0.1, u_lo=-1.0, u_hi=1.0)
    return {
        "simulate_fos": lambda: simulate_fos(model, [1.0, -0.5], w=seed, K=3),
        "simulate_network": lambda: simulate_network(net, [1.0, -0.5], w=seed, K=3),
        "run_closed_loop": lambda: run_closed_loop(model, problem, 3, seed),
        "uncontrolled_baseline": lambda: uncontrolled_baseline(model, 3, seed),
    }


@pytest.mark.parametrize("bad", [-1, 2.5, np.nan, np.inf, -np.inf, True])
@pytest.mark.parametrize("call", list(_seeded(0)))
def test_a_seed_must_be_a_count(call, bad):
    # true is not seed 1, and numpy's own refusals of -1, 2.5 or nan are not the message
    with pytest.raises(DomainError, match=r"^seed must be (a whole number|non-negative)"):
        _seeded(bad)[call]()
    _seeded(np.zeros((3, 2)))[call]()  # an explicit noise array is no seed


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, -1.0])
def test_a_noise_scale_must_be_finite_and_non_negative(sigma):
    m = FosModel(alpha=[0.5], A=[[0.2]], Bw=[[1.0]])
    for draw in (lambda: gaussian_noise(1, 2, 1, sigma),
                 lambda: simulate_fos(m, [1.0], w=1, K=3, noise_sigma=sigma)):
        with pytest.raises(DomainError, match=r"^sigma must (be finite|lie in \[0, inf\)), got "):
            draw()


def _stepped_from(x0):
    """Each entry that steps a state from ``x0``."""
    model = FosModel(alpha=[0.5, 0.7], A=[[-0.2, 0.1], [0.0, -0.3]], B=[[1.0], [0.5]])
    net = MultiTermNetwork(state_terms=[(0.6, np.eye(2))], input_terms=[(0.5, [[1.0], [0.0]])])
    problem = MpcProblem(p=3, P=4, M=2, Q=1.0, R=0.1, u_lo=-1.0, u_hi=1.0)
    return {
        "simulate_fos": lambda: simulate_fos(model, x0, K=3),
        "simulate_network": lambda: simulate_network(net, x0, K=3),
        "FosSimulator": lambda: FosSimulator(model, x0, 3),
        "run_closed_loop": lambda: run_closed_loop(model, problem, 3, 0, x0=x0),
        "uncontrolled_baseline": lambda: uncontrolled_baseline(model, 3, 0, x0=x0),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", list(_stepped_from([0.0, 0.0])))
def test_a_non_finite_initial_state_is_refused_as_an_argument(call, bad):
    with pytest.raises(DomainError, match="^x0 entries must be finite$"):
        _stepped_from([bad, 0.5])[call]()


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 a caller holds its call's arguments through the call")
def test_a_long_run_allocates_about_five_state_arrays_beyond_its_outputs():
    # K = 16000, n = 4: besides the states, noise and inputs it returns, a run holds the
    # tail kernel, the far field and the spectra of the smaller far-field blocks (about
    # one state array each), and at its largest update two transform buffers more: that
    # update's spectrum, which no later update uses, is freed before its inverse transform
    import tracemalloc

    model = FosModel(alpha=[0.3, 0.5, 0.7, 0.9], A=-0.05 * np.eye(4), B=np.ones((4, 1)))
    simulate_fos(model, np.ones(4), w=3, K=300)  # lazy imports and caches come first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        traj = simulate_fos(model, np.ones(4), w=3, K=16000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    outputs = traj.states.nbytes + traj.noises.nbytes + traj.inputs.nbytes
    assert peak - outputs < 5.5 * traj.states.nbytes, (peak, outputs)


def test_the_memory_tail_keeps_a_spectrum_only_for_a_later_update():
    from fracdyn.fraccore import NEAR_BLOCK, MemoryTail

    tail = MemoryTail(np.ones((1000, 1)), np.ones((1000, 1)))
    sizes = {}
    for s in range(NEAR_BLOCK, 1000, NEAR_BLOCK):
        tail.far(s)
        sizes[s] = sorted(size for _, _, size in tail._spectra)
    # a block of b steps at s is next convolved at s + 2b, if that is inside the run
    assert sizes[512] == [128, 256, 512]
    assert sizes[960] == []
