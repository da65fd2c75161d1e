import functools
import math
import warnings

import numpy as np
import pytest

from fracdyn import (
    DomainError,
    FosModel,
    NonFiniteError,
    SingularError,
    Trajectory,
    augment_p,
    bisection_bound,
    build_weight_table,
    finite_time_gramian,
    gaussian_noise,
    history_sum,
    identify,
    ols_error_bound,
    ols_spatial,
    simulate_fos,
    sysid,
)
from test_identify_oracle import random_case


def test_bisection_bound_values():
    assert bisection_bound(2.0) == 0
    assert bisection_bound(0.5) == 2
    assert bisection_bound(1e-3) == 11
    with pytest.raises(DomainError):
        bisection_bound(0.0)
    with pytest.raises(DomainError):
        bisection_bound(2.5)


def test_finite_time_gramian_examples():
    np.testing.assert_allclose(finite_time_gramian(np.zeros((3, 3)), 5), np.eye(3), atol=0.0)
    np.testing.assert_allclose(finite_time_gramian(np.eye(2), 3), 3 * np.eye(2), atol=0.0)
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(
        finite_time_gramian(nil, 2), np.eye(2) + np.diag([1.0, 0.0]), atol=0.0
    )
    with pytest.raises(DomainError):
        finite_time_gramian(np.eye(2), 0)


def loop_gramian(A, t):
    """W_t = sum_{j<t} A^j (A^j)^T, one product per lag."""
    W = M = np.eye(A.shape[0])
    for _ in range(1, t):
        M = A @ M
        W = W + M @ M.T
    return 0.5 * (W + W.T)


@pytest.mark.parametrize("seed", range(12))
def test_finite_time_gramian_by_doubling_matches_the_lag_loop(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 9))
    A = rng.standard_normal((d, d))
    A *= rng.uniform(0.2, 1.0) / np.abs(np.linalg.eigvals(A)).max()
    for t in (1, 2, 3, 4, 7, 8, 9, 64, 100, 257, int(rng.integers(1, 600))):
        want = loop_gramian(A, t)
        got = finite_time_gramian(A, t)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (d, t)
        assert np.array_equal(got, got.T)


def test_finite_time_gramian_of_a_lift_and_a_rotation_match_the_lag_loop():
    model = FosModel(alpha=[0.6, 0.9], A=[[-0.2, 0.05], [0.1, -0.3]])
    theta = 0.3
    rotation = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    for A, t in ((augment_p(model, 6).Atil, 500), (rotation, 333)):
        want = loop_gramian(A, t)
        assert np.abs(finite_time_gramian(A, t) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("A, t", [([[2.0]], 600), ([[1e200]], 2),
                                  ([[0.5, 1e160], [0.0, 0.5]], 3)])
def test_an_overflowing_gramian_raises(A, t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert not np.isfinite(loop_gramian(np.array(A), t)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError,
                           match=f"^the gramian of Atil overflows by horizon t={t}$"):
            finite_time_gramian(A, t)


def test_ols_error_bound_closed_form():
    res = ols_error_bound(np.zeros((1, 1)), 100, 1, 0.1)
    assert res.value == pytest.approx(0.1 * math.sqrt(math.log(10.0)), rel=1e-12)
    assert res.logdet == 0.0
    # doubling K shrinks the bound by exactly 1/sqrt(2) when logdet stays 0
    res2 = ols_error_bound(np.zeros((1, 1)), 200, 1, 0.1)
    assert res2.value == pytest.approx(res.value / math.sqrt(2.0), rel=1e-12)
    # delta -> 1 with d = 1 drives the bound to zero
    res3 = ols_error_bound(np.zeros((1, 1)), 100, 1, 1.0)
    assert res3.value == 0.0


@pytest.mark.parametrize("C, c", [(1.0, 1.0), (2.5, 0.3)], ids=["defaults", "other"])
def test_ols_error_bound_of_a_scalar_lift_is_its_closed_form(C, c):
    # d = 1 and W_t = (1 - a^2t) / (1 - a^2), so lambda_min = W_k and logdet = log(W_K / W_k)
    a, K, k, delta = 0.9, 50, 5, 0.1
    W = {t: (1.0 - a ** (2 * t)) / (1.0 - a * a) for t in (K, k)}
    inner = math.log(1.0 / delta) + math.log(W[K] / W[k])
    constants = {} if (C, c) == (1.0, 1.0) else {"C": C, "c": c}
    res = ols_error_bound([[a]], K, k, delta, **constants)
    assert res.lambda_min == pytest.approx(W[k], rel=1e-12)
    assert res.logdet == pytest.approx(math.log(W[K] / W[k]), rel=1e-12)
    assert res.value == pytest.approx(C / math.sqrt(K * W[k]) * math.sqrt(inner), rel=1e-12)
    assert res.side_rhs == pytest.approx(c * inner, rel=1e-12)
    assert res.side_lhs == K / k and res.side_ok == (K / k >= c * inner)


def test_ols_error_bound_reports_side_condition():
    A = np.array([[0.9, 0.1], [0.0, 0.8]])
    res = ols_error_bound(A, 400, 4, 0.05)
    assert res.side_lhs == pytest.approx(100.0)
    assert res.side_rhs > 0.0
    assert res.lambda_min > 0.0
    assert isinstance(res.side_ok, bool)


@pytest.mark.parametrize("window", [(0,), 5, (0, 10, 5), "ab"])
def test_a_window_must_be_an_offset_length_pair(window):
    traj = Trajectory(states=np.random.default_rng(0).standard_normal((40, 1)).cumsum(axis=0))
    for call in (lambda: identify(traj, 3, 0.1, window), lambda: ols_spatial(traj, [0.5], window)):
        with pytest.raises(DomainError, match=r"^window (offset )?must be"):
            call()


def test_a_non_finite_matrix_fails_alike_in_both_gramian_calls():
    for call in (lambda: finite_time_gramian([[np.nan]], 3),
                 lambda: ols_error_bound([[np.nan]], 10, 2, 0.1)):
        with pytest.raises(DomainError, match="^Atil entries must be finite$"):
            call()


def test_ols_error_bound_domain_checks():
    with pytest.raises(DomainError):
        ols_error_bound(2.0 * np.eye(1), 10, 1, 0.1)  # spectral radius > 1
    with pytest.raises(DomainError):
        ols_error_bound(np.zeros((1, 1)), 10, 1, 0.0)
    with pytest.raises(DomainError):
        ols_error_bound(np.zeros((1, 1)), 10, 20, 0.1)  # k > K
    with pytest.raises(DomainError, match="^Atil must not be empty"):
        ols_error_bound(np.zeros((0, 0)), 3, 1, 0.1)  # W_k has no smallest eigenvalue


def test_a_gramian_that_rounds_to_singular_is_a_singular_error():
    # A is nilpotent, so W_2 = I + A A^T has eigenvalues 1 and 1 + 2^63; but 1 + 2^61 rounds
    # to 2^61, and the computed W_2 is 2^61 times a matrix of ones, singular: a numerical
    # failure, not an argument outside the bound's domain
    c = 2.0**30
    A = [[c, -c], [c, -c]]
    assert np.array_equal(finite_time_gramian(A, 2), np.full((2, 2), 2.0**61))
    with pytest.raises(SingularError, match="^W_k is singular to working precision: "
                                            "rounding lost its identity term$"):
        ols_error_bound(A, 10, 2, 0.1)


def scalar_fixture():
    return FosModel(alpha=[0.5], A=[[0.2]], Bw=[[1.0]])


def test_ols_spatial_exact_on_noise_free_data():
    m = scalar_fixture()
    traj = simulate_fos(m, [1.0], K=120)
    res = ols_spatial(traj, [0.5], window=(0, 100))
    assert abs(res.A_hat[0, 0] - 0.2) <= 1e-8
    assert not res.ridge
    data_norm = np.linalg.norm(traj.states)
    assert res.normal_residual <= 1e-8 * data_norm


def test_ols_spatial_zero_state_raises():
    traj = Trajectory(states=np.zeros((50, 1)))
    with pytest.raises(SingularError):
        ols_spatial(traj, [0.5], window=(0, 40))


def test_ols_spatial_fits_a_collinear_window_whose_squares_underflow():
    # only an all-zero window lacks spatial information; 1e-170 squared is zero
    base = np.random.default_rng(0).standard_normal(200).cumsum() * 1e-170
    res = ols_spatial(Trajectory(states=np.column_stack([base, 2.0 * base])), [0.5, 0.5],
                      window=(0, 150))
    assert res.ridge
    assert np.isfinite(res.A_hat).all() and res.A_hat.any()


def test_ols_spatial_raises_when_the_targets_overflow():
    # channel 2 alternates between +-1.5e308: its first differences are +-inf
    states = np.random.default_rng(0).standard_normal((200, 2)).cumsum(axis=0)
    states[:, 1] = 1.5e308 * (-1.0) ** np.arange(200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="^spatial rows are not finite$"):
            ols_spatial(Trajectory(states=states), [1.0, 1.0], window=(0, 150))


def overflowing_scale_walk() -> Trajectory:
    """A 2-channel random walk whose channel 2 is scaled by 1e160: numerically rank 1."""
    states = np.random.default_rng(0).standard_normal((200, 2)).cumsum(axis=0)
    states[:, 1] *= 1e160
    return Trajectory(states=states)


def test_ols_spatial_fits_a_window_whose_gram_matrix_would_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ols_spatial(overflowing_scale_walk(), [0.5, 0.5], window=(0, 150))
    assert res.ridge
    assert np.isfinite(res.A_hat).all()


def test_ols_spatial_normal_residual_stays_finite_where_the_scales_overflow():
    # Xw^T residuals would reach 1e160 x 1e161; the column-scaled product does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ols_spatial(overflowing_scale_walk(), [0.5, 0.5], window=(0, 150))
    assert np.isfinite(res.normal_residual)
    assert res.normal_residual <= 1e3 * np.abs(res.residuals).max()


def test_identify_names_the_channel_whose_predictions_overflow():
    # channel 2's errors near 1e160 square past the float range; channel 1's are benign
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="^channel 2: prediction error is not finite$"):
            identify(overflowing_scale_walk(), 20, 1e-2, (0, 150))


@functools.cache
def rank_deficient_cases() -> tuple:
    """The oracle grid's rank-deficient, not all-zero windows, with their regressors."""
    cases = []
    for seed in range(300):
        traj, _, _, (offset, length) = random_case(seed)
        Xw = traj.states[offset : offset + length]
        if Xw.any() and np.linalg.matrix_rank(Xw) < Xw.shape[1]:
            cases.append((traj, (offset, length), Xw))
    return tuple(cases)


def minimum_norm_rows(traj, window, Xw, order):
    """Minimum-norm least-squares rows by SVD, with lstsq's cutoff eps * max(M, N) * s_max."""
    offset, length = window
    w = build_weight_table([order] * Xw.shape[1], offset + length)
    Z = np.column_stack([history_sum(x, wi, offset + 1, offset + length + 1)
                         for x, wi in zip(traj.states.T, w)])
    U, sv, Vt = np.linalg.svd(Xw, full_matrices=False)
    keep = sv > np.finfo(float).eps * max(Xw.shape) * sv[0]
    return (Vt[keep].T @ ((U[:, keep].T @ Z) / sv[keep, None])).T


def test_rank_deficient_rows_are_the_minimum_norm_least_squares_rows():
    cases = rank_deficient_cases()
    assert len(cases) >= 50
    for traj, window, Xw in cases:
        res = ols_spatial(traj, [0.5] * Xw.shape[1], window)
        ref = minimum_norm_rows(traj, window, Xw, 0.5)
        assert res.ridge
        err = np.linalg.norm(res.A_hat - ref, axis=1)
        assert (err <= 1e-9 * np.linalg.norm(ref, axis=1)).all(), (window, err)


def test_rank_deficient_rows_do_not_depend_on_the_target_layout(monkeypatch):
    # the same targets summed into a strided column must give the same bits
    contiguous = [ols_spatial(traj, [0.5] * Xw.shape[1], window).A_hat
                  for traj, window, Xw in rank_deficient_cases()]
    real = sysid.history_sums

    def strided(x, lags, start, stop):
        targets = real(x, lags, start, stop)

        def sums(weights):
            out = targets(weights)
            wide = np.zeros((out.shape[0], 3) + out.shape[1:])
            wide[:, 1] = out
            return wide[:, 1]

        return sums

    monkeypatch.setattr(sysid, "history_sums", strided)
    for (traj, window, Xw), rows in zip(rank_deficient_cases(), contiguous):
        assert ols_spatial(traj, [0.5] * Xw.shape[1], window).A_hat.tobytes() == rows.tobytes()


def test_ols_spatial_ridge_on_collinear_channels():
    m = scalar_fixture()
    base = simulate_fos(m, [1.0], K=120).states[:, 0]
    states = np.column_stack([base, 2.0 * base])  # rank-1 regressors
    res = ols_spatial(Trajectory(states=states), [0.5, 0.5], window=(0, 100))
    assert res.ridge


def test_ols_spatial_noisy_pinned():
    # Monte-Carlo value pinned from the first verified run (seed 3)
    m = scalar_fixture()
    w = gaussian_noise(3, 2000, 1, 0.01)
    traj = simulate_fos(m, [1.0], w=w, K=2000)
    res = ols_spatial(traj, [0.5], window=(0, 1999))
    assert abs(res.A_hat[0, 0] - 0.2) <= 0.05


def test_ols_error_decay_trend():
    m = scalar_fixture()
    medians = []
    for K in (200, 800, 3200):
        errs = []
        for seed in range(20):
            w = gaussian_noise(seed, K, 1, 0.05)
            traj = simulate_fos(m, [1.0], w=w, K=K)
            res = ols_spatial(traj, [0.5], window=(0, K - 1))
            errs.append(abs(res.A_hat[0, 0] - 0.2))
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2]


def test_identify_recovers_scalar_half_order():
    m = FosModel(alpha=[0.5], A=[[0.2]])
    traj = simulate_fos(m, [1.0], K=160)
    res = identify(traj, p=160, epsilon=1e-3, window=(0, 120))
    assert abs(res.alpha_hat[0] - 0.5) <= 2e-3
    assert abs(res.A_hat[0, 0] - 0.2) <= 1e-2
    assert res.iterations[0] <= bisection_bound(1e-3) == 11
    assert res.flags[0] == ()


def test_identify_recovers_integer_order():
    A = np.array([[0.05, 0.3], [-0.3, 0.05]])
    m = FosModel(alpha=[1.0, 1.0], A=A)
    traj = simulate_fos(m, [1.0, -0.5], K=160)
    res = identify(traj, p=160, epsilon=1e-3, window=(0, 120))
    np.testing.assert_allclose(res.alpha_hat, [1.0, 1.0], atol=1e-3)
    np.testing.assert_allclose(res.A_hat, A, atol=1e-2)
    assert np.all(res.iterations <= 11)


def test_identify_white_noise_flags_low_confidence():
    rng = np.random.default_rng(0)
    traj = Trajectory(states=rng.normal(size=(200, 1)))
    res = identify(traj, p=150, epsilon=1e-3, window=(0, 150))
    assert "low_confidence" in res.flags[0]


def test_identify_constant_channel_degenerate():
    m = FosModel(alpha=[0.5], A=[[0.2]])
    live = simulate_fos(m, [1.0], K=160).states[:, 0]
    states = np.column_stack([np.full(161, 2.5), live])
    res = identify(Trajectory(states=states), p=150, epsilon=1e-3, window=(0, 120))
    assert "degenerate" in res.flags[0]
    assert res.alpha_hat[0] == 0.0
    assert abs(res.alpha_hat[1] - 0.5) <= 2e-3


def test_identify_window_validation():
    m = FosModel(alpha=[0.5], A=[[0.2]])
    traj = simulate_fos(m, [1.0], K=30)
    with pytest.raises(DomainError):
        identify(traj, p=30, epsilon=1e-3, window=(0, 10))  # below 10*(n+1)
    with pytest.raises(DomainError):
        identify(traj, p=30, epsilon=2.5, window=(0, 25))
    with pytest.raises(DomainError):
        identify(traj, p=30, epsilon=1e-3, window=(10, 25))  # runs past the data


def test_identify_self_consistency_one_step_mse():
    # identified model must predict one step ahead about as well as the noise floor
    for model, x0 in (
        (FosModel(alpha=[0.5], A=[[0.2]], Bw=[[1.0]]), [1.0]),
        (FosModel(alpha=[0.6, 0.9], A=[[0.1, 0.2], [-0.1, 0.2]], Bw=np.eye(2)), [1.0, -1.0]),
    ):
        n = model.n
        sigma = 0.02
        w = gaussian_noise(11, 400, n, sigma)
        traj = simulate_fos(model, x0, w=w, K=400)
        res = identify(traj, p=200, epsilon=1e-3, window=(0, 200))
        est = FosModel(alpha=res.alpha_hat, A=res.A_hat)
        # one-step predictions from the identified model over the window
        from fracdyn.fraccore import build_weight_table

        table = build_weight_table(est.alpha, 400)
        mse = np.zeros(n)
        ks = np.arange(0, 200)
        for i in range(n):
            for k in ks:
                hist = traj.states[k::-1, i][: min(k + 1, 200)]
                pred = res.A_hat[i] @ traj.states[k] - table[i, 1 : hist.size + 1] @ hist
                mse[i] += (pred - traj.states[k + 1, i]) ** 2
        mse /= ks.size
        assert np.all(mse <= 2.0 * sigma**2)


def test_identified_blocks_bounded_by_lift_norm():
    m = FosModel(alpha=[0.5], A=[[0.2]])
    traj = simulate_fos(m, [1.0], K=160)
    res = identify(traj, p=12, epsilon=1e-3, window=(0, 120))
    est = FosModel(alpha=res.alpha_hat, A=res.A_hat)
    aug = augment_p(est, 12)
    lift_norm = np.linalg.norm(aug.Atil, 2)
    from fracdyn import aj_series

    for blk in aj_series(est, 11):
        assert np.linalg.norm(blk, 2) <= lift_norm + 1e-12


def test_identify_transforms_the_window_history_once(monkeypatch):
    # long-memory size: K = 16000, four channels, window (8000, 2000), depth 200; the
    # targets sum the whole history by FFT, the depth-200 prediction tails directly
    model = FosModel(alpha=[0.3, 0.5, 0.7, 0.9], A=-0.2 * np.eye(4) + 0.02, Bw=np.eye(4))
    traj = simulate_fos(model, np.ones(4), w=5, K=16000, noise_sigma=0.1)
    transforms, inverses, fits = [], [], []
    rfft, irfft, fit = np.fft.rfft, np.fft.irfft, sysid._fit
    monkeypatch.setattr(np.fft, "rfft", lambda a, *args, **kw: transforms.append(1)
                        or rfft(a, *args, **kw))
    monkeypatch.setattr(np.fft, "irfft", lambda a, *args, **kw: inverses.append(1)
                        or irfft(a, *args, **kw))
    monkeypatch.setattr(sysid, "_fit", lambda *args: fits.append(1) or fit(*args))
    identify(traj, 200, 1e-3, (8000, 2000))
    assert len(fits) == 3 + bisection_bound(1e-3)
    # one weights spectrum and one inverse per fit, one transform of the history per window
    assert len(transforms) == len(fits) + 1 and len(inverses) == len(fits)


@pytest.mark.parametrize("orders,window,p", [
    ([0.5], (0, 120), 160),
    ([0.3, 1.4], (20, 120), 12),
])
def test_the_bisection_takes_the_same_path_when_every_sum_is_a_row_loop(monkeypatch, orders,
                                                                       window, p):
    from test_memory_oracles import _noisy_trajectory, loop_history_sum

    traj = _noisy_trajectory(orders, 160, 9)
    fast = identify(traj, p, 1e-3, window)
    monkeypatch.setattr(sysid, "history_sum", loop_history_sum)
    monkeypatch.setattr(sysid, "history_sums", lambda x, lags, start, stop: (
        lambda weights: loop_history_sum(x, weights, start, stop)))
    slow = identify(traj, p, 1e-3, window)
    assert np.array_equal(fast.alpha_hat, slow.alpha_hat)
    assert np.array_equal(fast.iterations, slow.iterations)
    assert fast.flags == slow.flags
