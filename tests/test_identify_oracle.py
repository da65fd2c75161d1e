"""``identify`` against the per-channel bisection it replaced, bit for bit.

The lockstep search scores every channel's order in one fit per step; the
oracle in ``bisection_oracle`` scores one channel and one order at a time.
Over a seeded grid (one to four channels, constant and collinear channels,
epsilon from 1e-1 to 1e-6, states large enough to overflow, and trajectories
of the long-memory benchmark's size) both must return the same bits, or
raise the same error with the same message.
"""

import numpy as np
import pytest

import bisection_oracle
from bisection_oracle import identify_per_channel
from fracdyn import (
    FosModel,
    NonFiniteError,
    SingularError,
    Trajectory,
    identify,
    ols_spatial,
    simulate_fos,
    sysid,
)

FIELDS = ("alpha_hat", "A_hat", "mse", "iterations")


def outcome(search, traj, p, epsilon, window):
    """The result's arrays as (dtype, shape, bytes), its window and flags; or the error."""
    try:
        res = search(traj, p, epsilon, window)
    except Exception as exc:  # the error itself is the outcome to compare
        return type(exc), str(exc)
    arrays = tuple((a.dtype.str, a.shape, a.tobytes())
                   for a in (np.asarray(getattr(res, f)) for f in FIELDS))
    return arrays, res.window, res.flags


def random_case(seed: int, *, overflow: bool = False):
    """A trajectory and (p, epsilon, window) drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    K = int(rng.integers(12 * (n + 1), 400))
    model = FosModel(alpha=rng.uniform(0.05, 0.95, n),
                     A=-0.2 * np.eye(n) + 0.1 * rng.standard_normal((n, n)), Bw=np.eye(n))
    w = rng.standard_normal((K, n)) * 10 ** rng.uniform(-3, -0.5)
    states = simulate_fos(model, rng.standard_normal(n), w=w, K=K).states.copy()
    if rng.random() < 0.3:  # a constant channel, sometimes zero
        states[:, rng.integers(n)] = rng.choice([0.0, rng.standard_normal()])
    if n > 1 and rng.random() < 0.3:  # a collinear pair: the window is rank-deficient
        i, j = rng.choice(n, size=2, replace=False)
        states[:, j] = rng.uniform(-3, 3) * states[:, i]
    if overflow:  # squares of the prediction errors overflow on some channels
        states *= 10 ** rng.uniform(140, 170, size=n) / np.maximum(np.abs(states).max(axis=0), 1.0)
    length = int(rng.integers(10 * (n + 1), K + 1))
    window = (int(rng.integers(0, K - length + 1)), length)
    p = int(rng.integers(1, K + 50))
    return Trajectory(states=states), p, float(10 ** -rng.uniform(1, 6)), window


def long_memory_case(seed: int):
    """A 4-channel, K = 16000 run scored as the long-memory benchmark scores it."""
    rng = np.random.default_rng(seed)
    model = FosModel(alpha=rng.uniform(0.1, 0.95, 4),
                     A=-0.2 * np.eye(4) + 0.05 * rng.standard_normal((4, 4)), Bw=np.eye(4))
    w = 0.1 * rng.standard_normal((16000, 4))
    traj = simulate_fos(model, rng.standard_normal(4), w=w, K=16000)
    return traj, 200, 1e-3, (8000, 2000)


def assert_same_as_the_oracle(traj, p, epsilon, window):
    """Both searches' outcome, once it is the same; the rows also match ``ols_spatial``."""
    got = outcome(identify, traj, p, epsilon, window)
    assert got == outcome(identify_per_channel, traj, p, epsilon, window)
    if not isinstance(got[0], type):
        res = identify(traj, p, epsilon, window)
        if res.A_hat.any():  # an all-zero window has zero rows and no ordinary least squares
            with np.errstate(over="ignore"):  # its residual norm overflows where the data do
                ref = ols_spatial(traj, res.alpha_hat, window)
            assert ref.A_hat.tobytes() == res.A_hat.tobytes()
    return got


def test_identify_matches_the_per_channel_bisection_bitwise():
    outcomes = [assert_same_as_the_oracle(*random_case(seed)) for seed in range(120)]
    flags = {f for got in outcomes for chan in got[2] for f in chan}
    assert flags == {"degenerate", "ridge", "nonunimodal", "low_confidence"}


def test_identify_raises_the_per_channel_error_on_overflowing_data():
    outcomes = [assert_same_as_the_oracle(*random_case(seed, overflow=True))
                for seed in range(1000, 1060)]
    errors = {got for got in outcomes if got[0] is NonFiniteError}
    assert 0 < len(errors) < len(outcomes)  # some cases fit, some overflow
    assert any("channel 1" not in message for _, message in errors)


def test_a_non_finite_score_names_the_first_channel_not_the_first_failure(monkeypatch):
    # Channel 2's predictions fail from the first score on, channel 1's only at the
    # first midpoint (order 0).  The per-channel search raises before it reaches
    # channel 2, so the lockstep search must name channel 1 too.
    model = FosModel(alpha=[0.4, 0.7], A=[[-0.2, 0.05], [0.0, -0.3]], Bw=np.eye(2))
    traj = simulate_fos(model, [1.0, -1.0], w=0.1 * np.random.default_rng(3).standard_normal((200, 2)),
                        K=200)
    real = bisection_oracle.history_sum

    def poisoned(x, weights, start, stop):
        # the oracle sums one channel per call, the fit every channel in one call
        out = np.array(real(x, weights, start, stop))
        if weights.shape[-1] == 50:  # a prediction sums p = 50 lags
            xs, ws, sums = (a.reshape(len(a), -1) for a in (x, weights.T, out))
            for i in range(xs.shape[1]):
                if np.array_equal(xs[:, i], traj.states[:, 1]) or ws[0, i] == 0.0:
                    sums[:, i] *= np.inf
        return out

    monkeypatch.setattr(bisection_oracle, "history_sum", poisoned)
    monkeypatch.setattr(sysid, "history_sum", poisoned)
    got = assert_same_as_the_oracle(traj, 50, 1e-2, (0, 100))
    assert got == (NonFiniteError, "channel 1: prediction error is not finite")


def test_identify_matches_the_oracle_on_a_zero_window():
    states = np.zeros((80, 2))
    assert assert_same_as_the_oracle(Trajectory(states=states), 20, 1e-2, (0, 30))[2] == (
        ("degenerate",), ("degenerate",))
    states[40:, 1] = 1.0  # a live channel, but no spatial information in the window
    got = assert_same_as_the_oracle(Trajectory(states=states), 20, 1e-2, (0, 30))
    assert got[0] is SingularError


@pytest.mark.parametrize("seed", [5, 31])
def test_identify_matches_the_oracle_at_long_memory_size(seed):
    assert not isinstance(assert_same_as_the_oracle(*long_memory_case(seed))[0], type)
