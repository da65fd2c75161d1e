"""Per-channel bisection identification, the cross-check oracle for ``fracdyn.identify``.

This is the search as it was written before the channels were bisected in
lockstep: one channel at a time, with its own ``score`` closure that sums
one order's targets and predictions.  ``fracdyn.identify`` must return the
same bits and raise the same errors.  The oracle checks the search, not the
row solver: every row, on a rank-deficient window too, is the minimum-norm
``np.linalg.lstsq`` row that ``sysid`` computes.
"""

import math

import numpy as np

from fracdyn.errors import DomainError, NonFiniteError, SingularError
from fracdyn.fraccore import build_weight_table, history_sum
from fracdyn.simulate import Trajectory
from fracdyn.sysid import FLAT_SPREAD, IdentificationResult, bisection_bound


def _window_rows(traj: Trajectory, window) -> np.ndarray:
    K = traj.K
    if window is None:
        offset, length = 0, min(100, K)
    else:
        offset, length = window
    if offset < 0 or length < 1 or offset + length > K:
        raise DomainError(
            f"window (offset={offset}, length={length}) does not fit a {K}-step trajectory"
        )
    return np.arange(offset, offset + length)


def _ols_row(Xw: np.ndarray, z: np.ndarray, gram: np.ndarray, rank: int):
    """Minimum-norm least-squares row, and whether the Gram matrix is rank-deficient."""
    n = Xw.shape[1]
    if rank == n:
        return np.linalg.lstsq(Xw, z, rcond=None)[0], False
    tr = float(np.trace(gram))
    if tr <= 0.0:
        raise SingularError("regressor Gram matrix is zero; no spatial information")
    return np.linalg.lstsq(Xw, z, rcond=None)[0], True


@np.errstate(over="ignore", invalid="ignore")  # a non-finite score raises instead
def identify_per_channel(traj: Trajectory, p: int, epsilon: float, window=None) -> IdentificationResult:
    """Per-channel bisection on the order plus OLS for the spatial rows.

    Each channel starts from the interval [-1, 1]; at every iteration the
    midpoint is scored (OLS row, then one-step prediction MSE truncated at
    memory depth ``p``) and the half adjacent to the worse endpoint is
    dropped, ties keeping the lower half.  Terminates when the interval width
    is within ``epsilon``; the iteration count never exceeds
    ceil(log2(2/epsilon)).  Constant channels carry no temporal information
    and are flagged "degenerate" with the order fixed at 0 by convention; a
    flat MSE basin at termination raises "low_confidence", and a midpoint
    scoring worse than both endpoints raises "nonunimodal".  A prediction
    error that is not finite raises NonFiniteError naming the channel.
    """
    if not 0.0 < epsilon < 2.0:
        raise DomainError("epsilon must lie in (0, 2)")
    if p < 1:
        raise DomainError("memory depth p must be >= 1")
    x = traj.states
    n = x.shape[1]
    ks = _window_rows(traj, window)
    if ks.size < 10 * (n + 1):
        raise DomainError(f"window length {ks.size} is below the 10*(n+1) = {10 * (n + 1)} floor")
    Xw = x[ks]
    gram = Xw.T @ Xw
    rank = np.linalg.matrix_rank(Xw)
    kmax = int(ks[-1])
    cap = bisection_bound(epsilon)

    alpha_hat = np.zeros(n)
    A_hat = np.zeros((n, n))
    mse_out = np.zeros(n)
    iters_out = np.zeros(n, dtype=int)
    flags: list[tuple] = []

    def score(i: int, alpha: float):
        w = build_weight_table([alpha], kmax + 1)[0]
        z = history_sum(x[:, i], w, ks[0] + 1, kmax + 2)
        row, used_ridge = _ols_row(Xw, z, gram, rank)
        # one-step prediction from the fitted row, memory truncated at depth p
        pred = Xw @ row - history_sum(x[:, i], w[1 : p + 1], ks[0], kmax + 1)
        mse = float(np.mean((pred - x[ks + 1, i]) ** 2))
        if not math.isfinite(mse):
            raise NonFiniteError(f"channel {i + 1}: prediction error is not finite")
        return mse, row, used_ridge

    for i in range(n):
        chan_flags = []
        if np.ptp(x[:, i]) == 0.0:
            # No temporal structure at all; order 0 by convention.
            chan_flags.append("degenerate")
            try:
                _, row, used_ridge = score(i, 0.0)
                if used_ridge:
                    chan_flags.append("ridge")
            except SingularError:
                row = np.zeros(n)
            alpha_hat[i] = 0.0
            A_hat[i] = row
            flags.append(tuple(chan_flags))
            continue

        lo, hi = -1.0, 1.0
        mse_lo, _, ridge_lo = score(i, lo)
        mse_hi, _, ridge_hi = score(i, hi)
        if ridge_lo or ridge_hi:
            chan_flags.append("ridge")
        iters = 0
        while hi - lo > epsilon:
            c = 0.5 * (lo + hi)
            mse_c, _, _ = score(i, c)
            if mse_c > mse_lo and mse_c > mse_hi and "nonunimodal" not in chan_flags:
                chan_flags.append("nonunimodal")
            if mse_lo <= mse_hi:  # tie keeps the lower half
                hi, mse_hi = c, mse_c
            else:
                lo, mse_lo = c, mse_c
            iters += 1
        assert iters <= cap, f"bisection overran its iteration bound ({iters} > {cap})"
        # A flat basin at termination means the data barely constrains the order.
        if abs(mse_lo - mse_hi) <= FLAT_SPREAD * max(mse_lo, mse_hi, np.finfo(float).tiny):
            chan_flags.append("low_confidence")
        alpha_hat[i] = 0.5 * (lo + hi)
        mse_f, row, _ = score(i, alpha_hat[i])
        if mse_f > max(mse_lo, mse_hi) + 1e-12 and "nonunimodal" not in chan_flags:
            chan_flags.append("nonunimodal")
        A_hat[i] = row
        mse_out[i] = mse_f
        iters_out[i] = iters
        flags.append(tuple(chan_flags))

    return IdentificationResult(
        alpha_hat=alpha_hat, A_hat=A_hat, mse=mse_out, iterations=iters_out,
        window=(int(ks[0]), int(ks.size)), flags=tuple(flags),
    )
