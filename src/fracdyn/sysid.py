"""Bilevel bisection + least-squares identification of fractional systems.

Temporal parameters (the per-channel orders) are found by endpoint bisection
on [-1, 1], every channel in lockstep: one fit scores a vector of orders,
regressing each channel's fractional difference on the full state and
rebuilding one-step predictions from the fitted rows, and each channel
discards the interval half adjacent to its worse-endpoint MSE.  Ties keep
the lower half.  The spatial matrix is the ordinary least-squares row
estimate at the final orders, from the same fit that ``ols_spatial`` runs.
Every row is the minimum-norm least-squares solution of ``np.linalg.lstsq``,
whatever the window's rank; whether the window is rank-deficient (the
"ridge" flag) is a property of the window, not of the orders.  A
finite-sample error-bound calculator for the lifted OLS problem is included;
its universal constants are not derivable from first principles and default
to 1, so reported bounds are meaningful up to those constants.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonFiniteError, SingularError
from .fraccore import (
    _array, _count, _real, _square, build_weight_table, history_sum, history_sums)
from .model import Trajectory

__all__ = [
    "IdentificationResult",
    "OlsResult",
    "OlsBound",
    "identify",
    "ols_spatial",
    "bisection_bound",
    "finite_time_gramian",
    "ols_error_bound",
]

#: Endpoint-MSE relative spread below which a channel is flagged low-confidence.
FLAT_SPREAD = 0.01


def bisection_bound(epsilon: float) -> int:
    """Worst-case bisection iterations to shrink [-1, 1] to width <= epsilon."""
    epsilon = _real(epsilon, "epsilon", 0.0, 2.0, "(]")
    return max(0, math.ceil(1.0 - math.log2(epsilon)))  # 2 / epsilon overflows when subnormal


def finite_time_gramian(Atil, t: int) -> np.ndarray:
    """W_t = sum_{j=0..t-1} A^j (A^j)^T; W_1 is the identity, and an overflow raises.

    Doubles over the binary digits of t, W_{a+b} = W_a + A^a W_b (A^a)^T: O(log t) products.
    """
    t = _count(t, "gramian horizon t", least=1)
    A = _square(Atil, "Atil")
    W, M = np.zeros_like(A), np.eye(A.shape[0])  # W_a and A^a, a the digits of t read so far
    Wb, Ab = np.eye(A.shape[0]), A  # W_b and A^b, b the place of the next digit
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below instead
        for k in range(t.bit_length()):
            if k:
                Wb, Ab = Wb + Ab @ Wb @ Ab.T, Ab @ Ab
            if t >> k & 1:
                W, M = W + M @ Wb @ M.T, M @ Ab
    if not np.isfinite(W).all():
        raise NonFiniteError(f"the gramian of Atil overflows by horizon t={t}")
    return 0.5 * (W + W.T)


class OlsBound(NamedTuple):
    """Evaluated finite-sample bound and its (reported, unenforced) side condition."""

    value: float
    side_lhs: float
    side_rhs: float
    side_ok: bool
    lambda_min: float
    logdet: float


def ols_error_bound(
    Atil, K: int, k: int, delta: float, *, C: float = 1.0, c: float = 1.0
) -> OlsBound:
    """Operator-norm error bound for OLS on the lifted system, up to constants.

    Evaluates C / sqrt(K * lambda_min(W_k)) * sqrt(d log(d/delta)
    + log det(W_K W_k^{-1})).  The noise scale cancels in this form (the
    excitation and the error both carry it), so it is not an argument.  The
    side condition K/k >= c * (d log(d/delta) + log det(W_K W_k^{-1})) is
    reported, not enforced.
    """
    delta = _real(delta, "delta", 0.0, 1.0, "(]")
    C, c = _real(C, "C"), _real(c, "c")
    K = _count(K, "sample count K", least=-np.inf)
    k = _count(k, "gramian horizon k", least=-np.inf)
    if not 1 <= k <= K:
        raise DomainError("need 1 <= k <= K")
    A = _square(Atil, "Atil")
    d = A.shape[0]
    if not d:
        raise DomainError("Atil must not be empty; W_k of an empty lift has no eigenvalue")
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    if rho > 1.0 + 1e-9:
        raise DomainError(f"Atil has spectral radius {rho:.6g}, beyond marginal stability")
    Wk = finite_time_gramian(A, k)
    lam_min = float(np.min(np.linalg.eigvalsh(Wk)))
    if lam_min <= 0.0:
        raise DomainError("W_k is singular; bound undefined")
    WK = finite_time_gramian(A, K)
    logdet = float(np.linalg.slogdet(WK)[1] - np.linalg.slogdet(Wk)[1])
    logdet = max(logdet, 0.0)
    inner = d * math.log(d / delta) + logdet
    value = C / math.sqrt(K * lam_min) * math.sqrt(inner)
    side_rhs = c * inner
    if not (math.isfinite(value) and math.isfinite(side_rhs)):
        raise NonFiniteError(f"bound overflows at C={C:g}, c={c:g}")
    side_lhs = K / k
    return OlsBound(
        value=value, side_lhs=side_lhs, side_rhs=side_rhs,
        side_ok=side_lhs >= side_rhs, lambda_min=lam_min, logdet=logdet,
    )


def _window(traj: Trajectory, window) -> tuple:
    """Rows and regressors of a window, whether they are rank-deficient, and its target sums.

    The target sums are :func:`history_sums` over the whole history up to the
    window's last row, so every fit of the window shares one transform of it.
    """
    if window is None and traj.K < 1:
        raise DomainError("trajectory has no steps to identify from")
    K = traj.K
    try:
        offset, length = (0, min(100, K)) if window is None else window
    except (TypeError, ValueError):
        raise DomainError(f"window must be an (offset, length) pair, got {window!r}") from None
    offset, length = _count(offset, "window offset"), _count(length, "window length", least=1)
    if offset + length > K:
        raise DomainError(
            f"window (offset={offset}, length={length}) does not fit a {K}-step trajectory"
        )
    ks = np.arange(offset, offset + length)
    Xw = traj.states[ks]
    stop = offset + length + 1  # targets sum at t = k + 1 for every step k, over lags 0..t
    return (ks, Xw, bool(np.linalg.matrix_rank(Xw) < Xw.shape[1]),
            history_sums(traj.states, stop, offset + 1, stop))


def _fit(x: np.ndarray, win: tuple, orders: np.ndarray, p: int | None = None) -> tuple:
    """Rows, targets and (given ``p``) one-step MSEs of every channel at its order.

    Channel i regresses its full-memory difference z[k] = D^a x[k+1] on the
    window states by minimum-norm least squares; its prediction from the
    fitted row keeps memory lags 1..p.  The window's target sums give all
    targets and one :func:`history_sum` call all prediction tails, each column
    kept to its channel; the loop solves and averages each channel on its own
    column, so a channel's figures do not depend on the other channels.  An
    all-zero window has no least-squares information and raises SingularError.
    """
    ks, Xw, _, targets = win
    if not Xw.any():
        raise SingularError("regressor Gram matrix is zero; no spatial information")
    first, last, n = int(ks[0]), int(ks[-1]), x.shape[1]
    w = build_weight_table(orders, last + 1)
    Z = targets(w)
    tails = None if p is None else history_sum(x, w[:, 1 : p + 1], first, last + 1)
    rows, mse = np.empty((n, n)), np.empty(n)
    for i in range(n):
        rows[i] = np.linalg.lstsq(Xw, Z[:, i], rcond=None)[0]
        if p is not None:
            mse[i] = np.mean((Xw @ rows[i] - tails[:, i] - x[ks + 1, i]) ** 2)
    return rows, Z, mse


class OlsResult(NamedTuple):
    """Spatial rows at fixed orders, with residual diagnostics.

    ``ridge`` marks a rank-deficient window; the rows are the minimum-norm
    least-squares rows either way.  ``normal_residual`` is the Frobenius norm
    of ``Xs^T residuals``, ``Xs`` the window's regressors with each nonzero
    column scaled to unit max-abs, so it stays finite on badly scaled columns.
    """

    A_hat: np.ndarray
    residuals: np.ndarray
    normal_residual: float
    ridge: bool


@np.errstate(over="ignore", invalid="ignore")  # rows that are not finite raise instead
def ols_spatial(traj: Trajectory, alphas, window=None) -> OlsResult:
    """Spatial matrix estimate at given per-channel orders.

    Builds the fractional-difference targets of every channel at its order
    and regresses them on the state window by minimum-norm least squares.  A
    rank-deficient window is flagged ``ridge``; its rows are the least-squares
    rows of least norm.  An all-zero window raises SingularError, and rows
    that are not finite (targets that overflow) raise NonFiniteError.
    """
    orders = _array(alphas, "alphas", (traj.n,))
    _, Xw, ridge, _ = win = _window(traj, window)
    A_hat, Z, _ = _fit(traj.states, win, orders)
    if not np.isfinite(A_hat).all():
        raise NonFiniteError("spatial rows are not finite")
    residuals = Z - Xw @ A_hat.T
    scale = np.abs(Xw).max(axis=0)
    normal = np.hypot.reduce((Xw / np.where(scale > 0, scale, 1.0)).T @ residuals, axis=None)
    return OlsResult(A_hat=A_hat, residuals=residuals, normal_residual=float(normal), ridge=ridge)


class IdentificationResult(NamedTuple):
    """Bisection outcome per channel plus the spatial matrix at the final orders."""

    alpha_hat: np.ndarray
    A_hat: np.ndarray
    mse: np.ndarray
    iterations: np.ndarray
    window: tuple
    flags: tuple  # per-channel tuple of flag strings, empty = clean

    def flag_string(self, i: int) -> str:
        return ";".join(self.flags[i]) if self.flags[i] else "ok"


@np.errstate(over="ignore", invalid="ignore")  # a non-finite score raises instead
def identify(traj: Trajectory, p: int, epsilon: float, window=None) -> IdentificationResult:
    """Bisection on every channel's order, in lockstep, plus OLS for the spatial rows.

    Every channel starts from the interval [-1, 1]; at every iteration the
    midpoints of all channels are scored by one fit (OLS rows, then each
    channel's one-step prediction MSE truncated at memory depth ``p``) and
    each channel drops the half adjacent to its worse endpoint, ties keeping
    the lower half.  The widths halve together, 2^(1-k) after k steps, so
    the search ends for all channels at once, when the width is within
    ``epsilon``; the iteration count never exceeds ceil(log2(2/epsilon)).
    Constant channels carry no temporal information: they are held at order 0
    and flagged "degenerate".  "ridge" marks a rank-deficient window, on
    every channel, whose rows are then the least-squares rows of least norm;
    a flat MSE basin at termination raises "low_confidence", and a midpoint
    scoring worse than both endpoints raises "nonunimodal".
    A prediction error that is not finite raises NonFiniteError naming the
    first channel whose search meets one.
    """
    epsilon = _real(epsilon, "epsilon", 0.0, 2.0)
    p = _count(p, "memory depth p", least=1)
    x = traj.states
    n = x.shape[1]
    ks, _, ridge, _ = win = _window(traj, window)
    if ks.size < 10 * (n + 1):
        raise DomainError(f"window length {ks.size} is below the 10*(n+1) = {10 * (n + 1)} floor")
    live = np.ptp(x, axis=0) > 0.0
    lo, hi = np.full(n, -1.0), np.ones(n)
    try:
        mse_lo = _fit(x, win, np.where(live, lo, 0.0), p)[2]
    except SingularError:  # all window states zero: constant channels keep zero rows
        if live.any():
            raise
        return IdentificationResult(
            alpha_hat=np.zeros(n), A_hat=np.zeros((n, n)), mse=np.zeros(n),
            iterations=np.zeros(n, dtype=int), window=(int(ks[0]), int(ks.size)),
            flags=(("degenerate",),) * n,
        )
    mse_hi = _fit(x, win, np.where(live, hi, 0.0), p)[2]
    finite = np.isfinite(mse_lo) & np.isfinite(mse_hi)
    bumped = np.zeros(n, dtype=bool)
    iters = 0
    while hi[0] - lo[0] > epsilon:
        c = 0.5 * (lo + hi)
        mse_c = _fit(x, win, np.where(live, c, 0.0), p)[2]
        finite &= np.isfinite(mse_c)
        bumped |= (mse_c > mse_lo) & (mse_c > mse_hi)
        upper = mse_lo > mse_hi  # a tie keeps the lower half
        lo, mse_lo = np.where(upper, c, lo), np.where(upper, mse_c, mse_lo)
        hi, mse_hi = np.where(upper, hi, c), np.where(upper, mse_hi, mse_c)
        iters += 1
    assert iters <= bisection_bound(epsilon), f"bisection overran its iteration bound ({iters})"
    alpha_hat = np.where(live, 0.5 * (lo + hi), 0.0)
    A_hat, _, mse = _fit(x, win, alpha_hat, p)
    finite &= np.isfinite(mse)
    if not finite.all():
        raise NonFiniteError(f"channel {np.argmin(finite) + 1}: prediction error is not finite")

    worst = np.maximum(mse_lo, mse_hi)
    # A flat basin at termination means the data barely constrains the order.
    flat = np.abs(mse_lo - mse_hi) <= FLAT_SPREAD * np.maximum(worst, np.finfo(float).tiny)
    late = (mse > worst + 1e-12) & ~bumped
    marks = np.column_stack([~live, np.full(n, ridge), live & bumped, live & flat, live & late])
    names = ("degenerate", "ridge", "nonunimodal", "low_confidence", "nonunimodal")
    return IdentificationResult(
        alpha_hat=alpha_hat, A_hat=A_hat, mse=np.where(live, mse, 0.0),
        iterations=np.where(live, iters, 0), window=(int(ks[0]), int(ks.size)),
        flags=tuple(tuple(f for f, on in zip(names, row) if on) for row in marks),
    )
