"""Bilevel bisection + least-squares identification of fractional systems.

Temporal parameters (the per-channel orders) are found by endpoint bisection
on [-1, 1]: for each candidate order the fractional difference of the channel
is regressed on the full state, one-step predictions are rebuilt from the
fitted row, and the interval half adjacent to the worse-endpoint MSE is
discarded.  Ties keep the lower half.  The spatial matrix is the ordinary
least-squares row estimate at the final order.  A finite-sample error-bound
calculator for the lifted OLS problem is included; its universal constants
are not derivable from first principles and default to 1, so reported bounds
are meaningful up to those constants.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteError, SingularError
from .fraccore import build_weight_table, history_sum
from .simulate import Trajectory

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

#: Relative ridge applied to a rank-deficient regressor Gram matrix.
RIDGE_SCALE = 1e-10

#: Endpoint-MSE relative spread below which a channel is flagged low-confidence.
FLAT_SPREAD = 0.01


def bisection_bound(epsilon: float) -> int:
    """Worst-case bisection iterations to shrink [-1, 1] to width <= epsilon."""
    if not 0.0 < epsilon <= 2.0:
        raise DomainError("epsilon must lie in (0, 2]")
    return max(0, math.ceil(math.log2(2.0 / epsilon)))


def finite_time_gramian(Atil, t: int) -> np.ndarray:
    """W_t = sum_{j=0..t-1} A^j (A^j)^T; W_1 is the identity."""
    if t < 1:
        raise DomainError("gramian horizon t must be >= 1")
    A = np.atleast_2d(np.asarray(Atil, dtype=float))
    d = A.shape[0]
    W = np.eye(d)
    M = np.eye(d)
    for _ in range(1, t):
        M = A @ M
        W += M @ M.T
    return 0.5 * (W + W.T)


@dataclass(frozen=True)
class OlsBound:
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
    if not 0.0 < delta <= 1.0:
        raise DomainError("delta must lie in (0, 1]")
    if not 1 <= k <= K:
        raise DomainError("need 1 <= k <= K")
    A = np.atleast_2d(np.asarray(Atil, dtype=float))
    d = A.shape[0]
    rho = float(np.max(np.abs(np.linalg.eigvals(A)))) if d else 0.0
    if rho > 1.0 + 1e-9:
        raise DomainError(f"spectral radius {rho:.6g} exceeds marginal stability")
    Wk = finite_time_gramian(A, k)
    lam_min = float(np.min(np.linalg.eigvalsh(Wk)))
    if lam_min <= 0.0:
        raise DomainError("W_k is singular; bound undefined")
    WK = finite_time_gramian(A, K)
    logdet = float(np.linalg.slogdet(WK)[1] - np.linalg.slogdet(Wk)[1])
    logdet = max(logdet, 0.0)
    inner = d * math.log(d / delta) + logdet if d else 0.0
    value = C / math.sqrt(K * lam_min) * math.sqrt(max(inner, 0.0))
    side_rhs = c * inner
    side_lhs = K / k
    return OlsBound(
        value=value, side_lhs=side_lhs, side_rhs=side_rhs,
        side_ok=side_lhs >= side_rhs, lambda_min=lam_min, logdet=logdet,
    )


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
    """Least-squares row with ridge fallback on a rank-deficient Gram matrix."""
    n = Xw.shape[1]
    if rank == n:
        return np.linalg.lstsq(Xw, z, rcond=None)[0], False
    tr = float(np.trace(gram))
    if tr <= 0.0:
        raise SingularError("regressor Gram matrix is zero; no spatial information")
    ridge = RIDGE_SCALE * tr
    return np.linalg.solve(gram + ridge * np.eye(n), Xw.T @ z), True


@dataclass(frozen=True)
class OlsResult:
    """Spatial rows at fixed orders, with residual diagnostics."""

    A_hat: np.ndarray
    residuals: np.ndarray
    normal_residual: float
    ridge: bool


def ols_spatial(traj: Trajectory, alphas, window=None) -> OlsResult:
    """Spatial matrix estimate at given per-channel orders.

    Builds the fractional-difference targets of every channel at its order
    and regresses them on the state window.  A rank-deficient regressor Gram
    matrix falls back to a small relative ridge and is flagged.
    """
    x = traj.states
    n = x.shape[1]
    orders = np.atleast_1d(np.asarray(alphas, dtype=float))
    if orders.shape != (n,):
        raise DomainError(f"need {n} orders, got {orders.shape}")
    ks = _window_rows(traj, window)
    Xw = x[ks]
    gram = Xw.T @ Xw
    rank = np.linalg.matrix_rank(Xw)
    kmax = int(ks[-1])
    table = build_weight_table(orders, kmax + 1)
    # targets z[k] = D^alpha x[k+1], the full-memory difference at each row
    Z = history_sum(x, table.weights, ks[0] + 1, kmax + 2)
    A_hat = np.empty((n, n))
    ridge = False
    for i in range(n):
        row, used_ridge = _ols_row(Xw, Z[:, i], gram, rank)
        ridge = ridge or used_ridge
        A_hat[i] = row
    residuals = Z - Xw @ A_hat.T
    normal_residual = float(np.linalg.norm(Xw.T @ residuals))
    return OlsResult(A_hat=A_hat, residuals=residuals, normal_residual=normal_residual, ridge=ridge)


@dataclass(frozen=True)
class IdentificationResult:
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
        w = build_weight_table([alpha], kmax + 1).weights[0]
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
