"""Grunwald-Letnikov fractional-difference weights and the memory sums they weight.

The weight of lag ``j`` at order ``alpha`` is ``c_j = (-1)^j * binom(alpha, j)``,
equivalently ``Gamma(j - alpha) / (Gamma(-alpha) * Gamma(j + 1))``.  The product
recurrence is the default evaluation path (pole-free, O(j*eps) error growth);
the log-Gamma path exists as an independent cross-check oracle.

This module is the one place a GL memory sum is evaluated.  Implicit
recursions, whose history is produced step by step, contract it with
:func:`memory_tail`; sums over a series known in advance go through
:func:`history_sum`.  All sequences are causal: samples at negative indices
are zero.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DomainError, PoleError

__all__ = [
    "FracWeightTable",
    "gl_weight_recursive",
    "gl_weight_gamma",
    "build_weight_table",
    "memory_tail",
    "history_sum",
    "frac_difference",
]


def gl_weight_recursive(alpha: float, j: int) -> float:
    """Weight c_j at order alpha via the product recurrence.

    c_0 = 1 and c_j = c_{j-1} * (j - 1 - alpha) / j, which matches
    (-1)^j * binom(alpha, j) without any Gamma evaluation.  Total over
    finite real alpha; integer orders truncate exactly (c_j = 0 for
    j > alpha when alpha is a non-negative integer).
    """
    if j < 0:
        raise DomainError("lag index j must be non-negative")
    return float(build_weight_table([alpha], j).weights[0, j])


def _signed_lgamma(x: float) -> tuple[float, float]:
    """log|Gamma(x)| and sign(Gamma(x)); x must not be a non-positive integer."""
    if x > 0:
        return math.lgamma(x), 1.0
    # Gamma alternates sign between consecutive negative integers.
    sign = 1.0 if math.floor(x) % 2 == 0 else -1.0
    return math.lgamma(x), sign


def gl_weight_gamma(alpha: float, j: int) -> float:
    """Weight c_j at order alpha via log-Gamma: Gamma(j-a)/(Gamma(-a)Gamma(j+1)).

    Raises PoleError when -alpha is a non-positive integer (Gamma pole);
    callers fall back to :func:`gl_weight_recursive` there.  Agrees with the
    recursive path to 1e-12 relative for alpha in (0,2)\\{1}, j <= 200.
    """
    if j < 0:
        raise DomainError("lag index j must be non-negative")
    if float(alpha).is_integer() and alpha >= 0:
        raise PoleError(f"Gamma(-alpha) has a pole at alpha = {alpha!r}")
    lg_num, s_num = _signed_lgamma(j - alpha)
    lg_den, s_den = _signed_lgamma(-alpha)
    return s_num * s_den * math.exp(lg_num - lg_den - math.lgamma(j + 1))


@dataclass(frozen=True)
class FracWeightTable:
    """Precomputed GL weights, one row per channel, columns are lags 0..horizon.

    ``weights[i, j]`` is the lag-j weight at order ``orders[i]``; column j
    equals the diagonal of the per-lag scaling matrix applied to the state.
    Rows satisfy weights[i, 0] = 1 and weights[i, 1] = -orders[i].
    """

    orders: np.ndarray
    horizon: int
    weights: np.ndarray

    @property
    def channels(self) -> int:
        return self.orders.shape[0]


def build_weight_table(alphas, J: int) -> FracWeightTable:
    """Tabulate weights for every order in ``alphas`` up to lag ``J``.

    The table is meant to be computed once per (orders, horizon) pair and
    shared; recomputing weights inside simulation loops turns O(K^2) total
    work into O(K^3).
    """
    if J < 0:
        raise DomainError("horizon J must be non-negative")
    orders = np.atleast_1d(np.asarray(alphas, dtype=float))
    if orders.ndim != 1:
        raise DomainError("alphas must be a vector")
    lags = np.arange(1.0, J + 1.0)
    factors = np.ones((orders.shape[0], J + 1))
    factors[:, 1:] = (lags - 1.0 - orders[:, None]) / lags
    # cumprod multiplies left to right, so c_j = c_{j-1} * (j - 1 - a) / j in
    # exactly the rounding order of the scalar recurrence
    w = np.cumprod(factors, axis=1)
    w.setflags(write=False)
    orders = orders.copy()
    orders.setflags(write=False)
    return FracWeightTable(orders=orders, horizon=J, weights=w)


def memory_tail(table: FracWeightTable, history: np.ndarray) -> np.ndarray:
    """Memory term of the recursion x[k+1] = (A + diag(alpha)) x[k] - tail.

    ``history`` holds the L states x[k-L..k-1] before the current one, oldest
    first, with the channel on axis 1 and any further axes carried along
    (a stack of state matrices steps like a state vector).  Lag j = k - t
    pairs with c_{j+1}, so tail = sum_{j=1..L} diag(c_{j+1}) x[k-j].
    """
    w_cols = table.weights[:, 2 : history.shape[0] + 2][:, ::-1]
    return np.einsum("nt,tn...->n...", w_cols, history)


def history_sum(x, weights, start: int, stop: int) -> np.ndarray:
    """Weighted sums sum_{j=0..J} weights[j] * x[t-j] for t = start..stop-1.

    ``x`` is a time-major series of shape (T,) or (T, n) with samples before
    time 0 taken as zero; ``weights`` has shape (J+1,), or (n, J+1) with one
    row per channel.  A sum that starts at lag s > 0 is the same sum at time
    t - s over ``weights[s:]``.  Each channel is one direct convolution over
    the rows' common history, so no rows-by-lags matrix is formed.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not 0 <= start <= stop <= x.shape[0]:
        raise IndexError(f"rows [{start}, {stop}) outside series of length {x.shape[0]}")
    if w.shape[-1] == 0 or w.shape[:-1] != x.shape[1:]:
        raise DomainError(f"weights of shape {w.shape} do not fit a series of shape {x.shape}")
    first = start - (w.shape[-1] - 1)
    seg = x[max(first, 0) : stop]
    if first < 0:
        seg = np.concatenate([np.zeros((-first,) + x.shape[1:]), seg])
    rows = w.reshape(-1, w.shape[-1])
    seg = seg.reshape(seg.shape[0], rows.shape[0])
    out = np.empty((stop - start, rows.shape[0]))
    if stop > start:  # np.convolve swaps its operands when the series is shorter
        for i, w_i in enumerate(rows):
            out[:, i] = np.convolve(seg[:, i], w_i, "valid")
    return out.reshape((stop - start,) + x.shape[1:])


def frac_difference(series, alphas, k: int, table: FracWeightTable | None = None):
    """Causal fractional difference of a multichannel series at step ``k``.

    Evaluates sum_{j=0..k} c_j^{alpha_i} * x_i[k-j] per channel, with samples
    before time 0 taken as zero.  ``series`` is time-major, shape (T,) for a
    single channel or (T, n).  Passing a precomputed ``table`` (horizon >= k)
    avoids re-deriving the weights.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    orders = np.atleast_1d(np.asarray(alphas, dtype=float))
    if x.shape[1] != orders.shape[0]:
        raise DomainError(
            f"series has {x.shape[1]} channels but {orders.shape[0]} orders given"
        )
    if not 0 <= k < x.shape[0]:
        raise IndexError(f"step k={k} outside series of length {x.shape[0]}")
    if table is None:
        table = build_weight_table(orders, k)
    elif table.horizon < k:
        raise DomainError("weight table horizon is shorter than requested step")
    return history_sum(x, table.weights[:, : k + 1], k, k + 1)[0]
