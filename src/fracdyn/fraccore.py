"""Grunwald-Letnikov fractional-difference weights and the memory sums they weight.

The weight of lag ``j`` at order ``alpha`` is ``c_j = (-1)^j * binom(alpha, j)``,
evaluated by the product recurrence c_j = c_{j-1} * (j - 1 - alpha) / j, which
is pole-free and grows its error as O(j*eps).

This module is the one place a memory sum is evaluated.  Implicit
recursions, whose history is produced step by step, read it from a
:class:`MemoryTail`, which convolves a diagonal kernel (a single-term model's
GL tail) or a matrix kernel (a network's series) with the history in
O(K log^2 K) over K steps.  The identification sums, over series known in
advance, go through :func:`history_sum`, directly when they are short.  Each
FFT convolution, in the tail, in the simulators' block solves and in a long
:func:`history_sum`, is one :func:`block_convolve`.  All sequences are
causal: samples at negative indices are zero.  A weight table is the plain
read-only (orders, lags 0..J) array that :func:`build_weight_table` returns.

It also holds the readers that judge every argument of the package and its
CLI, each raising an error that names it: :func:`_count` (a count),
:func:`_real` (a finite real in a range) and :func:`_array` (a float array).
"""

import math

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
    "gl_weight_recursive",
    "build_weight_table",
    "history_sum",
    "frac_difference",
]

#: Steps per near-field block of :class:`MemoryTail`; far-field blocks are this
#: size times a power of two.
NEAR_BLOCK = 64

#: :func:`history_sum` convolves by FFT once rows x lags exceeds this many
#: times size x log2(size) of the transform; below, ``np.convolve`` is faster.
FFT_SUM_RATIO = 20


def _count(value, name: str, least=0) -> int:
    """``value`` as an int if it is a count of at least ``least``; else DomainError naming it.

    A count is an int or numpy integer, not true/false.  This is the one place
    a step count, horizon, depth or window is judged; ``least=-np.inf`` judges
    only the type, for an index or horizon whose range its caller checks.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be a whole number, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be {'non-negative' if least == 0 else f'>= {least}'}")
    return int(value)


def _real(value, name: str, lo=-np.inf, hi=np.inf, ends: str = "()") -> float:
    """``value`` as a float if it is a finite real in (lo, hi); else DomainError naming it.

    A real is an int, float or numpy number, not true/false; ``ends`` "[]" closes the ends.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise DomainError(f"{name} must be a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if not ((lo < x or ends[0] == "[" and x == lo) and (x < hi or ends[1] == "]" and x == hi)):
        raise DomainError(f"{name} must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {value!r}")
    return x


def _holds_bool(value) -> bool:
    """Whether ``value`` is a bool or a list/tuple nest holding one (JSON true/false)."""
    return isinstance(value, bool) or (
        isinstance(value, (list, tuple)) and any(map(_holds_bool, value)))


def _array(value, name: str, length: int | None = None, finite: bool = True) -> np.ndarray:
    """``value`` as a float array; a vector of ``length`` entries when that is given.

    None, a string, true/false at any depth, and what numpy cannot read as
    floats raise DimensionError naming ``name``, as does another length (a
    number is one entry).  A NaN or +-inf entry raises DomainError naming it,
    unless ``finite`` is false: the caller then judges the values, as the MPC
    bounds (which may be infinite) and the drives of one step (whose sum the
    step checks) do.
    """
    if not isinstance(value, np.ndarray) and (
            value is None or isinstance(value, str) or _holds_bool(value)):
        raise DimensionError(f"{name} must be numbers, got {value!r}")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DimensionError(f"{name} must be numbers, got {value!r}") from None
    if length is not None:
        arr = np.atleast_1d(arr)
        if arr.shape != (length,):
            raise DimensionError(f"{name} must have length {length}")
    if finite and not np.isfinite(arr).all():
        raise DomainError(f"{name} entries must be finite")
    return arr


def gl_weight_recursive(alpha: float, j: int) -> float:
    """Weight c_j at order alpha via the product recurrence.

    c_0 = 1 and c_j = c_{j-1} * (j - 1 - alpha) / j, which matches
    (-1)^j * binom(alpha, j) without any Gamma evaluation.  Total over
    finite real alpha; integer orders truncate exactly (c_j = 0 for
    j > alpha when alpha is a non-negative integer).
    """
    j = _count(j, "lag index j")
    return float(build_weight_table([_real(alpha, "alpha")], j)[0, j])


def build_weight_table(alphas, J: int) -> np.ndarray:
    """Read-only (len(alphas), J + 1) array: [i, j] is the lag-j weight at order ``alphas[i]``.

    Row i starts 1, -alphas[i] and has the bits of the one-order table of
    alphas[i].  Compute a table once per (orders, horizon) and share it:
    recomputing weights inside simulation loops turns O(K^2) work into O(K^3).
    Orders so large that a weight overflows raise DomainError.
    """
    J = _count(J, "horizon J")
    orders = np.atleast_1d(_array(alphas, "alphas"))
    if orders.ndim != 1:
        raise DomainError("alphas must be a vector")
    lags = np.arange(1.0, J + 1.0)
    factors = np.ones((orders.shape[0], J + 1))
    factors[:, 1:] = (lags - 1.0 - orders[:, None]) / lags
    # cumprod multiplies left to right, so c_j = c_{j-1} * (j - 1 - a) / j in
    # exactly the rounding order of the scalar recurrence
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below instead
        w = np.cumprod(factors, axis=1)
    if not np.isfinite(w[:, -1]).all():  # an overflow stays inf or nan to the last lag
        raise DomainError(f"alphas give weights beyond the float range by lag {J}")
    w.setflags(write=False)
    return w


def kernel_spectrum(kernel: np.ndarray, first: int, stop: int, size: int) -> np.ndarray:
    """rfft over ``size`` points of a (diagonal or matrix) kernel's lags [first, stop)."""
    h = np.zeros((size,) + kernel.shape[1:])
    h[first : min(stop, kernel.shape[0])] = kernel[first:stop]
    return np.fft.rfft(h, axis=0)


def block_convolve(spectrum: np.ndarray, block: np.ndarray, size: int) -> np.ndarray:
    """Rows i of sum_l kernel[i - l] . block[l], lags modulo ``size``, by FFT.

    ``spectrum`` is the kernel's :func:`kernel_spectrum`; ``block`` is (b, c, ...),
    as :class:`MemoryTail`'s states.
    """
    shape = block.shape
    if spectrum.ndim == 2:  # a diagonal kernel scales each channel
        x = np.fft.rfft(block, n=size, axis=0)
        x = x * spectrum.reshape(spectrum.shape + (1,) * (block.ndim - 2))
    else:  # one matrix product per frequency, as a batched matmul (einsum is far slower)
        x = spectrum @ np.fft.rfft(block.reshape(shape[0], shape[1], -1), n=size, axis=0)
    return np.fft.irfft(x, n=size, axis=0).reshape((size, spectrum.shape[1]) + shape[2:])


class MemoryTail:
    """Online causal convolution y[k] = sum_{j=0..k} kernel[j] . states[k-j].

    ``states`` is the caller's (T, c, ...) buffer, channel on axis 1 and any
    further axes carried along (a stack of state matrices steps like a state
    vector).  ``kernel`` covers at least T lags: (L, c) is diagonal, scaling
    each channel, and (L, n, c) is a matrix stack.  ``self(k)`` returns y[k]
    once ``states[:k+1]`` are filled, for k = 0, 1, 2, ... in that order (a
    repeated k is allowed).  A caller that solves a whole block at once reads
    ``self.far(s)`` at each block start s instead, and may then go on with
    ``self(k)`` for k in that block, or reads ``self.block(s, b)`` if the
    states are known in advance.

    - Near field: the lags inside the current aligned block of
      ``NEAR_BLOCK`` steps, summed directly.
    - Far field, by relaxed blocked convolution (Hairer, Lubich and
      Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985): at each step s that is
      a multiple of ``NEAR_BLOCK``, with b the lowest set bit of s, the block
      ``states[s-b:s]`` is convolved once by FFT with the kernel's lags
      1..2b-1 and added to the far-field sums of steps [s, s+b).

    Every pair of a step and an earlier block falls in exactly one such
    product, so T steps cost O(n c T log^2 T) instead of O(n c T^2).  The
    first ``NEAR_BLOCK`` steps are the direct sum bitwise; later ones agree
    with it to rounding of the FFT.  A kernel whose lags 1.. are all zero
    (orders 0 and 1) gets an exactly zero far field.
    """

    def __init__(self, kernel: np.ndarray, states: np.ndarray):
        if kernel.shape[0] < states.shape[0]:
            raise DomainError("memory kernel is shorter than the state history")
        self._kernel = kernel
        self._states = states
        self._far = np.zeros((states.shape[0], kernel.shape[1]) + states.shape[2:])
        self._spectra = {}
        self._next_block = NEAR_BLOCK

    def _convolve(self, block: np.ndarray, first: int, stop: int, size: int) -> np.ndarray:
        key = (first, stop, size)
        if key not in self._spectra:
            self._spectra[key] = kernel_spectrum(self._kernel, first, stop, size)
        return block_convolve(self._spectra[key], block, size)

    def far(self, s: int) -> np.ndarray:
        """Far field of the block of steps from ``s``, a multiple of ``NEAR_BLOCK``.

        Needs ``states[:s]`` filled.  Runs the update due at ``s`` (once), after
        which the rows ``[s, s + NEAR_BLOCK)`` hold the whole sum over
        ``states[:s]``: no later update reaches them.
        """
        if s == self._next_block:
            b = s & -s
            block = self._states[s - b : s]
            far = self._convolve(block, 1, 2 * b, 2 * b)[b:]
            if not np.isfinite(far).all() and np.isfinite(block).all():
                # the transform sums the whole block, so it can overflow before the
                # states do: redo it on the block scaled by a power of two, exactly
                e = np.frexp(np.abs(block).max())[1]
                far = np.ldexp(self._convolve(np.ldexp(block, -e), 1, 2 * b, 2 * b)[b:], e)
            self._far[s : s + b] += far[: self._far.shape[0] - s]
            self._next_block = s + NEAR_BLOCK
        return self._far[s : s + NEAR_BLOCK]

    def block(self, s: int, b: int) -> np.ndarray:
        """y[s:s+b] from states filled in advance; s a multiple of, b at most, ``NEAR_BLOCK``."""
        inner = self._convolve(self._states[s : s + b], 0, NEAR_BLOCK, 2 * NEAR_BLOCK)
        return self.far(s)[:b] + inner[:b]

    def __call__(self, k: int) -> np.ndarray:
        start = k - k % NEAR_BLOCK
        far = self.far(start)[k - start]
        # the summation order of each kernel type's former direct sum, which
        # the first NEAR_BLOCK steps reproduce bitwise
        if self._kernel.ndim == 2:
            near = np.einsum("jn,jn...->n...", self._kernel[k - start :: -1],
                             self._states[start : k + 1])
        else:
            near = np.einsum("jab,jb...->a...", self._kernel[: k - start + 1],
                             self._states[start : k + 1][::-1])
        return near + far


def history_sum(x, weights, start: int, stop: int) -> np.ndarray:
    """Weighted sums sum_{j=0..J} weights[j] * x[t-j] for t = start..stop-1.

    ``x`` is a time-major series of shape (T,) or (T, n) with samples before
    time 0 taken as zero; ``weights`` has shape (J+1,), or (n, J+1) with one
    row per channel.  A sum that starts at lag s > 0 is the same sum at time
    t - s over ``weights[s:]``.  No rows-by-lags matrix is formed: the rows'
    common history is convolved with each channel's weights, by ``np.convolve``
    per channel, or by one :func:`block_convolve` once rows x lags exceeds
    ``FFT_SUM_RATIO`` times size x log2(size) of the transform.  The transform
    rounds relative to the largest sum of the rows, not to each row's own
    scale; one that comes out non-finite (a series near the float64 maximum)
    is redone directly, so overflow shows as it does in the direct sum.
    """
    x, w = _array(x, "x"), _array(weights, "weights")
    start, stop = _count(start, "start", least=-np.inf), _count(stop, "stop", least=-np.inf)
    if x.ndim not in (1, 2):
        raise DimensionError(f"x must be a (T,) or (T, n) series, got shape {x.shape}")
    if not 0 <= start <= stop <= x.shape[0]:
        raise IndexError(f"rows [{start}, {stop}) outside series of length {x.shape[0]}")
    if w.ndim == 0 or w.shape[-1] == 0 or w.shape[:-1] != x.shape[1:]:
        raise DomainError(f"weights of shape {w.shape} do not fit a series of shape {x.shape}")
    lags = w.shape[-1]
    first = start - (lags - 1)
    seg = x[max(first, 0) : stop]
    if first < 0:
        seg = np.concatenate([np.zeros((-first,) + x.shape[1:]), seg])
    rows = w.reshape(-1, lags)
    seg = seg.reshape(seg.shape[0], rows.shape[0])
    shape = (stop - start,) + x.shape[1:]
    size = 1 << (seg.shape[0] - 1).bit_length()
    if (stop - start) * lags > FFT_SUM_RATIO * size * (size.bit_length() - 1):
        # the circular wrap lands on the lags-1 leading rows only, which are dropped
        with np.errstate(over="ignore", invalid="ignore"):
            out = block_convolve(kernel_spectrum(rows.T, 0, lags, size), seg, size)
        out = out[lags - 1 : seg.shape[0]]
        if np.isfinite(out).all():
            return out.reshape(shape)
    out = np.empty((stop - start, rows.shape[0]))
    if stop > start:  # np.convolve swaps its operands when the series is shorter
        for i, w_i in enumerate(rows):
            out[:, i] = np.convolve(seg[:, i], w_i, "valid")
    return out.reshape(shape)


def lower_block_toeplitz(blocks: np.ndarray) -> np.ndarray:
    """Matrix of a causal block convolution: block (i, j) is ``blocks[i - j]``, zero for i < j."""
    P, r, c = blocks.shape
    i, j = np.tril_indices(P)
    out = np.zeros((P, r, P, c))
    out[i, :, j, :] = blocks[i - j]
    return out.reshape(P * r, P * c)


def frac_difference(series, alphas, k: int, table: np.ndarray | None = None):
    """Causal fractional difference of a multichannel series at step ``k``.

    Evaluates sum_{j=0..k} c_j^{alpha_i} * x_i[k-j] per channel, with samples
    before time 0 taken as zero.  ``series`` is time-major, shape (T,) for a
    single channel or (T, n).  Passing a precomputed :func:`build_weight_table`
    array ``table`` with at least k + 1 lags avoids re-deriving the weights.
    """
    k = _count(k, "step k", least=-np.inf)
    x = _array(series, "series")
    if x.ndim not in (1, 2):
        raise DimensionError(f"series must be a (T,) or (T, n) series, got shape {x.shape}")
    if x.ndim == 1:
        x = x[:, None]
    orders = _array(alphas, "alphas", x.shape[1])  # one order per channel
    if not 0 <= k < x.shape[0]:
        raise IndexError(f"step k={k} outside series of length {x.shape[0]}")
    if table is None:
        table = build_weight_table(orders, k)
    elif table.shape[1] <= k:
        raise DomainError("weight table horizon is shorter than requested step")
    return history_sum(x, table[:, : k + 1], k, k + 1)[0]
