"""Grunwald-Letnikov fractional-difference weights and the memory sums they weight.

The weight of lag ``j`` at order ``alpha`` is ``c_j = (-1)^j * binom(alpha, j)``,
evaluated by the product recurrence c_j = c_{j-1} * (j - 1 - alpha) / j, which
is pole-free and grows its error as O(j*eps).

This module is the one place a memory sum is evaluated.  Implicit
recursions, whose history is produced step by step, read it from a
:class:`MemoryTail`, which convolves a diagonal kernel (a single-term model's
GL tail) or a matrix kernel (a network's series) with the history in
O(K log^2 K) over K steps.  The identification sums, over series known in
advance, go through :func:`history_sums`, directly when they are short; it
transforms a series once for all the weights it sums.  Each FFT convolution,
in the tail, in the simulators' block solves and in a long history sum, is
one :func:`block_convolve`.  All sequences are
causal: samples at negative indices are zero.  A weight table is the plain
read-only (orders, lags 0..J) array that :func:`build_weight_table` returns.

It also holds the readers that judge every argument of the package and its
CLI, each raising an error that names it: :func:`_count` (a count),
:func:`_real` (a finite real in a range) and :func:`_array` (a float array of
a declared shape, which also sets the one rule for a 1-D value where a
matrix or time series belongs; :func:`_square` reads a square matrix by it).
"""

import math

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
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


def _array(value, name: str, shape: tuple | None = None, finite: bool = True,
           series: bool = False) -> np.ndarray:
    """``value`` as a float array; of the declared ``shape`` when that is given.

    ``shape`` is a tuple of sizes, None for a free size.  A number where a
    vector or matrix belongs is one entry.  A 1-D value where a matrix
    belongs is one row if a row fits the declared sizes, otherwise one
    column; when both sizes are free, ``series`` makes it a column (one
    channel of a time-major series) and a matrix takes it as a row.  Another
    shape raises DimensionError naming ``name``: "must have length n" for a
    vector, "must have shape (3, *), got (1, 3)" otherwise.  None, a string,
    true/false at any depth, and what numpy cannot read as floats raise
    DimensionError too.  A NaN or +-inf entry raises DomainError naming it,
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
    if shape is not None and arr.shape != shape and not _fits(arr, shape):
        fit = None
        if arr.ndim < len(shape) <= 2:  # a number, or a vector where a matrix belongs
            row = arr.reshape((1,) * (len(shape) - 1) + (-1,))
            order = (row.T, row) if series and shape == (None, None) else (row, row.T)
            fit = next((a for a in order if _fits(a, shape)), None)
        if fit is None:
            if len(shape) == 1:
                raise DimensionError(f"{name} must have length {shape[0]}")
            sizes = ", ".join("*" if size is None else str(size) for size in shape)
            raise DimensionError(f"{name} must have shape ({sizes}), got {arr.shape}")
        arr = fit
    if finite and not np.isfinite(arr).all():
        raise DomainError(f"{name} entries must be finite")
    return arr


def _fits(arr: np.ndarray, shape: tuple) -> bool:
    """Whether ``arr`` has the declared ``shape``, None a free size."""
    return arr.ndim == len(shape) and all(
        want is None or size == want for size, want in zip(arr.shape, shape))


def _square(value, name: str) -> np.ndarray:
    """``value`` as a finite square matrix by the rule of :func:`_array`; its rows set the size."""
    m = _array(value, name, (None, None))
    return _array(m, name, m.shape[:1] * 2)


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
    """rfft over ``size`` points of a (diagonal or matrix) kernel's lags [first, stop).

    Of a time-major block's rows [0, b) it is the transform :func:`block_convolve` takes.
    """
    h = np.zeros((size,) + kernel.shape[1:])
    h[first : min(stop, kernel.shape[0])] = kernel[first:stop]
    return np.fft.rfft(h, axis=0)


def block_convolve(spectrum: np.ndarray, block: np.ndarray, size: int,
                   transform: np.ndarray | None = None) -> np.ndarray:
    """Rows i of sum_l kernel[i - l] . block[l], lags modulo ``size``, by FFT.

    ``spectrum`` is the kernel's :func:`kernel_spectrum`; ``block`` is (b, c, ...),
    as :class:`MemoryTail`'s states.  A caller that convolves one block with
    many diagonal kernels passes the block's own rfft over ``size`` points as
    ``transform``, which is copied, not changed.  A spectrum that only the call
    holds is freed before the inverse transform.
    """
    shape = block.shape
    if spectrum.ndim == 2:  # a diagonal kernel scales each channel
        x = np.fft.rfft(block, n=size, axis=0) if transform is None else transform.copy()
        x *= spectrum.reshape(spectrum.shape + (1,) * (block.ndim - 2))
    else:  # one matrix product per frequency, as a batched matmul (einsum is far slower)
        x = spectrum @ np.fft.rfft(block.reshape(shape[0], shape[1], -1), n=size, axis=0)
    del spectrum
    return np.fft.irfft(x, n=size, axis=0).reshape((size, x.shape[1]) + shape[2:])


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

    def _convolve(self, block: np.ndarray, first: int, stop: int, size: int,
                  again: bool = True) -> np.ndarray:
        """The block convolved with kernel lags [first, stop); keeps the spectrum if ``again``."""
        key = (first, stop, size)
        if key not in self._spectra:
            self._spectra[key] = kernel_spectrum(self._kernel, first, stop, size)
        return block_convolve(self._spectra[key] if again else self._spectra.pop(key), block, size)

    def far(self, s: int) -> np.ndarray:
        """Far field of the block of steps from ``s``, a multiple of ``NEAR_BLOCK``.

        Needs ``states[:s]`` filled.  Runs the update due at ``s`` (once), after
        which the rows ``[s, s + NEAR_BLOCK)`` hold the whole sum over
        ``states[:s]``: no later update reaches them.
        """
        if s == self._next_block:
            b = s & -s
            block = self._states[s - b : s]
            again = s + 2 * b < self._far.shape[0]  # the next update of this size
            far = self._convolve(block, 1, 2 * b, 2 * b, again)[b:]
            if not np.isfinite(far).all() and np.isfinite(block).all():
                # the transform sums the whole block, so it can overflow before the
                # states do: redo it on the block scaled by a power of two, exactly
                e = np.frexp(np.abs(block).max())[1]
                far = np.ldexp(self._convolve(np.ldexp(block, -e), 1, 2 * b, 2 * b, again)[b:], e)
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
    t - s over ``weights[s:]``.  It is :func:`history_sums` for one weights.
    """
    x, w = _array(x, "x"), _array(weights, "weights")
    return history_sums(x, w.shape[-1] if w.ndim else 0, start, stop)(w)


def history_sums(x, lags: int, start: int, stop: int):
    """The function ``weights -> history_sum(x, weights, start, stop)``, weights of ``lags`` lags.

    No rows-by-lags matrix is formed: the rows' common history is convolved
    with each channel's weights, by ``np.convolve`` per channel, or by one
    :func:`block_convolve` once rows x lags exceeds ``FFT_SUM_RATIO`` times
    size x log2(size) of the transform.  The history is transformed once, by
    the first call that goes by FFT; every later call reuses that transform,
    so scoring many weights over one series costs one kernel transform and one
    inverse each.  The transform rounds relative to the largest sum of the
    rows, not to each row's own scale; a channel whose sums come out
    non-finite is redone directly, alone, so column i of an (n, J+1) call has
    the bits of the one-channel call ``history_sum(x[:, i], weights[i], start,
    stop)`` on either route.
    """
    x = _array(x, "x")
    start, stop = _count(start, "start", least=-np.inf), _count(stop, "stop", least=-np.inf)
    if x.ndim not in (1, 2):
        raise DimensionError(f"x must be a (T,) or (T, n) series, got shape {x.shape}")
    if not 0 <= start <= stop <= x.shape[0]:
        raise IndexError(f"rows [{start}, {stop}) outside series of length {x.shape[0]}")
    first = start - (lags - 1)
    seg = x[max(first, 0) : stop]
    if first < 0:
        seg = np.concatenate([np.zeros((-first,) + x.shape[1:]), seg])
    seg = seg.reshape(seg.shape[0], math.prod(x.shape[1:]))
    size = 1 << (seg.shape[0] - 1).bit_length()
    by_fft = (stop - start) * lags > FFT_SUM_RATIO * size * (size.bit_length() - 1)
    transform = None

    def sums(weights) -> np.ndarray:
        nonlocal transform
        w = _array(weights, "weights")
        if w.ndim == 0 or w.shape[-1] != lags or not lags or w.shape[:-1] != x.shape[1:]:
            raise DomainError(f"weights of shape {w.shape} do not fit a series of shape {x.shape}")
        rows = w.reshape(-1, lags)
        out, direct = np.empty((stop - start, rows.shape[0])), np.ones(rows.shape[0], dtype=bool)
        if by_fft:
            # the circular wrap lands on the lags-1 leading rows only, which are dropped
            with np.errstate(over="ignore", invalid="ignore"):
                if transform is None:  # the same bits as block_convolve's own transform
                    transform = kernel_spectrum(seg, 0, seg.shape[0], size)
                out = block_convolve(kernel_spectrum(rows.T, 0, lags, size), seg, size, transform)
            out = out[lags - 1 : seg.shape[0]]
            direct = ~np.isfinite(out).all(axis=0)
        if stop > start:  # np.convolve swaps its operands when the series is shorter
            for i in np.flatnonzero(direct):
                out[:, i] = np.convolve(seg[:, i], rows[i], "valid")
        return out.reshape((stop - start,) + x.shape[1:])

    return sums


def frac_difference(series, alphas, k: int, table: np.ndarray | None = None):
    """Causal fractional difference of a multichannel series at step ``k``.

    Evaluates sum_{j=0..k} c_j^{alpha_i} * x_i[k-j] per channel, with samples
    before time 0 taken as zero.  ``series`` is time-major, shape (T,) for a
    single channel or (T, n).  Passing a precomputed :func:`build_weight_table`
    array ``table`` with at least k + 1 lags avoids re-deriving the weights.
    """
    k = _count(k, "step k", least=-np.inf)
    x = _array(series, "series", (None, None), series=True)
    orders = _array(alphas, "alphas", x.shape[1:])  # one order per channel
    if not 0 <= k < x.shape[0]:
        raise IndexError(f"step k={k} outside series of length {x.shape[0]}")
    if table is None:
        table = build_weight_table(orders, k)
    elif table.shape[1] <= k:
        raise DomainError("weight table horizon is shorter than requested step")
    return history_sum(x, table[:, : k + 1], k, k + 1)[0]
