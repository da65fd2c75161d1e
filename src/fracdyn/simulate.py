"""Forward simulation of fractional systems and their finite-memory lifts.

Both model types step x[k+1] = sum_j M_j x[k-j] + sum_j B_j u[k-j] + sum_j G_j w[k-j]
with :class:`~fracdyn.fraccore.MemoryTail`: a single-term system has a diagonal
tail M_j = -diag(c_{j+1}) beside M_0 = A + diag(alpha), O(n K log^2 K) over K
steps; a network has matrix stacks, O(n^2 K log^2 K).  Every recursion here
runs through :func:`_advance`: open-loop runs solve each aligned block of
``NEAR_BLOCK`` steps after the first at once (a lift none), and every other
step is summed and checked by the one store step, :func:`_store`.
:class:`FosSimulator` steps one state vector at a time, for closed loops.
Everything is deterministic given (model, x0, inputs, noise-or-seed).
"""

from functools import partial

import numpy as np

from . import _NAMES
from .errors import DimensionError, DomainError, NonFiniteError
from .fraccore import (
    NEAR_BLOCK, MemoryTail, _array, _count, _real, block_convolve, build_weight_table,
    kernel_spectrum)
from .model import AugmentedModel, FosModel, MultiTermNetwork, Trajectory, network_series

__all__ = _NAMES["simulate"]

#: Largest entry of the transition matrices G_1..G_NEAR_BLOCK that an open-loop
#: run solves a block with (G_0 = I); a faster-growing model keeps the loop.
_MAX_GROWTH = 1e3


def _resolve_inputs(u, steps: int, dim: int, name: str = "u") -> np.ndarray:
    return np.zeros((steps, dim)) if u is None else _array(u, name, (steps, dim))


def _resolve_noise(w, steps: int, dim: int, sigma: float, name: str = "w") -> np.ndarray:
    """An explicit (steps, dim) noise array ``name``, the draws of a seed, or zeros for None."""
    if w is None or isinstance(w, (list, tuple, np.ndarray)):
        return _resolve_inputs(w, steps, dim, name)
    return gaussian_noise(w, steps, dim, sigma)


def _start(x0, K: int, n: int) -> np.ndarray:
    """States X[0..K], zero but for X[0] = x0, a finite vector of length n."""
    X = np.zeros((K + 1, n))
    X[0] = _array(x0, "x0", (n,))
    return X


def _fos_memory(model: FosModel, X: np.ndarray):
    """A0 = A + diag(alpha), the tail kernel -c_{j+1} (lag 0 zero) and its MemoryTail over X."""
    kernel = -build_weight_table(model.alpha, X.shape[0])[:, 1:].T
    kernel[0] = 0.0
    return model.A + np.diag(model.alpha), kernel, MemoryTail(kernel, X)


class FosSimulator:
    """Incremental full-memory stepper of a single-term model's state vector.

    Precomputes the weight table once for ``max_steps`` and keeps the whole
    state history, so a closed-loop driver can interleave solving and stepping
    without re-simulating from scratch.  Open-loop runs do not step it:
    :func:`simulate_fos` solves them a block at a time.
    """

    def __init__(self, model: FosModel, x0, max_steps: int):
        self.model = model
        self._states = _start(x0, _count(max_steps, "max_steps"), model.n)
        self._A0, _, self._tail = _fos_memory(model, self._states)
        self.k = 0

    @property
    def states(self) -> np.ndarray:
        return self._states[: self.k + 1]

    def step(self, u=None, w=None) -> np.ndarray:
        k, x = self.k, self._states
        if k + 1 >= x.shape[0]:
            raise DimensionError("simulator stepped past its preallocated horizon")
        drives = [(M, _array(v, name, M.shape[1:], finite=False))
                  for M, v, name in ((self.model.B, u, "u"), (self.model.Bw, w, "w"))
                  if v is not None]
        nxt = _store(x, k, lambda k: [self._A0 @ x[k], self._tail(k)] + [M @ v for M, v in drives])
        self.k = k + 1
        return nxt


def _fos_run(model: FosModel, X: np.ndarray, uu=None, ww=None) -> np.ndarray:
    """Fill X[1:] with the open-loop run from X[0]: free responses when ``uu`` is None.

    Blocks past the first are solved at once (:func:`_advance`), unless a
    channel has integer order: the loop keeps its rows the integer
    recursion exactly.
    """
    A0, kernel, tail = _fos_memory(model, X)
    drives = [] if uu is None else [(model.B, uu), (model.Bw, ww)]
    integer = np.any(model.alpha == np.round(model.alpha))
    _advance(X, lambda k: [A0 @ X[k], tail(k)] + [M @ v[k] for M, v in drives],
             lambda s, b: sum((v[s : s + b] @ M.T for M, v in drives), tail.far(s)[:b]),
             None if integer else partial(_transitions, kernel, A0))
    return X


def simulate_fos(
    model: FosModel,
    x0,
    u=None,
    w=None,
    K: int = 0,
    *,
    dt: float = 1.0,
    noise_sigma: float = 1.0,
) -> Trajectory:
    """Simulate a single-term model for K steps.

    ``u`` is an input sequence (K, m) or None; ``w`` is a noise sequence
    (K, p), an integer seed (standard-normal draws scaled by ``noise_sigma``),
    or None.  With alpha = 1 the run equals the ordinary LTI recursion
    x[k+1] = (A + I) x[k] + B u + Bw w exactly.

    The first ``NEAR_BLOCK`` steps are summed one at a time, each as
    A0 x[k] + tail, then B u, then Bw w; later blocks of ``NEAR_BLOCK`` steps
    are each solved at once, to rounding of the step loop.  A model with a
    channel of integer order is stepped throughout, and so is one whose
    transition matrices G_1..G_NEAR_BLOCK have an entry above 1e3: the block
    solve's rounding grows with them, the loop's does not.
    """
    K = _count(K, "step count K")
    uu = _resolve_inputs(u, K, model.m)
    ww = _resolve_noise(w, K, model.p, noise_sigma)
    states = _fos_run(model, _start(x0, K, model.n), uu, ww)
    return Trajectory(states=states, inputs=uu, noises=ww, dt=dt)


def transition_matrices(model: FosModel, K: int) -> np.ndarray:
    """State-transition matrices G_0..G_K of the free response x[k] = G_k x[0].

    G_0 = I and G_k = sum_{j=0..k-1} A_j G_{k-1-j}: the simulator's recursion
    run from the identity with no input or noise, block by block as in
    :func:`simulate_fos`.
    """
    K = _count(K, "horizon K")
    G = np.zeros((K + 1, model.n, model.n))
    G[0] = np.eye(model.n)
    return _fos_run(model, G)


def simulate_network(
    net: MultiTermNetwork, x0, u=None, w=None, K: int = 0, *, dt: float = 1.0
) -> Trajectory:
    """Full-memory simulation of a multi-term network, as ``fracdyn simulate`` runs it.

    Sums the reduced convolution series at every lag up to K, with one
    :class:`~fracdyn.fraccore.MemoryTail` each over the states, inputs and
    disturbances, O(n^2 K log^2 K).  The first ``NEAR_BLOCK`` steps are
    stepped; each later block of ``NEAR_BLOCK`` steps is solved at once from
    the series' transition matrices and its tails' whole-block sums; those
    with an entry above 1e3 keep the loop, as in :func:`simulate_fos`.
    Outputs are C x[k] with no measurement noise; callers add their own.  Its
    oracles are the double loop and the direct sums in
    ``tests/test_memory_oracles.py``.
    """
    K = _count(K, "step count K")
    X = _start(x0, K, net.n)
    uu = _resolve_inputs(u, K, net.m)
    ww = _resolve_noise(w, K, net.p, 1.0)
    series = network_series(net, K)
    # x[K] enters no step; an input or disturbance stack of width zero adds nothing
    state = MemoryTail(series.A[1:], X[:K])
    drives = [MemoryTail(kernel, history)
              for kernel, history in ((series.B, uu), (series.G, ww)) if history.shape[1]]
    _advance(X, lambda k: [tail(k) for tail in [state] + drives],
             lambda s, b: sum((tail.block(s, b) for tail in drives), state.far(s)[:b]),
             partial(_transitions, series.A[1:]))
    outputs = (net.output_map(np.arange(K + 1)) @ X[:, :, None])[:, :, 0]
    return Trajectory(states=X, inputs=uu, outputs=outputs, noises=ww, dt=dt)


def _transitions(kernel: np.ndarray, A0=None):
    """Transition matrices G_0..G_NEAR_BLOCK and their block spectrum, or None.

    G is the free response of x[k+1] = A0 x[k] + sum_{j<=k} kernel[j] . x[k-j]
    from x[0] = I (no A0 term when ``A0`` is None).  None keeps the step loop:
    the block solve's FFT rounds each row to about eps times the block's
    largest term, up to max |G_i| times the row's own, so a G with an entry
    above ``_MAX_GROWTH``, or one that is not finite, is not used.
    """
    n = kernel.shape[1]
    G = np.zeros((NEAR_BLOCK + 1, n, n))
    G[0] = np.eye(n)
    tail = MemoryTail(kernel, G[:NEAR_BLOCK])
    try:
        _advance(G, lambda k: [tail(k)] if A0 is None else [A0 @ G[k], tail(k)])
    except NonFiniteError:
        return None
    if not np.abs(G).max() <= _MAX_GROWTH:
        return None
    return G, kernel_spectrum(G, 0, NEAR_BLOCK, 2 * NEAR_BLOCK)


def _store(X, k: int, parts) -> np.ndarray:
    """Set X[k+1] to the sum of the list ``parts(k)``, added in list order.

    The one step of every recursion here: a sum that is not finite raises
    NonFiniteError naming step k+1, and its overflow stays out of numpy's
    warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        first, *rest = parts(k)
        nxt = sum(rest, first)
    if not np.all(np.isfinite(nxt)):
        raise NonFiniteError(f"state became non-finite at step {k + 1}")
    X[k + 1] = nxt
    return nxt


def _advance(X, parts, forcing=None, transitions=None) -> None:
    """Fill X[1:] by x[k+1] = sum_{j<=k} M_j x[k-j] + f[k], a block at a time.

    :func:`_store` sums step k from ``parts(k)`` for the first block, for
    every block if ``transitions`` or what it builds at the second block
    (:func:`_transitions`) is None, and for a block whose solve is not finite,
    so that a NonFiniteError names the exact step.  Otherwise the aligned
    block of steps s..s+b-1 is solved at once: with h = ``forcing(s, b)``, the
    far field at s plus f, X[s+1+i] = G_{i+1} X[s] + sum_{l<=i} G_{i-l} h_l.
    """
    K, solve = X.shape[0] - 1, None
    for s in range(0, K, NEAR_BLOCK):
        b = min(NEAR_BLOCK, K - s)
        if s == NEAR_BLOCK and transitions is not None:
            solve = transitions()
        if solve is not None:
            G, spectrum = solve
            # overflow is detected by the finiteness check below, not by numpy noise
            with np.errstate(over="ignore", invalid="ignore"):
                y = G[1 : b + 1] @ X[s] + block_convolve(spectrum, forcing(s, b), 2 * NEAR_BLOCK)[:b]
            if np.all(np.isfinite(y)):
                X[s + 1 : s + 1 + b] = y
                continue
        for k in range(s, s + b):
            _store(X, k, parts)


def simulate_augmented(aug: AugmentedModel, x0, u=None, w=None, K: int = 0) -> Trajectory:
    """Simulate a finite-memory lift; returned states are the base block.

    ``x0`` may be base-dimension (history zero-padded) or a full lift vector.
    ``w`` feeds the lift's disturbance column (width ``Gtil.shape[1]``).
    """
    K = _count(K, "step count K")
    z = aug.lift(x0)
    uu = _resolve_inputs(u, K, aug.m)
    ww = _resolve_noise(w, K, aug.Gtil.shape[1], 1.0)
    Z = _start(z, K, z.shape[0])
    _advance(Z, lambda k: [aug.Atil @ Z[k], aug.Btil @ uu[k], aug.Gtil @ ww[k]])
    return Trajectory(states=Z[:, : aug.n], inputs=uu, noises=ww)


def gaussian_noise(seed: int, steps: int, dim: int, sigma: float) -> np.ndarray:
    """Deterministic (steps, dim) Gaussian draws for a fixed seed, a count."""
    seed, size = _count(seed, "seed"), (_count(steps, "steps"), _count(dim, "dim"))
    sigma = _real(sigma, "sigma", 0.0, np.inf, "[)")
    with np.errstate(over="ignore"):  # an overflow raises below instead
        draws = np.random.default_rng(seed).normal(0.0, 1.0, size=size) * sigma
    if not np.isfinite(draws).all():
        raise DomainError(f"sigma {sigma:g} scales the draws beyond the float range")
    return draws
