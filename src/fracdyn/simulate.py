"""Forward simulation of fractional systems and their finite-memory lifts.

Both model types step x[k+1] = sum_j M_j x[k-j] + sum_j B_j u[k-j] + sum_j G_j w[k-j]
with :class:`~fracdyn.fraccore.MemoryTail`: a single-term system has a diagonal
tail M_j = -diag(c_{j+1}) beside M_0 = A + diag(alpha), O(n K log^2 K) over K
steps; a network has matrix stacks, O(n^2 K log^2 K).  Everything is
deterministic given (model, x0, inputs, noise-or-seed).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonFiniteError
from .fraccore import MemoryTail, build_weight_table
from .model import AugmentedModel, FosModel, MultiTermNetwork, network_series

__all__ = [
    "Trajectory",
    "FosSimulator",
    "simulate_fos",
    "simulate_network",
    "simulate_augmented",
    "transition_matrices",
    "gaussian_noise",
]


@dataclass
class Trajectory:
    """Time-indexed record of a simulated or measured run.

    ``states`` has K+1 rows; ``inputs`` and ``noises`` have K rows (the sample
    applied between steps k and k+1); ``outputs`` has K+1 rows.  ``dt`` is
    metadata only: row k corresponds to time k*dt.
    """

    states: np.ndarray
    inputs: np.ndarray | None = None
    outputs: np.ndarray | None = None
    noises: np.ndarray | None = None
    dt: float = 1.0

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]  # a flat sequence is one channel over time
        self.states = states
        K = self.K
        for name in ("inputs", "outputs", "noises"):
            val = getattr(self, name)
            if val is None:
                continue
            val = np.atleast_2d(np.asarray(val, dtype=float))
            want = K + 1 if name == "outputs" else K
            if val.shape[0] != want:
                raise DimensionError(f"{name} must have {want} rows, got {val.shape[0]}")
            if not np.all(np.isfinite(val)):
                raise DimensionError(f"{name} contains non-finite entries")
            setattr(self, name, val)
        if not np.all(np.isfinite(self.states)):
            raise DimensionError("states contain non-finite entries")

    @property
    def K(self) -> int:
        return self.states.shape[0] - 1

    @property
    def n(self) -> int:
        return self.states.shape[1]


def _resolve_noise(w, steps: int, dim: int, sigma: float) -> np.ndarray:
    """Accept an explicit (steps, dim) noise array, an integer seed, or None."""
    if w is None:
        return np.zeros((steps, dim))
    if isinstance(w, (int, np.integer)):
        return gaussian_noise(int(w), steps, dim, sigma)
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    if w.shape != (steps, dim):
        raise DimensionError(f"noise must have shape ({steps}, {dim}), got {w.shape}")
    return w


def _resolve_inputs(u, steps: int, dim: int) -> np.ndarray:
    if u is None:
        return np.zeros((steps, dim))
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.shape != (steps, dim):
        raise DimensionError(f"inputs must have shape ({steps}, {dim}), got {u.shape}")
    return u


class FosSimulator:
    """Incremental full-memory stepper for a single-term model.

    Precomputes the weight table once for ``max_steps`` and keeps the whole
    state history, so closed-loop drivers can interleave solving and stepping
    without re-simulating from scratch.  ``x0`` is a state vector, or an
    (n, r) matrix whose columns step as r free responses side by side.
    """

    def __init__(self, model: FosModel, x0, max_steps: int):
        self.model = model
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if x0.ndim > 2 or x0.shape[0] != model.n:
            raise DimensionError(f"x0 must have length {model.n}")
        self._A0 = model.A + np.diag(model.alpha)
        self._states = np.zeros((max_steps + 1,) + x0.shape)
        self._states[0] = x0
        # x[k+1] = A0 x[k] + sum_{j>=1} -c_{j+1} x[k-j]: the tail kernel, negated
        kernel = -build_weight_table(model.alpha, max_steps + 1).weights[:, 1:].T
        kernel[0] = 0.0
        self._tail = MemoryTail(kernel, self._states)
        self.k = 0

    @property
    def states(self) -> np.ndarray:
        return self._states[: self.k + 1]

    def step(self, u=None, w=None) -> np.ndarray:
        k = self.k
        if k + 1 >= self._states.shape[0]:
            raise DimensionError("simulator stepped past its preallocated horizon")
        x = self._states
        if x.ndim > 2 and (u is not None or w is not None):
            raise DimensionError("inputs and noise drive a state vector, not free responses")
        # overflow is detected by the finiteness check below, not by numpy noise
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = self._A0 @ x[k] + self._tail(k)
            if u is not None:
                nxt = nxt + self.model.B @ np.atleast_1d(np.asarray(u, dtype=float))
            if w is not None:
                nxt = nxt + self.model.Bw @ np.atleast_1d(np.asarray(w, dtype=float))
        if not np.all(np.isfinite(nxt)):
            raise NonFiniteError(f"state became non-finite at step {k + 1}")
        self._states[k + 1] = nxt
        self.k = k + 1
        return nxt


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
    """
    if K < 0:
        raise DimensionError("step count K must be non-negative")
    uu = _resolve_inputs(u, K, model.m)
    ww = _resolve_noise(w, K, model.p, noise_sigma)
    sim = FosSimulator(model, x0, K)
    for k in range(K):
        sim.step(uu[k], ww[k])
    return Trajectory(states=sim.states.copy(), inputs=uu, noises=ww, dt=dt)


def transition_matrices(model: FosModel, K: int) -> np.ndarray:
    """State-transition matrices G_0..G_K of the free response x[k] = G_k x[0].

    G_0 = I and G_k = sum_{j=0..k-1} A_j G_{k-1-j}: the simulator's recursion
    stepped from the identity with no input or noise.
    """
    if K < 0:
        raise DimensionError("horizon K must be non-negative")
    sim = FosSimulator(model, np.eye(model.n), K)
    for _ in range(K):
        sim.step()
    return sim.states


def simulate_network(
    net: MultiTermNetwork, x0, u=None, w=None, K: int = 0, *, dt: float = 1.0
) -> Trajectory:
    """Full-memory simulation of a multi-term network, as ``fracdyn simulate`` runs it.

    Steps the reduced convolution series at every lag up to K, with one
    :class:`~fracdyn.fraccore.MemoryTail` each over the states, inputs and
    disturbances, O(n^2 K log^2 K).  Outputs are C x[k] with no measurement
    noise; callers add their own.  Its oracles are the double loop and the
    direct sums in ``tests/test_memory_oracles.py``.
    """
    if K < 0:
        raise DimensionError("step count K must be non-negative")
    n = net.n
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (n,):
        raise DimensionError(f"x0 must have length {n}")
    uu = _resolve_inputs(u, K, net.m)
    ww = _resolve_noise(w, K, net.p, 1.0)
    series = network_series(net, K)
    X = np.zeros((K + 1, n))
    X[0] = x0
    # x[K] enters no step; an input or disturbance stack of width zero adds nothing
    tails = [MemoryTail(kernel, history) for kernel, history in
             ((series.A[1:], X[:K]), (series.B, uu), (series.G, ww)) if history.shape[1]]
    for k in range(K):
        # overflow is detected by the finiteness check below, not by numpy noise
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = sum(tail(k) for tail in tails)
        if not np.all(np.isfinite(nxt)):
            raise NonFiniteError(f"state became non-finite at step {k + 1}")
        X[k + 1] = nxt
    C = net.C if net.C.ndim == 3 else net.C[None]
    outputs = (C[np.minimum(np.arange(K + 1), C.shape[0] - 1)] @ X[:, :, None])[:, :, 0]
    return Trajectory(states=X, inputs=uu, outputs=outputs, noises=ww, dt=dt)


def simulate_augmented(aug: AugmentedModel, x0, u=None, w=None, K: int = 0) -> Trajectory:
    """Simulate a finite-memory lift; returned states are the base block.

    ``x0`` may be base-dimension (history zero-padded) or a full lift vector.
    ``w`` feeds the lift's disturbance column (width ``Gtil.shape[1]``).
    """
    if K < 0:
        raise DimensionError("step count K must be non-negative")
    z = aug.lift(x0)
    uu = _resolve_inputs(u, K, aug.m)
    ww = _resolve_noise(w, K, aug.Gtil.shape[1], 1.0)
    X = np.zeros((K + 1, aug.n))
    X[0] = z[: aug.n]
    for k in range(K):
        z = aug.Atil @ z + aug.Btil @ uu[k] + aug.Gtil @ ww[k]
        if not np.all(np.isfinite(z)):
            raise NonFiniteError(f"lifted state became non-finite at step {k + 1}")
        X[k + 1] = z[: aug.n]
    return Trajectory(states=X, inputs=uu, noises=ww)


def gaussian_noise(seed: int, steps: int, dim: int, sigma: float) -> np.ndarray:
    """Deterministic (steps, dim) Gaussian draws for a fixed seed."""
    if sigma < 0:
        raise DimensionError("sigma must be non-negative")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(steps, dim)) * sigma
