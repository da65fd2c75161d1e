"""Minimum-energy state estimation on truncated fractional networks.

The estimate is the trajectory most consistent with the data: it minimizes a
weighted quadratic energy of the unknown initial-state error, process
disturbances, and measurement errors, subject to the truncated-lift dynamics.
No stochastic noise model is assumed.  Two routes are provided and kept
independent: the recursive filter with gain/covariance-style updates, and a
dense batch least-squares solve of the same objective used as its oracle.
Measurements start at step 1; an output at step 0 is never consumed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InnovationSingular
from .model import (
    AugmentedModel, MultiTermNetwork, _as_array, _as_weight, _weight_block, augment_v)
from .simulate import Trajectory

__all__ = [
    "EstimatorConfig",
    "EstimatorState",
    "EstimationRun",
    "me_filter_init",
    "me_filter_step",
    "me_batch",
    "run_estimator",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Weights of the energy objective: process Q, measurement R, prior (P0, xhat0).

    Each weight is a number (that multiple of I), a diagonal, an SPD matrix or
    a per-step schedule (a 3-D array indexed by the step it weights; P0
    weights step 0).  ``xhat0`` is a number (every lifted coordinate), the
    base state (history zero) or the lifted state.  Sizes are checked against
    the lift when the filter is initialized.
    """

    Q: np.ndarray
    R: np.ndarray
    P0: np.ndarray
    xhat0: np.ndarray

    def __post_init__(self):
        for name in ("Q", "R", "P0"):
            object.__setattr__(self, name, _as_weight(getattr(self, name), name))
        object.__setattr__(self, "xhat0", _as_array(self.xhat0, "xhat0"))

    @classmethod
    def from_scalars(cls, aug: AugmentedModel, q: float, r: float, p0: float, xhat0_base=None):
        """Scaled-identity weights sized for a given lift; xhat0 history is zero."""
        d = aug.dim
        x0 = np.zeros(d)
        if xhat0_base is not None:
            x0[: aug.n] = np.atleast_1d(np.asarray(xhat0_base, dtype=float))
        return cls(
            Q=q * np.eye(aug.Gtil.shape[1]), R=r * np.eye(aug.q), P0=p0 * np.eye(d), xhat0=x0
        )


@dataclass(frozen=True)
class EstimatorState:
    """Filter state after ``k`` measurement updates.

    ``P`` stays symmetric positive definite (re-symmetrized every step to
    control drift); ``gain`` and ``M`` are the most recent update quantities,
    None before the first step.
    """

    k: int
    xhat: np.ndarray
    P: np.ndarray
    gain: np.ndarray | None
    M: np.ndarray | None
    aug: AugmentedModel
    config: EstimatorConfig


def me_filter_init(aug: AugmentedModel, config: EstimatorConfig) -> EstimatorState:
    """Filter state at step 0: the a-priori estimate with prior weight P0.

    Resolves ``xhat0`` and P0 against the lift and checks the sizes of Q and R.
    """
    d, xhat0 = aug.dim, config.xhat0
    P0 = np.array(_weight_block(config.P0, 0, d, "P0"))
    _weight_block(config.Q, 0, aug.Gtil.shape[1], "Q")
    _weight_block(config.R, 0, aug.q, "R")
    if xhat0.ndim == 0:
        xhat0 = np.full(d, float(xhat0))
    elif xhat0.shape in ((aug.n,), (d,)):
        xhat0 = aug.lift(xhat0)
    else:
        raise DimensionError(f"xhat0 must be a number or have length {aug.n} or {d}, "
                             f"got shape {xhat0.shape}")
    return EstimatorState(
        k=0, xhat=xhat0, P=P0, gain=None, M=None, aug=aug, config=config,
    )


def me_filter_step(state: EstimatorState, u, y, C=None) -> EstimatorState:
    """Advance the filter by one step with input u[k] and measurement y[k+1].

    Propagates through the lift, then corrects with the gain
    K = M C^T (C M C^T + R)^{-1} where M = A P A^T + G Q G^T; the innovation
    matrix is solved through its SPD factorization, never inverted.  With a
    zero output map the step reduces to pure open-loop prediction.  ``C``
    overrides the lift's output row for this step (time-varying maps).

    M is assembled from the lift's rows (:attr:`AugmentedModel.rows`): runs
    of copy rows of A move blocks of P, only the dense rows are multiplied,
    and Q enters the nonzero rows of G.  The update P = M - K (C M) reads
    only the nonzero columns of C.  A step costs O(r d^2) for r dense and
    output rows on a lift of dimension d, not the O(d^3) of dense products.
    """
    aug, cfg = state.aug, state.config
    k = state.k
    u = np.zeros(aug.m) if u is None else np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (aug.m,):
        raise DimensionError(f"input must have length {aug.m}")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (aug.q,):
        raise DimensionError(f"measurement must have length {aug.q}")
    A, rows = aug.Atil, aug.rows
    C = aug.Ctil if C is None else np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape != aug.Ctil.shape:
        raise DimensionError(f"output map must have shape {aug.Ctil.shape}")
    Qk = _weight_block(cfg.Q, k, aug.Gtil.shape[1], "Q")
    Rk1 = _weight_block(cfg.R, k + 1, aug.q, "R")
    xpred = A @ state.xhat + aug.Btil @ u
    P = state.P
    A_dense = A[rows.dense]
    AP = A_dense @ P
    M = np.zeros_like(P)
    M[np.ix_(rows.dense, rows.dense)] = AP @ A_dense.T
    for row, src, size in rows.copies:
        M[rows.dense, row : row + size] = AP[:, src : src + size]
        M[row : row + size, rows.dense] = AP[:, src : src + size].T
        for row2, src2, size2 in rows.copies:
            M[row : row + size, row2 : row2 + size2] = P[src : src + size, src2 : src2 + size2]
    G = aug.Gtil[rows.noise]
    M[np.ix_(rows.noise, rows.noise)] += G @ Qk @ G.T
    cols = np.flatnonzero(C.any(axis=0))
    C = C[:, cols]
    CM = C @ M[cols]
    S = CM[:, cols] @ C.T + Rk1
    try:
        L = np.linalg.cholesky(0.5 * (S + S.T))
    except np.linalg.LinAlgError as exc:  # cannot occur with SPD R
        raise InnovationSingular(str(exc)) from exc
    K = np.linalg.solve(L.T, np.linalg.solve(L, CM)).T
    xhat = xpred + K @ (y - C @ xpred[cols])
    P = M - K @ CM
    P = 0.5 * (P + P.T)
    return EstimatorState(k=k + 1, xhat=xhat, P=P, gain=K, M=M, aug=aug, config=cfg)


def me_batch(aug: AugmentedModel, config: EstimatorConfig, u, y):
    """Exact minimizer of the energy objective over N steps (dense oracle).

    ``u`` holds u[0..N-1] (rows), ``y`` holds y[1..N] (row j is the
    measurement at step j+1).  Decision variables are the initial lifted
    state and the N process disturbances; measurement errors follow from the
    constraints.  Returns (xhat, cost) where xhat stacks the estimated lifted
    states at steps 0..N and cost is the objective at the minimizer.  The
    output map is the lift's constant one (time-varying maps are a filter
    feature only).
    """
    d, n_r, q = aug.dim, aug.Gtil.shape[1], aug.q
    prior = me_filter_init(aug, config)
    y = np.atleast_2d(np.asarray(y, dtype=float))
    N = y.shape[0]
    if N < 1:
        raise DimensionError("need at least one measurement")
    if y.shape[1] != q:
        raise DimensionError(f"measurements must have {q} columns")
    if u is None:
        u = np.zeros((N, aug.m))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape != (N, aug.m):
        raise DimensionError(f"inputs must have shape ({N}, {aug.m})")

    nvar = d + N * n_r
    A, G, C = aug.Atil, aug.Gtil, aug.Ctil
    # x[k] = Phi[k] theta + off[k], theta = [x0; r_0; ...; r_{N-1}]
    Phi = np.zeros((N + 1, d, nvar))
    off = np.zeros((N + 1, d))
    Phi[0, :, :d] = np.eye(d)
    for k in range(N):
        Phi[k + 1] = A @ Phi[k]
        Phi[k + 1, :, d + k * n_r : d + (k + 1) * n_r] += G
        off[k + 1] = A @ off[k] + aug.Btil @ u[k]

    rows = []
    rhs = []
    Lp = np.linalg.cholesky(prior.P)
    blk = np.zeros((d, nvar))
    blk[:, :d] = np.eye(d)
    rows.append(np.linalg.solve(Lp, blk))
    rhs.append(np.linalg.solve(Lp, prior.xhat))
    for k in range(N):
        Lq = np.linalg.cholesky(_weight_block(config.Q, k, n_r, "Q"))
        blk = np.zeros((n_r, nvar))
        blk[:, d + k * n_r : d + (k + 1) * n_r] = np.eye(n_r)
        rows.append(np.linalg.solve(Lq, blk))
        rhs.append(np.zeros(n_r))
    for j in range(1, N + 1):
        Lr = np.linalg.cholesky(_weight_block(config.R, j, q, "R"))
        rows.append(np.linalg.solve(Lr, C @ Phi[j]))
        rhs.append(np.linalg.solve(Lr, y[j - 1] - C @ off[j]))

    design = np.vstack(rows)
    target = np.concatenate(rhs)
    theta = np.linalg.lstsq(design, target, rcond=None)[0]
    cost = float(np.sum((design @ theta - target) ** 2))
    xhat = np.einsum("kdv,v->kd", Phi, theta) + off
    return xhat, cost


@dataclass
class EstimationRun:
    """End-to-end estimator output aligned to the measurement timeline."""

    estimates: np.ndarray  # (N+1, lift dim)
    base_estimates: np.ndarray  # (N+1, n)
    err_norms: np.ndarray | None
    terminal_error: float | None
    sup_error: float | None


def run_estimator(
    net: MultiTermNetwork, v: int, config: EstimatorConfig, traj: Trajectory
) -> EstimationRun:
    """Filter a measured trajectory through the depth-v truncation of ``net``.

    The trajectory must carry outputs; measurement rows 1..K drive the filter
    (the output at step 0 is ignored).  Per-step output maps on the network
    are threaded through automatically.  When the trajectory also carries
    ground-truth states, per-step error norms of the base-state estimate are
    reported along with terminal and sup errors.
    """
    if traj.outputs is None:
        raise DimensionError("trajectory carries no outputs to filter on")
    aug = augment_v(net, v)
    N = traj.outputs.shape[0] - 1
    u = traj.inputs if traj.inputs is not None else np.zeros((N, aug.m))
    if u.shape[0] < N:
        raise DimensionError("trajectory inputs are shorter than its outputs")
    scheduled = net.C.ndim == 3
    state = me_filter_init(aug, config)
    est = np.zeros((N + 1, aug.dim))
    est[0] = state.xhat
    for k in range(N):
        Ck = None
        if scheduled:
            Ck = np.zeros((aug.q, aug.dim))
            Ck[:, : aug.n] = net.output_map(k + 1)
        state = me_filter_step(state, u[k], traj.outputs[k + 1], C=Ck)
        est[k + 1] = state.xhat
    base = est[:, : aug.n]
    err = None
    terminal = sup = None
    if traj.states is not None and traj.states.shape[1] == aug.n:
        err = np.linalg.norm(base - traj.states[: N + 1], axis=1)
        terminal = float(err[-1])
        sup = float(err.max())
    return EstimationRun(
        estimates=est, base_estimates=base, err_norms=err,
        terminal_error=terminal, sup_error=sup,
    )
