"""Minimum-energy state estimation on truncated fractional networks.

The estimate is the trajectory most consistent with the data: it minimizes a
weighted quadratic energy of the unknown initial-state error, process
disturbances, and measurement errors, subject to the truncated-lift dynamics.
No stochastic noise model is assumed.  The recursive filter and a dense
batch least-squares solve of the same objective (:func:`me_batch`, its
oracle) are kept independent.  The filter runs in one of two forms:
:func:`me_filter_step` carries the d x d weight P and accepts per-step
weights and output maps, while :func:`run_estimator` with constant weights
propagates only the low-rank increment of the predicted weight and the gain
(the Chandrasekhar recursion) and never forms P.  This module holds the
filter algebra only: the lift applies its own matrices by their layout
(:meth:`AugmentedModel.shift`, :meth:`AugmentedModel.propagate`).
Measurements start at step 1; an output at step 0 is never consumed.
"""

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, InnovationSingular, NonFiniteError
from .fraccore import _array
from .model import (
    AugmentedModel, MultiTermNetwork, Trajectory, _as_prior, _as_weight, _weight_block,
    augment_v)

__all__ = [
    "EstimatorConfig",
    "EstimatorState",
    "EstimationRun",
    "me_filter_init",
    "me_filter_step",
    "me_batch",
    "run_estimator",
]


class EstimatorConfig(namedtuple("EstimatorConfig", "Q R P0 xhat0")):
    """Weights of the energy objective: process Q, measurement R, prior (P0, xhat0).

    Each weight is a number (that multiple of I), a diagonal, an SPD matrix or
    a per-step schedule (a 3-D array indexed by the step it weights; P0
    weights step 0).  ``xhat0`` is a number (every base state), the base
    state, both with the history zero, or the lifted state.  Sizes are
    checked against the lift when the filter is initialized.
    """

    __slots__ = ()

    def __new__(cls, Q, R, P0, xhat0):
        return super().__new__(cls, _as_weight(Q, "Q"), _as_weight(R, "R"), _as_weight(P0, "P0"),
                               _array(xhat0, "xhat0"))

    @classmethod
    def from_scalars(cls, aug: AugmentedModel, q: float, r: float, p0: float, xhat0_base=0.0):
        """Scaled-identity weights sized for a given lift; ``xhat0_base`` as for ``xhat0``."""
        return cls(Q=q * np.eye(aug.Gtil.shape[1]), R=r * np.eye(aug.q), P0=p0 * np.eye(aug.dim),
                   xhat0=_as_prior(xhat0_base, aug.n, aug.dim, "xhat0"))


class EstimatorState(NamedTuple):
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
    P0 = np.array(_weight_block(config.P0, 0, aug.dim, "P0"))
    _weight_block(config.Q, 0, aug.Gtil.shape[1], "Q")
    _weight_block(config.R, 0, aug.q, "R")
    xhat0 = _as_prior(config.xhat0, aug.n, aug.dim, "xhat0")
    return EstimatorState(k=0, xhat=xhat0, P=P0, gain=None, M=None, aug=aug, config=config)


def _factor(S: np.ndarray, step: int) -> np.ndarray:
    """Cholesky factor of the innovation matrix S of ``step``; with SPD R it cannot fail."""
    try:
        return np.linalg.cholesky(0.5 * (S + S.T))
    except np.linalg.LinAlgError as exc:
        raise InnovationSingular(f"innovation matrix of step {step}: {exc}") from exc


@np.errstate(over="ignore", invalid="ignore")  # a non-finite estimate raises instead
def me_filter_step(state: EstimatorState, u, y, C=None) -> EstimatorState:
    """Advance the filter by one step with input u[k] and measurement y[k+1].

    Propagates through the lift, then corrects with the gain
    K = M C^T (C M C^T + R)^{-1} where M = A P A^T + G Q G^T; the innovation
    matrix is solved through its SPD factorization, never inverted.  With a
    zero output map the step reduces to pure open-loop prediction.  ``C``
    overrides the lift's output row for this step (time-varying maps).

    The lift predicts and assembles M by its own layout (``shift``, ``propagate``),
    and the update P = M - K (C M) reads only the nonzero columns of C.  A step
    costs O(r d^2) for r = n + q rows on a lift of dimension d, not the O(d^3)
    of dense products.
    A non-finite estimate raises NonFiniteError naming step k+1, not a warning.
    """
    aug, cfg = state.aug, state.config
    k = state.k
    u = np.zeros(aug.m) if u is None else _array(u, "input", (aug.m,), finite=False)
    y = _array(y, "measurement", (aug.q,), finite=False)
    C = aug.Ctil if C is None else _array(C, "C", aug.Ctil.shape, finite=False)
    Qk = _weight_block(cfg.Q, k, aug.Gtil.shape[1], "Q")
    Rk1 = _weight_block(cfg.R, k + 1, aug.q, "R")
    xpred = aug.shift(state.xhat) + aug.Btil @ u
    M = aug.propagate(state.P, Qk)
    cols = np.flatnonzero(C.any(axis=0))
    C = C[:, cols]
    CM = C @ M[cols]
    L = _factor(CM[:, cols] @ C.T + Rk1, k + 1)
    K = np.linalg.solve(L.T, np.linalg.solve(L, CM)).T
    xhat = xpred + K @ (y - C @ xpred[cols])
    P = M - K @ CM
    P = 0.5 * (P + P.T)
    return EstimatorState(k=k + 1, xhat=_checked(xhat, k + 1), P=P, gain=K, M=M, aug=aug, config=cfg)


@np.errstate(over="ignore", invalid="ignore")  # a cost that is not finite raises instead
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
    y = _array(y, "y", (None, q))
    N = y.shape[0]
    if N < 1:
        raise DimensionError("need at least one measurement")
    u = np.zeros((N, aug.m)) if u is None else _array(u, "u", (N, aug.m))

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
    if not np.isfinite(cost):
        raise NonFiniteError("batch cost is not finite: u or y overflows")
    xhat = np.einsum("kdv,v->kd", Phi, theta) + off
    return xhat, cost


class EstimationRun(NamedTuple):
    """End-to-end estimator output aligned to the measurement timeline."""

    estimates: np.ndarray  # (N+1, lift dim)
    base_estimates: np.ndarray  # (N+1, n)
    err_norms: np.ndarray | None
    terminal_error: float | None
    sup_error: float | None


#: Eigenvalues of the first covariance increment at or below this share of
#: its largest magnitude are cut from its factor.
INCREMENT_RTOL = 1e-13


def _increment(aug: AugmentedModel, P0: np.ndarray, Q: np.ndarray, R: np.ndarray):
    """(F_0, N_0, S_0, L_0, W_0), the start of :func:`_low_rank_filter`, or None.

    N_0 = M_0 C^T, S_0 = C N_0 + R with Cholesky factor F_0, and the first
    increment M_1 - M_0 = L_0 W_0 L_0^T.  M_k = A P_k A^T + G Q G^T is the
    predicted weight of step k+1, so M_0 comes from P0 and M_1 from one
    Riccati step.  L_0 holds the eigenvectors of the increment whose
    eigenvalues, the diagonal of W_0, exceed :data:`INCREMENT_RTOL` of the
    largest magnitude.  None when the increment is not finite, so that the
    :func:`me_filter_step` loop names the step whose estimate fails.
    """
    C = aug.Ctil
    M0 = aug.propagate(P0, Q)
    N0 = M0 @ C.T
    S0 = C @ N0 + R
    F = _factor(S0, 1)
    P1 = M0 - N0 @ np.linalg.solve(F.T, np.linalg.solve(F, N0.T))
    delta = aug.propagate(0.5 * (P1 + P1.T), Q) - M0
    if not np.all(np.isfinite(delta)):
        return None
    lam, V = np.linalg.eigh(0.5 * (delta + delta.T))
    keep = np.abs(lam) > INCREMENT_RTOL * np.abs(lam).max(initial=0.0)
    return F, N0, S0, V[:, keep], np.diag(lam[keep])


def _low_rank_filter(aug: AugmentedModel, xhat, start, u, y, est) -> None:
    """Fill ``est[1:]`` by the Chandrasekhar recursion from ``start`` (:func:`_increment`).

    With N_k = M_k C^T and S_k = C N_k + R, the gain is K_k = N_k S_k^{-1}
    and the increment M_{k+1} - M_k = L_k W_k L_k^T advances as
        N_{k+1} = N_k + L_k W_k (C L_k)^T,  S_{k+1} = S_k + (C L_k) W_k (C L_k)^T,
        L_{k+1} = A (L_k - K_k C L_k),  W_{k+1} = W_k - W_k (C L_k)^T S_{k+1}^{-1} (C L_k) W_k
    (Kailath 1973; Morf, Sidhu and Kailath 1974).  No d x d matrix is formed.
    """
    C = aug.Ctil
    F, Nk, S, L, W = start
    N = est.shape[0] - 1
    for k in range(N):
        xpred = aug.shift(xhat) + aug.Btil @ u[k]
        gain = np.linalg.solve(F.T, np.linalg.solve(F, Nk.T)).T
        xhat = xpred + gain @ (y[k + 1] - C @ xpred)
        est[k + 1] = _checked(xhat, k + 1)
        if k + 1 == N:
            break
        E = C @ L
        EW = E @ W
        Nk = Nk + L @ EW.T
        S = S + EW @ E.T
        L = aug.shift(L - gain @ E)
        F = _factor(S, k + 2)
        Z = np.linalg.solve(F, EW)
        W = W - Z.T @ Z


def _checked(xhat: np.ndarray, k: int) -> np.ndarray:
    """The estimate of step k; NonFiniteError names the step when it is not finite."""
    if not np.all(np.isfinite(xhat)):
        raise NonFiniteError(f"estimate became non-finite at step {k}")
    return xhat


def run_estimator(
    net: MultiTermNetwork, v: int, config: EstimatorConfig, traj: Trajectory
) -> EstimationRun:
    """Filter a measured trajectory through the depth-v truncation of ``net``.

    The trajectory must carry outputs; measurement rows 1..K drive the filter
    (the output at step 0 is ignored).  DimensionError says so when it has
    none after step 0, or when its outputs are not q wide or its inputs not
    m wide.  Per-step output maps on the network are threaded through
    automatically.  When the trajectory also carries ground-truth states,
    per-step error norms of the base-state estimate are reported along with
    terminal and sup errors.

    Two routes give the same estimates to rounding.  With no per-step
    schedule of Q, R, P0 or the network's C, the filter propagates only the
    low-rank increment of the predicted weight and the gain
    (:func:`_low_rank_filter`) and forms no P: O(d alpha (alpha + r)) per step
    for a first increment of rank alpha.  A dense P0 makes alpha near d, and
    a step then costs O(d^3): at d = 400 and rank 399 the recursion took
    1.1-1.4 times as long as the loop.  A schedule, or an increment that is
    not finite, keeps the :func:`me_filter_step` loop, O(r d^2) per step.
    An estimate that is not finite raises NonFiniteError naming its step,
    without a numpy warning, on both routes.
    """
    if traj.outputs is None:
        raise DimensionError("trajectory carries no outputs to filter on")
    aug = augment_v(net, v)
    N = traj.outputs.shape[0] - 1
    if N < 1:
        raise DimensionError("trajectory has no measurement after step 0")
    y = _array(traj.outputs, "trajectory outputs", (None, aug.q))
    u = _array(np.zeros((N, aug.m)) if traj.inputs is None else traj.inputs[:N],
               "trajectory inputs", (N, aug.m))
    scheduled = net.C.ndim == 3
    state = me_filter_init(aug, config)
    est = np.zeros((N + 1, aug.dim))
    est[0] = state.xhat
    with np.errstate(over="ignore", invalid="ignore"):  # _checked raises instead
        start = None
        if not scheduled and max(config.Q.ndim, config.R.ndim, config.P0.ndim) < 3:
            start = _increment(aug, state.P, _weight_block(config.Q, 0, aug.Gtil.shape[1], "Q"),
                               _weight_block(config.R, 1, aug.q, "R"))
        if start is not None:
            _low_rank_filter(aug, state.xhat, start, u, y, est)
        else:
            for k in range(N):
                Ck = None
                if scheduled:
                    Ck = np.zeros((aug.q, aug.dim))
                    Ck[:, : aug.n] = net.output_map(k + 1)
                state = me_filter_step(state, u[k], y[k + 1], C=Ck)
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
