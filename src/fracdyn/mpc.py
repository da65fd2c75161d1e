"""Receding-horizon quadratic control of fractional systems with input boxes.

Certainty equivalence is used throughout: the zero-mean noise is dropped from
the predictions, which leaves the minimizing input stack unchanged for an
expected quadratic cost.  The depth-p lift is condensed once per problem so
predicted states become affine in the stacked inputs; each solve minimizes
the strictly convex quadratic over the box.  The box-constrained QP is
reduced exactly, through a Cholesky factor of its Hessian, to a
bounded-variable least-squares problem and solved by an active-set method;
optional linear state constraints enter as a quadratic penalty (soft) or by
penalty escalation (hard).
scipy is imported where it is called, so ``import fracdyn`` does not load it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, InfeasibleStateConstraints, NotSPD
from .model import FosModel, augment_p
from .simulate import FosSimulator, Trajectory, _resolve_noise, simulate_fos

__all__ = [
    "MpcProblem",
    "MpcSolution",
    "ClosedLoopResult",
    "CondensedProblem",
    "condense",
    "solve_horizon",
    "run_closed_loop",
    "uncontrolled_baseline",
]

#: Default quadratic penalty weight for soft linear state constraints.
SOFT_PENALTY = 1e6


@dataclass(frozen=True)
class MpcProblem:
    """Horizon problem data: weights, linear cost, box, optional state rows.

    ``P`` is the prediction horizon, ``M`` the control horizon (the prefix of
    inputs actually applied before re-solving), ``p`` the memory depth of the
    predictive lift.  ``Q`` (PSD) and ``R`` (PD, enforced) may be constant or
    per-offset schedules; ``c`` is the linear state cost (zero when omitted).
    ``state_H @ x <= state_h`` rows, when given, apply to every predicted
    state.
    """

    p: int
    P: int
    M: int
    Q: np.ndarray
    R: np.ndarray
    c: np.ndarray | None = None
    u_lo: np.ndarray | float = -np.inf
    u_hi: np.ndarray | float = np.inf
    state_H: np.ndarray | None = None
    state_h: np.ndarray | None = None
    soft_penalty: float = SOFT_PENALTY
    hard_state: bool = False

    def __post_init__(self):
        if self.p < 1:
            raise DomainError("model depth p must be >= 1")
        if self.P < 1:
            raise DomainError("prediction horizon P must be >= 1")
        if not 1 <= self.M <= self.P:
            raise DomainError("control horizon M must satisfy 1 <= M <= P")
        Q = np.asarray(self.Q, dtype=float)
        R = np.asarray(self.R, dtype=float)
        if Q.ndim == 1:
            Q = np.diag(Q)
        if R.ndim == 1:
            R = np.diag(R)
        for name, W in (("Q", Q), ("R", R)):
            stack = W if W.ndim == 3 else W[None] if W.ndim == 2 else W.reshape(1, 1, 1)
            for Wk in stack:
                sym = 0.5 * (Wk + Wk.T)
                if not np.allclose(Wk, Wk.T, rtol=0.0, atol=1e-9 * (1.0 + np.abs(Wk).max())):
                    raise NotSPD(f"{name} must be symmetric")
                lam = np.min(np.linalg.eigvalsh(sym))
                if name == "R" and lam <= 0.0:
                    raise NotSPD("R must be positive definite")
                if name == "Q" and lam < -1e-12 * max(1.0, np.abs(Wk).max()):
                    raise NotSPD("Q must be positive semidefinite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        if self.c is not None:
            object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        lo = np.asarray(self.u_lo, dtype=float)
        hi = np.asarray(self.u_hi, dtype=float)
        if np.any(lo > hi):
            raise DomainError("u_lo exceeds u_hi")
        object.__setattr__(self, "u_lo", lo)
        object.__setattr__(self, "u_hi", hi)
        if (self.state_H is None) != (self.state_h is None):
            raise DomainError("state_H and state_h must be given together")


@dataclass(frozen=True)
class MpcSolution:
    """One horizon solve: optimal inputs, predictions, cost, KKT diagnostics."""

    u: np.ndarray  # (P, m)
    predicted: np.ndarray  # (P, n), states k+1 .. k+P
    cost: float
    kkt_residual: float
    active_lower: np.ndarray
    active_upper: np.ndarray
    penalty_cost: float = 0.0


@dataclass(frozen=True)
class CondensedProblem:
    """What every solve of one (problem, model) pair shares: the history-free terms.

    From the lifted history ``ztil``, predicted states are
    ``(powers @ ztil)[:, :n] + S @ U``; ``rows @ x <= rows_h`` stacks the
    state rows over the horizon (None without state rows).
    """

    powers: np.ndarray  # (P, d, d): A^1 .. A^P of the lift
    S: np.ndarray  # (P*n, P*m)
    Qbar: np.ndarray  # (P*n, P*n)
    H: np.ndarray  # (P*m, P*m)
    cvec: np.ndarray  # (P*n,)
    lo: np.ndarray  # (P*m,)
    hi: np.ndarray  # (P*m,)
    rows: np.ndarray | None = None
    rows_S: np.ndarray | None = None  # rows @ S
    rows_h: np.ndarray | None = None


def condense(problem: MpcProblem, model: FosModel) -> CondensedProblem:
    """Condense the depth-p lift of ``model`` over the horizon of ``problem``, once.

    Raises DimensionError when the model has no inputs, or when a weight
    block, the linear cost or the state rows do not match the model.
    """
    import scipy.linalg
    n, m, P = model.n, model.m, problem.P
    if m == 0:
        raise DimensionError("model has no input channels to control")
    aug = augment_p(model, problem.p)
    powers = [np.eye(aug.dim)]
    for _ in range(P):
        powers.append(aug.Atil @ powers[-1])
    # block (r, c) of S is E A^(r-c) B: one product per lag, placed on its diagonal
    EB = np.stack([(pw @ aug.Btil)[:n] for pw in powers[:P]])
    r, c = np.tril_indices(P)
    S = np.zeros((P, n, P, m))
    S[r, :, c, :] = EB[r - c]
    S = S.reshape(P * n, P * m)

    bars = []
    for name, W, size in (("Q", problem.Q, n), ("R", problem.R, m)):
        if W.ndim == 0:
            W = np.eye(size) * float(W)
        blocks = list(W[:P]) if W.ndim == 3 else [W] * P
        if len(blocks) < P or W.shape[-2:] != (size, size):
            raise DimensionError(f"{name} needs {size}x{size} blocks for {P} horizon steps "
                                 f"to match the model, got shape {W.shape}")
        bars.append(scipy.linalg.block_diag(*blocks))
    Qbar, Rbar = bars
    cvec = np.zeros(P * n)
    if problem.c is not None:
        cvec = np.tile(problem.c, P) if problem.c.ndim == 1 else problem.c.reshape(-1)
        if cvec.shape != (P * n,):
            raise DimensionError("linear state cost has the wrong length")

    rows = rows_S = rows_h = None
    if problem.state_H is not None:
        Hx = np.atleast_2d(np.asarray(problem.state_H, dtype=float))
        hx = np.atleast_1d(np.asarray(problem.state_h, dtype=float))
        if Hx.shape[1] != n or hx.shape != (Hx.shape[0],):
            raise DimensionError("state constraint rows do not match the state dimension")
        rows = scipy.linalg.block_diag(*([Hx] * P))
        rows_S = rows @ S
        rows_h = np.tile(hx, P)
    return CondensedProblem(
        powers=np.stack(powers[1:]), S=S, Qbar=Qbar, H=S.T @ Qbar @ S + Rbar, cvec=cvec,
        lo=np.tile(np.broadcast_to(problem.u_lo, (m,)), P),
        hi=np.tile(np.broadcast_to(problem.u_hi, (m,)), P),
        rows=rows, rows_S=rows_S, rows_h=rows_h,
    )


def _history_lift(model: FosModel, history, p: int) -> np.ndarray:
    """Stack the last p states, newest first, zero-padding before time 0."""
    hist = np.atleast_2d(np.asarray(history, dtype=float))
    if hist.shape[1] != model.n:
        raise DimensionError(f"history rows must have length {model.n}")
    z = np.zeros(p * model.n)
    recent = hist[::-1][:p].reshape(-1)
    z[: recent.size] = recent
    return z


def solve_horizon(
    problem: MpcProblem, model: FosModel, history, condensed: CondensedProblem | None = None
) -> MpcSolution:
    """Solve one horizon from the given state history (rows, oldest first).

    ``condensed`` is ``condense(problem, model)``, built here when omitted;
    pass it in to reuse it across solves.  The remaining box QP is solved
    exactly (bounded-variable least squares on the Cholesky-factored
    objective).  Soft state constraints add a smooth one-sided quadratic
    penalty; in hard mode the penalty is escalated and persistent violation
    raises InfeasibleStateConstraints.
    """
    n, m, P = model.n, model.m, problem.P
    cp = condense(problem, model) if condensed is None else condensed
    S, Qbar, H, cvec, LO, HI = cp.S, cp.Qbar, cp.H, cp.cvec, cp.lo, cp.hi
    ztil = _history_lift(model, history, problem.p)
    # a contiguous copy: a strided view changes the last bit of the products below
    fvec = (cp.powers @ ztil)[:, :n].flatten()

    # J(U) = U^T H U + b^T U + const with H PD (R is PD).
    b = 2.0 * S.T @ (Qbar @ fvec) + S.T @ cvec
    const = float(fvec @ Qbar @ fvec + cvec @ fvec)
    if cp.rows is None:
        U = _solve_box_qp(H, b, LO, HI)
        penalty, final_weight = 0.0, 0.0
    else:
        U, penalty, final_weight = _solve_with_state_rows(problem, cp, b, fvec)
    U = np.clip(U, LO, HI)  # bounds hold exactly, not just to solver tolerance

    proj = 2.0 * H @ U + b  # the gradient, projected on the active bounds below
    if cp.rows is not None:
        proj = proj + _penalty_grad(cp, fvec, U, final_weight)
    finite = np.abs(np.concatenate([LO[np.isfinite(LO)], HI[np.isfinite(HI)]]))
    atol = 1e-9 * (1.0 + (finite.max() if finite.size else 0.0))
    on_lo = U <= LO + atol
    on_hi = U >= HI - atol
    proj[on_lo & (proj > 0)] = 0.0
    proj[on_hi & (proj < 0)] = 0.0
    return MpcSolution(
        u=U.reshape(P, m), predicted=(fvec + S @ U).reshape(P, n),
        cost=float(U @ H @ U + b @ U + const), kkt_residual=float(np.linalg.norm(proj)),
        active_lower=on_lo.reshape(P, m), active_upper=on_hi.reshape(P, m),
        penalty_cost=penalty,
    )


def _solve_box_qp(H: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Exact box QP: min U^T H U + b^T U s.t. lo <= U <= hi, H PD.

    With H = L L^T the problem is the bounded least-squares
    min || L^T U + L^{-1} b / 2 ||^2, solved by the BVLS active-set method.
    Components pinned by lo == hi are eliminated first.
    """
    import scipy.linalg
    import scipy.optimize
    pinned = lo == hi
    if np.any(pinned):
        U = np.where(pinned, lo, 0.0)
        free = ~pinned
        if np.any(free):
            Hff = H[np.ix_(free, free)]
            bf = b[free] + 2.0 * H[np.ix_(free, pinned)] @ lo[pinned]
            U[free] = _solve_box_qp(Hff, bf, lo[free], hi[free])
        return U
    if not (np.any(np.isfinite(lo)) or np.any(np.isfinite(hi))):
        return np.linalg.solve(2.0 * H, -b)
    L = np.linalg.cholesky(2.0 * H)
    # 0.5 * ||L^T U + L^{-1} b||^2 = U^T H U + b^T U + const
    rhs = scipy.linalg.solve_triangular(L, b, lower=True)
    res = scipy.optimize.lsq_linear(L.T, -rhs, bounds=(lo, hi), method="bvls", tol=1e-14)
    return res.x


def _margin(cp: CondensedProblem, fvec, U) -> np.ndarray:
    """Stacked state-row margins of the predicted states; positive entries violate."""
    return cp.rows @ (fvec + cp.S @ U) - cp.rows_h


def _penalty_grad(cp: CondensedProblem, fvec, U, weight: float) -> np.ndarray:
    """Gradient of the penalty; rows that hold contribute exact zeros, so none is masked."""
    return 2.0 * weight * (cp.rows_S.T @ np.maximum(_margin(cp, fvec, U), 0.0))


def _solve_with_state_rows(problem: MpcProblem, cp: CondensedProblem, b, fvec):
    """Penalty treatment of linear state rows on top of the box QP."""
    import scipy.optimize
    H, lo, hi = cp.H, cp.lo, cp.hi

    def solve_at(weight: float) -> np.ndarray:
        def fun(U):
            viol = np.maximum(_margin(cp, fvec, U), 0.0)
            return U @ H @ U + b @ U + weight * float(viol @ viol)

        def grad(U):
            return 2.0 * H @ U + b + _penalty_grad(cp, fvec, U, weight)

        res = scipy.optimize.minimize(
            fun, np.clip(np.zeros_like(b), lo, hi), jac=grad, method="L-BFGS-B",
            bounds=list(zip(lo, hi)),
            options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12},
        )
        return res.x

    weight = problem.soft_penalty
    U = solve_at(weight)
    for escalations in range(7 if problem.hard_state else 0):  # hard: up to six escalations
        worst = float(np.max(_margin(cp, fvec, U), initial=0.0))
        if worst <= 1e-8:
            break
        if escalations == 6:
            raise InfeasibleStateConstraints(
                f"state rows still violated by {worst:.3e} after penalty escalation"
            )
        weight *= 10.0
        U = solve_at(weight)
    penalty = float(weight * np.sum(np.maximum(_margin(cp, fvec, U), 0.0) ** 2))
    return U, penalty, weight


@dataclass
class ClosedLoopResult:
    """Receding-horizon run: trajectory, applied inputs, per-cycle solves."""

    trajectory: Trajectory
    applied: np.ndarray  # (K, m)
    cycle_costs: np.ndarray  # one entry per solve event
    solutions: list = field(default_factory=list)
    solve_steps: list = field(default_factory=list)
    noise: np.ndarray | None = None

    @property
    def energy(self) -> float:
        return float(np.sum(self.trajectory.states**2))


def run_closed_loop(
    plant: FosModel,
    problem: MpcProblem,
    K: int,
    noise=None,
    *,
    x0=None,
    noise_sigma: float = 1.0,
    dt: float = 1.0,
) -> ClosedLoopResult:
    """Drive the plant for K steps, re-solving every M steps.

    Exactly the first M inputs of each solve are applied before the next
    solve (fewer at the tail of the run); the plant itself is stepped with
    full memory, so the depth-p predictive lift is an approximation of the
    true dynamics.  ``noise`` is a (K, p) array, an integer seed, or None.
    """
    if K < 1:
        raise DomainError("step count K must be >= 1")
    w = _resolve_noise(noise, K, plant.p, noise_sigma)
    x0 = np.zeros(plant.n) if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
    sim = FosSimulator(plant, x0, K)
    condensed = condense(problem, plant)
    applied = np.zeros((K, plant.m))
    solutions, solve_steps = [], []
    k = 0
    while k < K:
        sol = solve_horizon(problem, plant, sim.states, condensed=condensed)
        solutions.append(sol)
        solve_steps.append(k)
        take = min(problem.M, K - k)
        for i in range(take):
            applied[k + i] = sol.u[i]
            sim.step(sol.u[i], w[k + i])
        k += take
    traj = Trajectory(states=sim.states.copy(), inputs=applied, noises=w, dt=dt)
    return ClosedLoopResult(
        trajectory=traj, applied=applied, cycle_costs=np.asarray([s.cost for s in solutions]),
        solutions=solutions, solve_steps=solve_steps, noise=w,
    )


def uncontrolled_baseline(
    plant: FosModel, K: int, noise=None, *, x0=None, noise_sigma: float = 1.0, dt: float = 1.0
) -> Trajectory:
    """Zero-input run on the identical noise sequence, for paired comparison."""
    if K < 1:
        raise DomainError("step count K must be >= 1")
    w = _resolve_noise(noise, K, plant.p, noise_sigma)
    x0 = np.zeros(plant.n) if x0 is None else x0
    return simulate_fos(plant, x0, u=None, w=w, K=K, dt=dt)
