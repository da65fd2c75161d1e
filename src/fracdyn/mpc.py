"""Receding-horizon quadratic control of fractional systems with input boxes.

Certainty equivalence is used throughout: the zero-mean noise is dropped from
the predictions, which leaves the minimizing input stack unchanged for an
expected quadratic cost.  The depth-p lift is condensed once per problem so
predicted states become affine in the stacked inputs; each solve minimizes
the strictly convex quadratic over the box.  One exact dual active-set QP
solver (Goldfarb and Idnani) handles the box and the optional linear state
rows alike: soft rows become slack variables carrying the quadratic penalty,
hard rows are exact constraints whose infeasibility the solver proves.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, InfeasibleStateConstraints
from .model import FosModel, _as_weight, _weight_block, augment_p
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

#: Quadratic penalty weight of soft linear state constraints.
SOFT_PENALTY = 1e6


@dataclass(frozen=True)
class MpcProblem:
    """Horizon problem data: weights, linear cost, box, optional state rows.

    ``P`` is the prediction horizon, ``M`` the control horizon (the prefix of
    inputs actually applied before re-solving), ``p`` the memory depth of the
    predictive lift.  ``Q`` (PSD) and ``R`` (PD) are each a number (that
    multiple of I), a diagonal, a matrix or a per-offset schedule; ``c`` is
    the linear state cost (zero when omitted).  ``state_H @ x <= state_h``
    rows, when given, apply to every predicted state.
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
    hard_state: bool = False

    def __post_init__(self):
        if self.p < 1:
            raise DomainError("model depth p must be >= 1")
        if self.P < 1:
            raise DomainError("prediction horizon P must be >= 1")
        if not 1 <= self.M <= self.P:
            raise DomainError("control horizon M must satisfy 1 <= M <= P")
        object.__setattr__(self, "Q", _as_weight(self.Q, "Q", semidefinite=True))
        object.__setattr__(self, "R", _as_weight(self.R, "R"))
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
    ``(powers @ ztil)[:, :n] + S @ U``; ``rows`` stacks the state rows over the
    horizon (none without state constraints).  A solve minimises
    ``1/2 z^T (2 H_z) z + b_z^T z`` subject to ``G z <= g - [0; rows @ fvec]``.
    """

    powers: np.ndarray  # (P, d, d): A^1 .. A^P of the lift
    S: np.ndarray  # (P*n, P*m)
    Qbar: np.ndarray  # (P*n, P*n)
    H: np.ndarray  # (P*m, P*m)
    cvec: np.ndarray  # (P*n,)
    lo: np.ndarray  # (P*m,)
    hi: np.ndarray  # (P*m,)
    rows: np.ndarray  # (P*r, P*n)
    rows_S: np.ndarray  # rows @ S
    J: np.ndarray  # L^-T for L L^T = 2 H_z, H_z = diag(H, SOFT_PENALTY * I) with soft rows
    G: np.ndarray  # pinned inputs (equalities), other finite upper, lower bounds, state rows
    g: np.ndarray  # the right-hand side of G without the free response


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of a (P, r, c) stack of blocks."""
    P, r, c = blocks.shape
    out = np.zeros((P, r, P, c))
    out[np.arange(P), :, np.arange(P), :] = blocks
    return out.reshape(P * r, P * c)


def condense(problem: MpcProblem, model: FosModel) -> CondensedProblem:
    """Condense the depth-p lift of ``model`` over the horizon of ``problem``, once.

    Raises DimensionError when the model has no inputs, or when a weight
    block, the linear cost or the state rows do not match the model.
    """
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

    Qbar = _block_diag(np.stack([_weight_block(problem.Q, k, n, "Q") for k in range(P)]))
    Rbar = _block_diag(np.stack([_weight_block(problem.R, k, m, "R") for k in range(P)]))
    cvec = np.zeros(P * n)
    if problem.c is not None:
        cvec = np.tile(problem.c, P) if problem.c.ndim == 1 else problem.c.reshape(-1)
        if cvec.shape != (P * n,):
            raise DimensionError("linear state cost has the wrong length")

    Hx, hx = np.zeros((0, n)), np.zeros(0)
    if problem.state_H is not None:
        Hx = np.atleast_2d(np.asarray(problem.state_H, dtype=float))
        hx = np.atleast_1d(np.asarray(problem.state_h, dtype=float))
        if Hx.shape[1] != n or hx.shape != (Hx.shape[0],):
            raise DimensionError("state constraint rows do not match the state dimension")
    rows = _block_diag(np.broadcast_to(Hx, (P,) + Hx.shape))
    rows_S = rows @ S
    H = S.T @ Qbar @ S + Rbar
    lo = np.tile(np.broadcast_to(problem.u_lo, (m,)), P)
    hi = np.tile(np.broadcast_to(problem.u_hi, (m,)), P)
    # the QP over z = [U; a slack per soft row]: equality rows for the pinned inputs, the other
    # finite upper and lower bounds, then rows_S U - slack <= rows_h - rows @ fvec
    nU, k = P * m, 0 if problem.hard_state else rows.shape[0]
    eye, pin = np.eye(nU), lo == hi
    on_hi, on_lo = np.isfinite(hi) & ~pin, np.isfinite(lo) & ~pin
    G = np.vstack([eye[pin], eye[on_hi], -eye[on_lo], rows_S])
    G = np.hstack([G, np.vstack([np.zeros((G.shape[0] - k, k)), -np.eye(k)])])
    Hz = np.diag(np.concatenate([np.zeros(nU), np.full(k, SOFT_PENALTY)]))
    Hz[:nU, :nU] = H
    return CondensedProblem(
        powers=np.stack(powers[1:]), S=S, Qbar=Qbar, H=H, cvec=cvec, lo=lo, hi=hi, rows=rows,
        rows_S=rows_S, J=np.linalg.inv(np.linalg.cholesky(2.0 * Hz)).T, G=G,
        g=np.concatenate([lo[pin], hi[on_hi], -lo[on_lo], np.tile(hx, P)]),
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
    pass it in to reuse it across solves.  The QP over the box and the state
    rows is solved exactly.  Soft rows cost ``SOFT_PENALTY`` times their
    squared violation; hard rows hold exactly, or, when no input in the box
    satisfies them, raise InfeasibleStateConstraints.
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
    k = cp.rows.shape[0]
    g = cp.g.copy()
    g[g.size - k :] -= cp.rows @ fvec
    z, lam = _solve_qp(cp.J, np.concatenate([b, np.zeros(cp.J.shape[0] - b.size)]), cp.G, g,
                       int(np.sum(LO == HI)))
    U = np.clip(z[: b.size], LO, HI)  # bounds hold exactly, not just to solver tolerance

    # the gradient of the Lagrangian of the state rows, projected on the active bounds below
    proj = 2.0 * H @ U + b + cp.rows_S.T @ lam[lam.size - k :]
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
        penalty_cost=float(SOFT_PENALTY * (z[b.size :] @ z[b.size :])),
    )


def _solve_qp(J: np.ndarray, b: np.ndarray, G: np.ndarray, g: np.ndarray, neq: int):
    """Dual active-set QP of Goldfarb and Idnani (Math. Program. 27, 1983).

    Minimises ``1/2 z^T D z + b^T z`` subject to ``G z <= g``, the first
    ``neq`` rows as equalities, where ``J = L^-T`` and ``L L^T = D``.  From
    the minimiser on the equalities it takes the most violated row ``p`` and
    raises its multiplier until the row holds, first dropping any active
    inequality whose multiplier would turn negative.  Each step factors
    ``J^T N`` of the active normals ``N`` by QR and solves afresh for z and
    the active multipliers, ``p`` weighted by its multiplier so far, so
    rounding does not build up.  Returns z and the multipliers of all rows;
    a violated row no dual step can reach proves the rows infeasible.
    """
    active, p, lam_p = list(range(neq)), None, 0.0
    tol = 1e-13 * (1.0 + np.abs(g))
    while True:
        q = len(active)
        Q, R = np.linalg.qr(J.T @ G[active].T, mode="complete")
        c = Q.T @ (J.T @ (b if p is None else b + lam_p * G[p]))
        w = np.linalg.solve(R[:q].T, g[active])
        z = J @ (Q[:, :q] @ w - Q[:, q:] @ c[q:])
        lam = -np.linalg.solve(R[:q], c[:q] + w)
        if p is None:
            viol = G @ z - g - tol
            viol[active] = 0.0
            if not viol.size or viol.max() <= 0.0:
                lam_all = np.zeros(g.size)
                lam_all[active] = lam
                return z, lam_all
            p, lam_p = int(np.argmax(viol)), 0.0
        d = Q.T @ (J.T @ G[p])
        r = np.linalg.solve(R[:q], d[:q])  # per unit of lam_p the active multipliers fall by r
        dd = d[q:] @ d[q:]  # and G[p] @ z by dd
        t2 = (G[p] @ z - g[p]) / dd if dd > 1e-20 * (d @ d) else np.inf
        pos = neq + np.flatnonzero(r[neq:] > 0)
        ratios = np.maximum(lam[pos], 0.0) / r[pos]
        t1 = ratios.min(initial=np.inf)
        if t1 == t2 == np.inf:
            raise InfeasibleStateConstraints(
                f"hard state rows admit no input inside the box (row {p} of G)")
        lam_p += min(t1, t2)
        if t2 <= t1:
            active.append(p)
            p = None
        else:
            del active[pos[np.argmin(ratios)]]


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
    traj = Trajectory(states=sim.states.copy(), inputs=applied, noises=w)
    return ClosedLoopResult(
        trajectory=traj, applied=applied, cycle_costs=np.asarray([s.cost for s in solutions]),
        solutions=solutions, solve_steps=solve_steps, noise=w,
    )


def uncontrolled_baseline(
    plant: FosModel, K: int, noise=None, *, x0=None, noise_sigma: float = 1.0
) -> Trajectory:
    """Zero-input run on the identical noise sequence, for paired comparison."""
    if K < 1:
        raise DomainError("step count K must be >= 1")
    w = _resolve_noise(noise, K, plant.p, noise_sigma)
    x0 = np.zeros(plant.n) if x0 is None else x0
    return simulate_fos(plant, x0, u=None, w=w, K=K)
