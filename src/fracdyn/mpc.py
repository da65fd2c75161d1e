"""Receding-horizon quadratic control of fractional systems with input boxes.

Certainty equivalence is used throughout: the zero-mean noise is dropped from
the predictions, which leaves the minimizing input stack unchanged for an
expected quadratic cost.  The depth-p lift is condensed once per problem so
predicted states become affine in the stacked inputs; each solve minimizes
the strictly convex quadratic over the box.  One exact dual active-set QP
solver (Goldfarb and Idnani) handles the box and the optional linear state
rows alike: soft rows become slack variables carrying the quadratic penalty,
hard rows are exact constraints whose infeasibility the solver proves.  Each
solve first proposes the active set from the constraint rows' Gram matrix
``W``, built once per problem, with no factorisation per step, then certifies
it with one QR step; a proposal that fails the check falls back to the full
QR iteration from the equalities.
"""

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import _NAMES
from .errors import DimensionError, DomainError, InfeasibleStateConstraints, NonFiniteError
from .fraccore import _array, _count
from .model import FosModel, Trajectory, _as_weight, _weight_block, augment_p
from .simulate import FosSimulator, _resolve_noise, simulate_fos

__all__ = _NAMES["mpc"]

#: Quadratic penalty weight of soft linear state constraints.
SOFT_PENALTY = 1e6


class MpcProblem(namedtuple("MpcProblem", "p P M Q R c u_lo u_hi state_H state_h hard_state")):
    """Horizon problem data: weights, linear cost, box, optional state rows.

    ``P`` is the prediction horizon, ``M`` the control horizon (the prefix of
    inputs actually applied before re-solving), ``p`` the memory depth of the
    predictive lift.  ``Q`` (PSD) and ``R`` (PD) are each a number (that
    multiple of I), a diagonal, a matrix or a per-offset schedule; ``c`` is
    the linear state cost (zero when omitted).  ``state_H @ x <= state_h``
    rows, when given, apply to every predicted state.  ``state_H`` is finite;
    a limit may be +inf, and -inf on hard rows only, since a soft row's slack
    would cost infinitely.
    """

    __slots__ = ()

    def __new__(cls, p, P, M, Q, R, c=None, u_lo=-np.inf, u_hi=np.inf, state_H=None,
                state_h=None, hard_state=False):
        p = _count(p, "model depth p", least=1)
        P = _count(P, "prediction horizon P", least=1)
        M = _count(M, "M", least=-np.inf)
        if not 1 <= M <= P:
            raise DomainError("control horizon M must satisfy 1 <= M <= P")
        Q = _as_weight(Q, "Q", semidefinite=True)
        R = _as_weight(R, "R")
        c = None if c is None else _array(c, "c")
        u_lo = _array(u_lo, "u_lo", finite=False)
        u_hi = _array(u_hi, "u_hi", finite=False)
        if not np.all(u_lo <= u_hi):  # a NaN bound compares false
            raise DomainError("u_lo exceeds u_hi, or a bound is NaN")
        if (state_H is None) != (state_h is None):
            raise DomainError("state_H and state_h must be given together")
        if state_H is not None:
            state_H = _array(state_H, "state_H", (None, None))
            state_h = _array(state_h, "state_h", state_H.shape[:1], finite=False)
            if np.isnan(state_h).any() or not hard_state and (state_h == -np.inf).any():
                raise DomainError("state_h limits must not be NaN, nor -inf on a soft row "
                                  "(its slack would cost infinitely)")
        return super().__new__(cls, p, P, M, Q, R, c, u_lo, u_hi, state_H, state_h,
                               bool(hard_state))


class MpcSolution(NamedTuple):
    """One horizon solve: optimal inputs, predictions, cost, KKT diagnostics."""

    u: np.ndarray  # (P, m)
    predicted: np.ndarray  # (P, n), states k+1 .. k+P
    cost: float
    kkt_residual: float
    active_lower: np.ndarray
    active_upper: np.ndarray
    penalty_cost: float = 0.0


class CondensedProblem(NamedTuple):
    """What every solve of one (problem, model) pair shares: the history-free terms.

    From the lifted history ``ztil``, predicted states are
    ``(powers @ ztil)[:, :n] + S @ U``; ``rows`` stacks the state rows over the
    horizon (none without state constraints).  A solve minimises
    ``1/2 z^T (2 H_z) z + b_z^T z`` subject to ``G z <= g - [0; rows @ fvec]``,
    with ``b_z`` the linear term padded by ``zpad`` and the first ``neq`` rows
    of ``G`` as equalities; ``W = (G J)(G J)^T`` is the rows' Gram matrix
    under ``(2 H_z)^-1``, and ``atol`` the tolerance of the reported bounds.
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
    W: np.ndarray  # (G J)(G J)^T
    neq: int  # pinned inputs, the equality rows at the top of G
    atol: float  # an input this close to a bound is reported on it
    zpad: np.ndarray  # zeros for the slack entries of b_z


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of a (P, r, c) stack of blocks."""
    P, r, c = blocks.shape
    out = np.zeros((P, r, P, c))
    out[np.arange(P), :, np.arange(P), :] = blocks
    return out.reshape(P * r, P * c)


def _lower_block_toeplitz(blocks: np.ndarray) -> np.ndarray:
    """Matrix of a causal block convolution: block (i, j) is ``blocks[i - j]``, zero for i < j."""
    P, r, c = blocks.shape
    i, j = np.tril_indices(P)
    out = np.zeros((P, r, P, c))
    out[i, :, j, :] = blocks[i - j]
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
    # block (r, c) of S is E A^(r-c) B
    S = _lower_block_toeplitz(np.stack([(pw @ aug.Btil)[:n] for pw in powers[:P]]))

    Qbar = _block_diag(np.stack([_weight_block(problem.Q, k, n, "Q") for k in range(P)]))
    Rbar = _block_diag(np.stack([_weight_block(problem.R, k, m, "R") for k in range(P)]))
    cvec, c = np.zeros(P * n), problem.c
    if c is not None:  # one cost for every step, or a (P, n) schedule
        cvec = np.tile(_array(c, "c", (n,)), P) if c.ndim < 2 else _array(c, "c", (P, n)).ravel()
    Hx, hx = np.zeros((0, n)), np.zeros(0)
    if problem.state_H is not None:
        Hx, hx = _array(problem.state_H, "state_H", (None, n)), problem.state_h
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
    J = np.linalg.inv(np.linalg.cholesky(2.0 * Hz)).T
    GJ = G @ J
    finite = np.abs(np.concatenate([lo[np.isfinite(lo)], hi[np.isfinite(hi)]]))
    return CondensedProblem(
        powers=np.stack(powers[1:]), S=S, Qbar=Qbar, H=H, cvec=cvec, lo=lo, hi=hi, rows=rows,
        rows_S=rows_S, J=J, G=G, g=np.concatenate([lo[pin], hi[on_hi], -lo[on_lo], np.tile(hx, P)]),
        W=GJ @ GJ.T, neq=int(np.sum(lo == hi)),
        atol=1e-9 * (1.0 + (finite.max() if finite.size else 0.0)), zpad=np.zeros(k),
    )


def _history_lift(model: FosModel, history, p: int) -> np.ndarray:
    """Stack the last p states, newest first, zero-padding before time 0."""
    hist = _array(history, "history", (None, model.n))
    z = np.zeros(p * model.n)
    recent = hist[::-1][:p].reshape(-1)
    z[: recent.size] = recent
    return z


@np.errstate(over="ignore", invalid="ignore")  # a non-finite cost raises instead
def solve_horizon(
    problem: MpcProblem, model: FosModel, history, condensed: CondensedProblem | None = None
) -> MpcSolution:
    """Solve one horizon from the given state history (rows, oldest first).

    ``condensed`` is ``condense(problem, model)``, built here when omitted;
    pass it in to reuse it across solves.  The QP over the box and the state
    rows is solved exactly.  Soft rows cost ``SOFT_PENALTY`` times their
    squared violation; hard rows hold exactly, or, when no input in the box
    satisfies them, raise InfeasibleStateConstraints.  A cost that is not
    finite (a history near the float64 maximum) raises NonFiniteError.
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
    if not (math.isfinite(const) and np.isfinite(b).all()):
        raise NonFiniteError("horizon cost is not finite from this history")
    k = cp.rows.shape[0]
    g = cp.g.copy()
    g[g.size - k :] -= cp.rows @ fvec
    bz = np.concatenate([b, cp.zpad])
    # G z0 for the unconstrained minimiser z0 = -J J^T b_z
    start = _propose(cp.W, -(cp.G @ (cp.J @ (cp.J.T @ bz))), g, cp.neq)
    z, lam = _solve_qp(cp.J, bz, cp.G, g, cp.neq, start)
    U = np.clip(z[: b.size], LO, HI)  # bounds hold exactly, not just to solver tolerance

    # the gradient of the Lagrangian of the state rows, projected on the active bounds below
    proj = 2.0 * H @ U + b + cp.rows_S.T @ lam[lam.size - k :]
    on_lo = U <= LO + cp.atol
    on_hi = U >= HI - cp.atol
    proj[on_lo & (proj > 0)] = 0.0
    proj[on_hi & (proj < 0)] = 0.0
    cost = float(U @ H @ U + b @ U + const)
    if not math.isfinite(cost):
        raise NonFiniteError("horizon cost is not finite from this history")
    return MpcSolution(
        u=U.reshape(P, m), predicted=(fvec + S @ U).reshape(P, n),
        cost=cost, kkt_residual=float(np.linalg.norm(proj)),
        active_lower=on_lo.reshape(P, m), active_upper=on_hi.reshape(P, m),
        penalty_cost=float(SOFT_PENALTY * (z[b.size :] @ z[b.size :])),
    )


def _propose(W: np.ndarray, s: np.ndarray, g: np.ndarray, neq: int) -> list | None:
    """The active list ``_solve_qp`` would end with, from the range-space form of its rules.

    ``W = (G J)(G J)^T`` and ``s = G z0`` at the unconstrained minimiser.  On
    an active list A with multiplier ``lam_p`` on the row ``p`` being added,
    the multipliers are ``W_AA^-1 (s_A - g_A) - lam_p r`` with
    ``r = W_AA^-1 W_Ap``, and ``G z = s - W_{:,A} lam_A - lam_p W_{:,p}``.
    The same add and drop rules as ``_solve_qp`` run on these.  ``W_AA^-1``,
    ``W_A`` and ``s_A - g_A`` are bordered in place on an add and downdated
    on a drop, so a step makes no factorisation; a row nearly dependent on
    the active ones takes no full step, as in the QR loop.  Returns the
    ordered active list, or None where no step is possible (the QR loop then
    decides whether the rows are infeasible), on non-finite data, or after
    ``8 + 4 * rows`` steps.  Never raises: the list is only a proposal,
    which ``_solve_qp`` checks.
    """
    inv, rows, free_A = map(np.empty, [(g.size + 1, g.size + 1), (g.size + 1, g.size), g.size + 1])
    active, p, lam_p = [], None, 0.0

    def border(e: int, r: np.ndarray, dd: float) -> None:
        q = len(active)
        inv[:q, :q] += (r / dd)[:, None] * r
        inv[:q, q] = inv[q, :q] = -r / dd
        inv[q, q], rows[q], free_A[q] = 1.0 / dd, W[e], free[e]
        active.append(e)

    with np.errstate(all="ignore"):
        free, tol = s - g, 1e-13 * (1.0 + np.abs(g))
        for e in range(neq):  # the equalities are active from the start, in order
            w = rows[: len(active), e].copy()  # W_Ae (W = W^T), contiguous for the dot's rounding
            r = inv[: w.size, : w.size] @ w
            dd = W[e, e] - w @ r
            if not dd > 1e-12 * W[e, e]:
                return None
            border(e, r, dd)
        for _ in range(8 + 4 * g.size):
            q = len(active)
            lam = inv[:q, :q] @ free_A[:q]
            if p is None:
                viol = free - tol - lam @ rows[:q]
                viol[active] = 0.0
                p = int(viol.argmax()) if viol.size else None
                if p is None or viol[p] <= 0.0:
                    return active
                lam_p = 0.0
            w = rows[:q, p].copy()
            r = inv[:q, :q] @ w
            dd = W[p, p] - w @ r
            lam -= lam_p * r
            t2 = (free[p] - lam_p * W[p, p] - w @ lam) / dd if dd > 1e-12 * W[p, p] else np.inf
            pos, t1 = (r[neq:] > 0).nonzero()[0] + neq, np.inf
            if pos.size:  # the ratio test, skipped when no multiplier falls
                ratios = np.maximum(lam[pos], 0.0) / r[pos]
                t1 = ratios.min()
            if not min(t1, t2) < np.inf:
                return None
            lam_p += min(t1, t2)
            if t2 <= t1:
                border(p, r, dd)
                p = None
            else:
                j = int(pos[ratios.argmin()])
                keep = np.delete(np.arange(q), j)
                col = inv[keep, j]
                inv[: q - 1, : q - 1] = inv[np.ix_(keep, keep)] - (col / inv[j, j])[:, None] * col
                rows[j : q - 1], free_A[j : q - 1] = rows[j + 1 : q], free_A[j + 1 : q]
                del active[j]
    return None


def _solve_qp(J: np.ndarray, b: np.ndarray, G: np.ndarray, g: np.ndarray, neq: int,
              start: list | None = None):
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

    ``start``, an ordered active list proposed by ``_propose``, is checked
    by the first step: it is the answer when no row is violated and no
    inequality multiplier is negative.  Otherwise, or without a proposal,
    the iteration starts from the equalities.  On the list the iteration
    would end with, the first step is its last, so z and the multipliers
    are the same bits either way.
    """
    active, p, lam_p = list(range(neq)) if start is None else start, None, 0.0
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
            done = not viol.size or viol.max() <= 0.0
            if start is not None:
                start = None
                if not (done and lam[neq:].min(initial=0.0) >= 0.0):
                    active = list(range(neq))
                    continue
            if done:
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


class ClosedLoopResult(NamedTuple):
    """Receding-horizon run: trajectory, applied inputs, per-cycle solves."""

    trajectory: Trajectory
    applied: np.ndarray  # (K, m)
    cycle_costs: np.ndarray  # one entry per solve event
    solutions: list  # one MpcSolution per solve event
    solve_steps: list  # the step of each solve event
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
    K = _count(K, "step count K", least=1)
    w = _resolve_noise(noise, K, plant.p, noise_sigma, "noise")
    sim = FosSimulator(plant, np.zeros(plant.n) if x0 is None else x0, K)
    condensed = condense(problem, plant)
    applied = np.zeros((K, plant.m))
    solutions, solve_steps = [], []
    k = 0
    while k < K:
        sol = solve_horizon(problem, plant, sim.states[-problem.p :], condensed=condensed)
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
    K = _count(K, "step count K", least=1)
    w = _resolve_noise(noise, K, plant.p, noise_sigma, "noise")
    x0 = np.zeros(plant.n) if x0 is None else x0
    return simulate_fos(plant, x0, u=None, w=w, K=K)
