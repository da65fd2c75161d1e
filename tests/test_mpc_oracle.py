"""The once-per-run condensation against per-solve condensation, and the QP solver
against the solvers it replaced.

``reference_solve_horizon`` condenses the lift on every solve, builds the
weight blocks with ``scipy.linalg.block_diag`` on every solve and the QP's
constraint rows and right-hand side on every solve, exactly as the controller
did before ``condense`` cached them, and calls the same QP solver.  The cached
path evaluates the same expressions in the same order, so every output must
agree to the last bit.

``oracle_solve_horizon`` solves the same per-solve condensation with the
solvers the controller used before its one active-set QP: scipy's
bounded-variable least squares on the Cholesky factor for box-only problems
(pinned inputs eliminated, no finite bound solved directly), and an L-BFGS-B
penalty loop for state rows, escalated tenfold up to six times in hard mode.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from fracdyn import FosModel, InfeasibleStateConstraints, MpcProblem, mpc
from fracdyn.model import augment_p
from fracdyn.mpc import _solve_qp
from fracdyn.simulate import FosSimulator, Trajectory, _resolve_noise


# ----------------------------------------------------------------------------
# Reference: per-solve condensation


def _history_lift(model, history, p):
    hist = np.atleast_2d(np.asarray(history, dtype=float))
    z = np.zeros(p * model.n)
    for j in range(min(p, hist.shape[0])):
        z[j * model.n : (j + 1) * model.n] = hist[hist.shape[0] - 1 - j]
    return z


def _weight_seq(W, count, size):
    W = np.asarray(W, dtype=float)
    if W.ndim == 3:
        return [W[j] for j in range(count)]
    if W.ndim == 0:
        return [np.eye(size) * float(W)] * count
    return [W] * count


def _condense(aug, ztil, P):
    n, m, d = aug.n, aug.m, aug.dim
    powers = [np.eye(d)]
    for _ in range(P):
        powers.append(aug.Atil @ powers[-1])
    f = np.empty((P, n))
    S = np.zeros((P * n, P * m))
    EB = [(pw @ aug.Btil)[:n] for pw in powers]
    for j in range(1, P + 1):
        f[j - 1] = (powers[j] @ ztil)[:n]
        for i in range(j):
            S[(j - 1) * n : j * n, i * m : (i + 1) * m] = EB[j - 1 - i]
    return f, S


def _state_rows(problem, n):
    """Stacked state rows over the horizon and their right-hand side (empty without rows)."""
    if problem.state_H is None:
        return np.zeros((0, problem.P * n)), np.zeros(0)
    Hx = np.atleast_2d(np.asarray(problem.state_H, dtype=float))
    hx = np.atleast_1d(np.asarray(problem.state_h, dtype=float))
    return scipy.linalg.block_diag(*([Hx] * problem.P)), np.tile(hx, problem.P)


def _per_solve(problem, model, history):
    """The condensed objective J(U) = U^T H U + b^T U + const of one solve."""
    n, m, P = model.n, model.m, problem.P
    aug = augment_p(model, problem.p)
    f, S = _condense(aug, _history_lift(model, history, problem.p), P)
    Qbar = scipy.linalg.block_diag(*_weight_seq(problem.Q, P, n))
    Rbar = scipy.linalg.block_diag(*_weight_seq(problem.R, P, m))
    fvec = f.reshape(-1)
    cvec = np.zeros(P * n)
    if problem.c is not None:
        carr = np.asarray(problem.c, dtype=float)
        cvec = np.tile(carr, P) if carr.ndim == 1 else carr.reshape(-1)
    H = S.T @ Qbar @ S + Rbar
    b = 2.0 * S.T @ (Qbar @ fvec) + S.T @ cvec
    const = float(fvec @ Qbar @ fvec + cvec @ fvec)
    LO = np.tile(np.broadcast_to(np.asarray(problem.u_lo, dtype=float), (m,)), P)
    HI = np.tile(np.broadcast_to(np.asarray(problem.u_hi, dtype=float), (m,)), P)
    return H, b, const, S, fvec, LO, HI


def reference_solve_horizon(problem, model, history):
    n, m, P = model.n, model.m, problem.P
    H, b, const, S, fvec, LO, HI = _per_solve(problem, model, history)
    rows, rows_h = _state_rows(problem, n)
    rows_S = rows @ S
    k = 0 if problem.hard_state else rows.shape[0]
    # z = [U; one slack per soft row]; rows: pinned inputs (equalities), the other finite
    # upper bounds, the other finite lower bounds, state rows
    eye, pin = np.eye(P * m), LO == HI
    upper, lower = np.isfinite(HI) & ~pin, np.isfinite(LO) & ~pin
    G = np.vstack([eye[pin], eye[upper], -eye[lower], rows_S])
    G = np.hstack([G, np.vstack([np.zeros((G.shape[0] - k, k)), -np.eye(k)])])
    g = np.concatenate([LO[pin], HI[upper], -LO[lower], rows_h - rows @ fvec])
    Hz = scipy.linalg.block_diag(H, problem.soft_penalty * np.eye(k))
    J = np.linalg.inv(np.linalg.cholesky(2.0 * Hz)).T
    z, lam = _solve_qp(J, np.concatenate([b, np.zeros(k)]), G, g, int(pin.sum()))
    U = np.clip(z[: P * m], LO, HI)
    proj = 2.0 * H @ U + b + rows_S.T @ lam[lam.size - rows.shape[0] :]
    finite = np.abs(np.concatenate([LO[np.isfinite(LO)], HI[np.isfinite(HI)]]))
    atol = 1e-9 * (1.0 + (finite.max() if finite.size else 0.0))
    on_lo = U <= LO + atol
    on_hi = U >= HI - atol
    proj[on_lo & (proj > 0)] = 0.0
    proj[on_hi & (proj < 0)] = 0.0
    slack = z[P * m :]
    return mpc.MpcSolution(
        u=U.reshape(P, m), predicted=(fvec + S @ U).reshape(P, n),
        cost=float(U @ H @ U + b @ U + const), kkt_residual=float(np.linalg.norm(proj)),
        active_lower=on_lo.reshape(P, m), active_upper=on_hi.reshape(P, m),
        penalty_cost=float(problem.soft_penalty * (slack @ slack)),
    )


# ----------------------------------------------------------------------------
# Oracle: the solvers the active-set QP replaced


def _bvls_box_qp(H, b, lo, hi):
    """min U^T H U + b^T U s.t. lo <= U <= hi as bounded least squares on H = L L^T."""
    pinned = lo == hi
    if np.any(pinned):
        U = np.where(pinned, lo, 0.0)
        free = ~pinned
        if np.any(free):
            Hff = H[np.ix_(free, free)]
            bf = b[free] + 2.0 * H[np.ix_(free, pinned)] @ lo[pinned]
            U[free] = _bvls_box_qp(Hff, bf, lo[free], hi[free])
        return U
    if not (np.any(np.isfinite(lo)) or np.any(np.isfinite(hi))):
        return np.linalg.solve(2.0 * H, -b)
    L = np.linalg.cholesky(2.0 * H)
    # 0.5 * ||L^T U + L^{-1} b||^2 = U^T H U + b^T U + const
    rhs = scipy.linalg.solve_triangular(L, b, lower=True)
    res = scipy.optimize.lsq_linear(L.T, -rhs, bounds=(lo, hi), method="bvls", tol=1e-14)
    return res.x


def _penalty_solve(problem, H, b, rows_S, rhs, lo, hi):
    """L-BFGS-B on the one-sided quadratic penalty; hard mode escalates the weight."""

    def violation(U):
        return np.maximum(rows_S @ U - rhs, 0.0)

    def solve_at(weight):
        def fun(U):
            viol = violation(U)
            return U @ H @ U + b @ U + weight * float(viol @ viol)

        def grad(U):
            return 2.0 * H @ U + b + 2.0 * weight * (rows_S.T @ violation(U))

        res = scipy.optimize.minimize(
            fun, np.clip(np.zeros_like(b), lo, hi), jac=grad, method="L-BFGS-B",
            bounds=list(zip(lo, hi)),
            options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12},
        )
        return res.x

    weight = problem.soft_penalty
    U = solve_at(weight)
    for escalations in range(7 if problem.hard_state else 0):
        worst = float(np.max(rows_S @ U - rhs, initial=0.0))
        if worst <= 1e-8:
            break
        if escalations == 6:
            raise InfeasibleStateConstraints(f"still violated by {worst:.3e}")
        weight *= 10.0
        U = solve_at(weight)
    return U, float(weight * np.sum(violation(U) ** 2))


def oracle_solve_horizon(problem, model, history):
    """Cost and penalty cost of the replaced solvers on the per-solve condensation."""
    H, b, const, S, fvec, LO, HI = _per_solve(problem, model, history)
    if problem.state_H is None:
        U, penalty = _bvls_box_qp(H, b, LO, HI), 0.0
    else:
        rows, rows_h = _state_rows(problem, model.n)
        U, penalty = _penalty_solve(problem, H, b, rows @ S, rows_h - rows @ fvec, LO, HI)
    U = np.clip(U, LO, HI)
    return float(U @ H @ U + b @ U + const), penalty


def reference_run_closed_loop(plant, problem, K, noise, x0, noise_sigma):
    w = _resolve_noise(noise, K, plant.p, noise_sigma)
    sim = FosSimulator(plant, np.asarray(x0, dtype=float), K)
    applied = np.zeros((K, plant.m))
    costs, k = [], 0
    while k < K:
        sol = reference_solve_horizon(problem, plant, sim.states)
        costs.append(sol.cost)
        take = min(problem.M, K - k)
        for i in range(take):
            applied[k + i] = sol.u[i]
            sim.step(sol.u[i], w[k + i])
        k += take
    return Trajectory(states=sim.states.copy(), inputs=applied, noises=w), np.asarray(costs)


# ----------------------------------------------------------------------------
# Seeded grid


def _plant(rng, n, m):
    A = -0.3 * np.eye(n) + 0.1 * rng.standard_normal((n, n))
    return FosModel(alpha=rng.uniform(0.3, 1.2, n), A=A, B=rng.standard_normal((n, m)),
                    Bw=np.eye(n))


def _schedule(rng, P, size):
    G = rng.standard_normal((P + 1, size, size))
    return G @ G.transpose(0, 2, 1) + 0.1 * np.eye(size)


def _case(name, seed):
    """(plant, problem, history) of one named grid point."""
    rng = np.random.default_rng(seed)
    n, m, p, P, M = 3, 2, 4, 6, 2
    extra = {}
    if name == "pinned":
        extra = dict(u_lo=np.array([-0.3, 0.2]), u_hi=np.array([0.3, 0.2]))
    elif name == "one-sided":
        extra = dict(u_lo=np.array([-0.2, -np.inf]), u_hi=np.inf)
    elif name == "unbounded":
        extra = {}
    elif name == "schedules":
        extra = dict(Q=_schedule(rng, P, n), R=_schedule(rng, P, m),
                     c=rng.standard_normal(n), u_lo=-0.5, u_hi=0.5)
    elif name == "c-stack":
        extra = dict(c=rng.standard_normal((P, n)), u_lo=-1.0, u_hi=1.0)
    elif name == "soft":
        extra = dict(u_lo=-1.0, u_hi=1.0, state_H=[[1.0, 0.0, 0.0], [0.0, -1.0, 0.5]],
                     state_h=[-0.1, 0.0])
    elif name == "hard":
        # the Q weight leaves the first soft solve violating, so the penalty escalates
        extra = dict(Q=100.0 * np.eye(n), u_lo=-5.0, u_hi=5.0, state_H=[[1.0, 0.0, 0.0]],
                     state_h=[-0.3], hard_state=True)
    elif name == "horizons":
        p, P, M = 3, 8, 3
        extra = dict(u_lo=-0.1, u_hi=0.1)
    elif name == "one-state":
        # one state makes each free-response row a strided slice of the lifted response
        n, P = 1, 5
        extra = dict(Q=2.0, c=rng.standard_normal((P, n)), u_lo=-0.3, u_hi=0.3)
    extra.setdefault("Q", np.eye(n))
    extra.setdefault("R", 0.1 * np.eye(m))
    problem = MpcProblem(p=p, P=P, M=M, **extra)
    return _plant(rng, n, m), problem, rng.standard_normal((p + 1, n))


CASES = ("pinned", "one-sided", "unbounded", "schedules", "c-stack", "soft", "hard",
         "horizons", "one-state")


def _assert_same_solution(got, want):
    for key in ("u", "predicted", "active_lower", "active_upper"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key
    for key in ("cost", "kkt_residual", "penalty_cost"):
        assert getattr(got, key) == getattr(want, key), key


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", CASES)
def test_solve_horizon_matches_per_solve_condensation_bitwise(name, seed):
    plant, problem, history = _case(name, seed)
    want = reference_solve_horizon(problem, plant, history)
    condensed = mpc.condense(problem, plant)
    _assert_same_solution(mpc.solve_horizon(problem, plant, history), want)
    _assert_same_solution(mpc.solve_horizon(problem, plant, history, condensed), want)
    # a condensation is read, never written: reusing it gives the same solution
    _assert_same_solution(mpc.solve_horizon(problem, plant, history, condensed), want)


def test_hard_rows_raise_like_per_solve_condensation():
    plant = FosModel(alpha=[0.5], A=[[0.2]], B=[[1.0]], Bw=[[1.0]])
    history = np.array([[0.0], [5.0]])
    impossible = MpcProblem(p=3, P=2, M=1, Q=[[1.0]], R=[[1.0]], u_lo=-0.01, u_hi=0.01,
                            state_H=[[1.0]], state_h=[-1e3], hard_state=True)
    with pytest.raises(InfeasibleStateConstraints):
        reference_solve_horizon(impossible, plant, history)
    with pytest.raises(InfeasibleStateConstraints):
        mpc.solve_horizon(impossible, plant, history, mpc.condense(impossible, plant))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", CASES)
def test_active_set_qp_matches_the_replaced_solvers(name, seed):
    plant, problem, history = _case(name, seed)
    sol = mpc.solve_horizon(problem, plant, history)
    cost_ref, penalty_ref = oracle_solve_horizon(problem, plant, history)
    if problem.state_H is None:
        assert abs(sol.cost - cost_ref) <= 1e-12 * (1.0 + abs(cost_ref))
    elif not problem.hard_state:
        ref = cost_ref + penalty_ref
        assert sol.cost + sol.penalty_cost <= ref + 1e-12 * (1.0 + abs(ref))
    else:
        hx = np.atleast_1d(np.asarray(problem.state_h, dtype=float))
        margins = sol.predicted @ np.atleast_2d(problem.state_H).T - hx
        assert margins.max() <= 1e-12 * (1.0 + np.abs(hx).max())
        assert sol.penalty_cost == 0.0
        # the penalty loop stops once the rows hold to 1e-8, slightly outside them
        assert sol.cost <= cost_ref + 1e-7 * (1.0 + abs(cost_ref))
    assert sol.kkt_residual <= 1e-10 * (1.0 + abs(sol.cost))
    lo = np.broadcast_to(problem.u_lo, (plant.m,))
    hi = np.broadcast_to(problem.u_hi, (plant.m,))
    assert np.all((lo <= sol.u) & (sol.u <= hi))


@pytest.mark.parametrize("name", ("pinned", "schedules", "soft", "hard", "horizons", "one-state"))
def test_run_closed_loop_matches_per_solve_condensation_bitwise(name):
    plant, problem, _ = _case(name, 11)
    x0 = np.linspace(0.5, -0.4, plant.n)
    want_traj, want_costs = reference_run_closed_loop(plant, problem, 7, 5, x0, 0.1)
    res = mpc.run_closed_loop(plant, problem, 7, 5, x0=x0, noise_sigma=0.1)
    assert np.array_equal(res.trajectory.states, want_traj.states)
    assert np.array_equal(res.applied, want_traj.inputs)
    assert np.array_equal(res.cycle_costs, want_costs)


def test_run_closed_loop_condenses_once(monkeypatch):
    plant, problem, _ = _case("horizons", 0)
    K = 10
    lifts, solves = [], []
    augment_p, solve_horizon = mpc.augment_p, mpc.solve_horizon

    def count_lift(*args, **kwargs):
        lifts.append(args)
        return augment_p(*args, **kwargs)

    def count_solve(*args, **kwargs):
        solves.append(args)
        return solve_horizon(*args, **kwargs)

    monkeypatch.setattr(mpc, "augment_p", count_lift)
    monkeypatch.setattr(mpc, "solve_horizon", count_solve)
    mpc.run_closed_loop(plant, problem, K, 3, x0=np.ones(3), noise_sigma=0.1)
    assert len(lifts) == 1
    assert len(solves) == -(-K // problem.M)
    assert all(args[0] is problem for args in solves)
