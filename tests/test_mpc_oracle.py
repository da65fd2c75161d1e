"""The once-per-run condensation against per-solve condensation, bitwise.

``reference_solve_horizon`` condenses the lift on every solve, builds the
weight blocks with ``scipy.linalg.block_diag`` on every solve and the stacked
state rows on every penalty evaluation, exactly as the controller did before
``condense`` cached them.  The cached path evaluates the same expressions in
the same order, so every output must agree to the last bit.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from fracdyn import FosModel, InfeasibleStateConstraints, MpcProblem, mpc
from fracdyn.model import augment_p
from fracdyn.mpc import _solve_box_qp
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


def _violations(problem, S, fvec, U, return_rows=False):
    Hx = np.atleast_2d(np.asarray(problem.state_H, dtype=float))
    hx = np.atleast_1d(np.asarray(problem.state_h, dtype=float))
    big_H = scipy.linalg.block_diag(*([Hx] * problem.P))
    big_h = np.tile(hx, problem.P)
    margin = big_H @ (fvec + S @ U) - big_h
    viol = np.maximum(margin, 0.0)
    if return_rows:
        return viol, (big_H @ S) * (margin > 0)[:, None]
    return viol


def _penalty_value(problem, S, fvec, U, weight):
    return float(weight * np.sum(_violations(problem, S, fvec, U) ** 2))


def _penalty_grad(problem, S, fvec, U, weight):
    viol, rows = _violations(problem, S, fvec, U, return_rows=True)
    return 2.0 * weight * (rows.T @ viol)


def _solve_with_state_rows(problem, H, b, S, fvec, lo, hi):
    def solve_at(weight):
        def fun(U):
            viol = _violations(problem, S, fvec, U)
            return U @ H @ U + b @ U + weight * float(viol @ viol)

        def grad(U):
            return 2.0 * H @ U + b + _penalty_grad(problem, S, fvec, U, weight)

        res = scipy.optimize.minimize(
            fun, np.clip(np.zeros_like(b), lo, hi), jac=grad, method="L-BFGS-B",
            bounds=list(zip(lo, hi)),
            options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12},
        )
        return res.x

    weight = problem.soft_penalty
    U = solve_at(weight)
    if not problem.hard_state:
        return U, _penalty_value(problem, S, fvec, U, weight), weight
    for _ in range(6):
        if float(np.max(_violations(problem, S, fvec, U), initial=0.0)) <= 1e-8:
            return U, _penalty_value(problem, S, fvec, U, weight), weight
        weight *= 10.0
        U = solve_at(weight)
    worst = float(np.max(_violations(problem, S, fvec, U), initial=0.0))
    if worst > 1e-8:
        raise InfeasibleStateConstraints(f"still violated by {worst:.3e}")
    return U, _penalty_value(problem, S, fvec, U, weight), weight


def reference_solve_horizon(problem, model, history):
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
    if problem.state_H is None:
        U = _solve_box_qp(H, b, LO, HI)
        penalty, final_weight = 0.0, 0.0
    else:
        U, penalty, final_weight = _solve_with_state_rows(problem, H, b, S, fvec, LO, HI)
    U = np.clip(U, LO, HI)
    grad = 2.0 * H @ U + b
    if problem.state_H is not None:
        grad = grad + _penalty_grad(problem, S, fvec, U, final_weight)
    proj = grad.copy()
    finite = np.abs(np.concatenate([LO[np.isfinite(LO)], HI[np.isfinite(HI)]]))
    atol = 1e-9 * (1.0 + (finite.max() if finite.size else 0.0))
    on_lo = U <= LO + atol
    on_hi = U >= HI - atol
    proj[on_lo & (proj > 0)] = 0.0
    proj[on_hi & (proj < 0)] = 0.0
    return mpc.MpcSolution(
        u=U.reshape(P, m), predicted=(fvec + S @ U).reshape(P, n),
        cost=float(U @ H @ U + b @ U + const), kkt_residual=float(np.linalg.norm(proj)),
        active_lower=on_lo.reshape(P, m), active_upper=on_hi.reshape(P, m),
        penalty_cost=penalty,
    )


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
