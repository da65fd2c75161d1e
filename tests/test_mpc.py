import hashlib

import numpy as np
import pytest

from fracdyn import (
    DimensionError,
    DomainError,
    FosModel,
    InfeasibleStateConstraints,
    MpcProblem,
    NonFiniteError,
    NotSPD,
    augment_p,
    condense,
    mpc,
    run_closed_loop,
    simulate_augmented,
    solve_horizon,
    uncontrolled_baseline,
)
from fracdyn.model import aj_series


def scalar_model():
    return FosModel(alpha=[0.5], A=[[0.2]], B=[[1.0]], Bw=[[1.0]])


def test_problem_validation():
    with pytest.raises(DomainError):
        MpcProblem(p=5, P=4, M=5, Q=[[1.0]], R=[[1.0]])
    with pytest.raises(DomainError):
        MpcProblem(p=5, P=4, M=2, Q=[[1.0]], R=[[1.0]], u_lo=1.0, u_hi=-1.0)
    with pytest.raises(NotSPD):
        MpcProblem(p=5, P=4, M=2, Q=[[1.0]], R=[[0.0]])
    with pytest.raises(NotSPD):
        MpcProblem(p=5, P=4, M=2, Q=[[-1.0]], R=[[1.0]])


@pytest.mark.parametrize("numbers, error", [
    (dict(u_lo=np.nan), DomainError), (dict(u_hi=[0.0, np.nan]), DomainError),
    (dict(c=[np.nan]), DomainError), (dict(c=[np.inf]), DomainError),
    (dict(c=[True]), DimensionError), (dict(u_lo=True), DimensionError),
    (dict(u_hi=[1.0, False]), DimensionError), (dict(c="x"), DimensionError),
])
def test_problem_numbers_are_validated_at_construction(numbers, error):
    with pytest.raises(error):
        MpcProblem(p=2, P=4, M=2, Q=1.0, R=1.0, **numbers)


def test_infinite_bounds_and_valid_numbers_keep_their_bits():
    c = np.array([0.1, -3e-7])
    problem = MpcProblem(p=2, P=4, M=2, Q=1.0, R=1.0, c=c.tolist(), u_lo=[-np.inf, -1.5],
                         u_hi=np.inf)
    assert problem.c.tobytes() == c.tobytes()
    assert problem.u_lo.tobytes() == np.array([-np.inf, -1.5]).tobytes()
    assert problem.u_hi == np.inf


@pytest.mark.parametrize("fields, error, name", [
    (dict(state_H=[[1.0, 0.0]], state_h=[np.nan]), DomainError, "state_h"),
    (dict(state_H=[[1.0, 0.0]], state_h=[np.nan], hard_state=True), DomainError, "state_h"),
    (dict(state_H=[[np.nan, 0.0]], state_h=[0.5]), DomainError, "state_H"),
    (dict(state_H=[[1.0, 0.0]], state_h=[-np.inf]), DomainError, "state_h"),
    (dict(state_H=[[True, False]], state_h=[0.5]), DimensionError, "state_H"),
    (dict(state_H=[[1.0, 0.0]], state_h=[False]), DimensionError, "state_h"),
    (dict(state_H=[[1.0, 0.0]], state_h=[0.5, 0.5]), DimensionError, "state_h"),
    (dict(state_H=np.ones((1, 1, 2)), state_h=[0.5]), DimensionError, "state_H"),
    (dict(p=2.5), DomainError, "model depth p"),
    (dict(P=3.5), DomainError, "prediction horizon P"),
    (dict(M=1.0), DomainError, "M"), (dict(p=True), DomainError, "model depth p"),
], ids=lambda v: v.split()[-1] if isinstance(v, str) else None)  # ids end in the field's name
def test_horizons_and_state_rows_are_validated_at_construction(fields, error, name):
    with pytest.raises(error, match=rf"^{name} "):
        MpcProblem(**(dict(p=2, P=3, M=1, Q=1.0, R=1.0) | fields))


def test_open_and_hard_infinite_state_limits_stay_legal():
    plant = FosModel(alpha=[0.5, 0.7], A=-0.2 * np.eye(2), B=[[1.0], [0.5]])
    history = np.ones((2, 2))
    H = np.array([[1.0, 0.0], [0.0, 1.0]])
    open_row = MpcProblem(p=2, P=3, M=1, Q=1.0, R=1.0, u_lo=-1.0, u_hi=1.0,
                          state_H=H.tolist(), state_h=[np.inf, 0.5])
    assert open_row.state_H.tobytes() == H.tobytes()
    assert np.isfinite(solve_horizon(open_row, plant, history).u).all()
    hard = MpcProblem(p=2, P=3, M=1, Q=1.0, R=1.0, u_lo=-1.0, u_hi=1.0,
                      state_H=H, state_h=[-np.inf, 0.5], hard_state=True)
    with pytest.raises(InfeasibleStateConstraints):
        solve_horizon(hard, plant, history)


def test_model_without_inputs_is_rejected():
    m = FosModel(alpha=[0.5], A=[[0.2]])  # no input channels
    from fracdyn import DimensionError

    with pytest.raises(DimensionError):
        solve_horizon(MpcProblem(p=3, P=4, M=2, Q=[[1.0]], R=[[1.0]]),
                      m, np.zeros((3, 1)))


@pytest.mark.parametrize("weights, message", [
    (dict(Q=[1.0, 2.0], R=1.0), "Q must have 3x3 blocks"),
    (dict(Q=np.ones((2, 3, 3)), R=1.0), "Q must cover step 2"),
    (dict(Q=1.0, R=np.eye(2)), "R must have 1x1 blocks"),
])
def test_weight_blocks_must_match_the_model(weights, message):
    plant = FosModel(alpha=[0.5, 0.6, 0.7], A=-0.2 * np.eye(3), B=np.ones((3, 1)))
    problem = MpcProblem(p=2, P=4, M=1, **weights)
    with pytest.raises(DimensionError, match=message):
        condense(problem, plant)
    with pytest.raises(DimensionError, match=message):
        solve_horizon(problem, plant, np.zeros((2, 3)))


def test_zero_state_zero_cost():
    sol = solve_horizon(MpcProblem(p=4, P=6, M=2, Q=[[1.0]], R=[[1.0]],
                                   u_lo=-1.0, u_hi=1.0),
                        scalar_model(), np.zeros((4, 1)))
    assert np.abs(sol.u).max() == 0.0
    assert sol.cost == 0.0


def test_one_step_unconstrained_closed_form():
    m = scalar_model()
    prob = MpcProblem(p=3, P=1, M=1, Q=[[2.0]], R=[[0.5]])
    history = np.array([[0.3], [1.0]])  # x[k-1], x[k]
    sol = solve_horizon(prob, m, history)
    blocks = aj_series(m, 2)
    free = blocks[0][0, 0] * 1.0 + blocks[1][0, 0] * 0.3
    expect = -(2.0 / (2.0 + 0.5)) * free
    assert abs(sol.u[0, 0] - expect) <= 1e-10
    assert sol.kkt_residual <= 1e-8 * (1.0 + abs(2.0 * 2.0 * free))


def test_one_step_clipped_at_bound():
    m = scalar_model()
    history = np.array([[0.3], [1.0]])
    # unconstrained optimum is about -0.59; a tight box clips it
    prob = MpcProblem(p=3, P=1, M=1, Q=[[2.0]], R=[[0.5]], u_lo=-0.1, u_hi=0.1)
    sol = solve_horizon(prob, m, history)
    assert sol.u[0, 0] == pytest.approx(-0.1, abs=1e-15)
    assert bool(sol.active_lower[0, 0])


def test_condensed_predictions_match_augmented_simulation():
    rng = np.random.default_rng(17)
    m = FosModel(alpha=[0.6, 0.9], A=0.3 * rng.normal(size=(2, 2)),
                 B=rng.normal(size=(2, 1)))
    prob = MpcProblem(p=4, P=6, M=3, Q=np.eye(2), R=[[1.0]], u_lo=-2.0, u_hi=2.0)
    history = rng.normal(size=(4, 2))
    sol = solve_horizon(prob, m, history)
    aug = augment_p(m, 4)
    z0 = np.concatenate([history[-1 - j] for j in range(4)])
    lifted = simulate_augmented(aug, z0, u=sol.u, K=6)
    np.testing.assert_allclose(sol.predicted, lifted.states[1:], atol=1e-10)


def test_feasible_zero_dominance_and_kkt():
    rng = np.random.default_rng(23)
    m = scalar_model()
    prob = MpcProblem(p=5, P=8, M=4, Q=[[1.5]], R=[[0.3]], u_lo=-0.5, u_hi=0.5)
    condensed = condense(prob, m)
    for _ in range(20):
        history = rng.normal(size=(5, 1))
        sol = solve_horizon(prob, m, history, condensed=condensed)
        # cost of doing nothing, via the condensed objective with u = 0
        zero = solve_horizon(
            MpcProblem(p=5, P=8, M=4, Q=[[1.5]], R=[[0.3]], u_lo=0.0, u_hi=0.0),
            m, history)
        assert sol.cost <= zero.cost + 1e-12
        assert sol.kkt_residual <= 1e-8 * (1.0 + np.linalg.norm(2.0 * sol.u.ravel()) + 1e3)


def test_receding_horizon_bookkeeping():
    m = scalar_model()
    prob = MpcProblem(p=4, P=6, M=4, Q=[[1.0]], R=[[1.0]], u_lo=-1.0, u_hi=1.0)
    K = 10
    res = run_closed_loop(m, prob, K, noise=5, x0=[1.0], noise_sigma=0.1)
    assert len(res.cycle_costs) == -(-K // prob.M)  # ceil(K/M)
    # applied inputs replicate the solution prefixes bitwise
    k = 0
    for sol, start in zip(res.solutions, res.solve_steps):
        take = min(prob.M, K - start)
        assert np.array_equal(res.applied[start : start + take], sol.u[:take])
        k = start + take
    assert k == K


def test_each_closed_loop_solve_reads_only_the_last_p_states(monkeypatch):
    # the lift reads p rows, so a solve handed the whole run would check O(k) rows
    histories = []
    real = mpc.solve_horizon

    def spy(problem, model, history, condensed=None):
        histories.append(np.array(history))
        return real(problem, model, history, condensed=condensed)

    monkeypatch.setattr(mpc, "solve_horizon", spy)
    prob = MpcProblem(p=3, P=6, M=2, Q=[[1.0]], R=[[1.0]], u_lo=-1.0, u_hi=1.0)
    res = run_closed_loop(scalar_model(), prob, 12, noise=9, x0=[1.0], noise_sigma=0.2)
    assert len(histories) == len(res.solve_steps) == 6
    for history, k in zip(histories, res.solve_steps):
        assert len(history) == min(k + 1, prob.p)
        assert np.array_equal(history, res.trajectory.states[k + 1 - len(history) : k + 1])


def test_baseline_consumes_identical_noise():
    m = scalar_model()
    prob = MpcProblem(p=4, P=6, M=2, Q=[[1.0]], R=[[1.0]], u_lo=-1.0, u_hi=1.0)
    res = run_closed_loop(m, prob, 12, noise=9, x0=[1.0], noise_sigma=0.2)
    base = uncontrolled_baseline(m, 12, noise=9, x0=[1.0], noise_sigma=0.2)
    h1 = hashlib.sha256(res.noise.tobytes()).hexdigest()
    h2 = hashlib.sha256(base.noises.tobytes()).hexdigest()
    assert h1 == h2


def test_baseline_zero_noise_zero_state():
    base = uncontrolled_baseline(scalar_model(), 10, noise=None, x0=[0.0])
    assert np.abs(base.states).max() == 0.0


def test_closed_loop_from_origin_stays_at_origin():
    prob = MpcProblem(p=4, P=6, M=2, Q=[[1.0]], R=[[1.0]], u_lo=-1.0, u_hi=1.0)
    res = run_closed_loop(scalar_model(), prob, 12, noise=None, x0=[0.0])
    assert np.abs(res.trajectory.states).max() == 0.0
    assert np.abs(res.applied).max() == 0.0


def test_soft_state_constraints_pull_toward_feasibility():
    m = scalar_model()
    history = np.array([[0.0], [2.0]])
    free = MpcProblem(p=3, P=3, M=1, Q=[[0.0]], R=[[1e-6]], u_lo=-10.0, u_hi=10.0)
    # require x <= 0.2 on every predicted state; unconstrained run violates it
    constrained = MpcProblem(p=3, P=3, M=1, Q=[[0.0]], R=[[1e-6]],
                             u_lo=-10.0, u_hi=10.0,
                             state_H=[[1.0]], state_h=[0.2])
    sol_free = solve_horizon(free, m, history)
    sol_con = solve_horizon(constrained, m, history)
    assert sol_free.predicted.max() > 0.2
    assert sol_con.predicted.max() <= 0.2 + 1e-3


def test_hard_state_constraints_infeasible_raises():
    m = scalar_model()
    history = np.array([[0.0], [5.0]])
    # x[k+1] >= free - 0.01*10 can never hit -1e3 with |u| <= 0.01
    impossible = MpcProblem(p=3, P=2, M=1, Q=[[1.0]], R=[[1.0]],
                            u_lo=-0.01, u_hi=0.01,
                            state_H=[[1.0]], state_h=[-1e3],
                            hard_state=True)
    with pytest.raises(InfeasibleStateConstraints):
        solve_horizon(impossible, m, history)


def test_closed_loop_suppresses_energy_on_seizure_surrogate():
    plant = FosModel(alpha=[1.4881], A=[[-0.0054]], B=[[1.0]], Bw=[[0.1]])
    prob = MpcProblem(p=15, P=20, M=10, Q=[[1.0]], R=[[1.0]], u_lo=-5.0, u_hi=5.0)
    res = run_closed_loop(plant, prob, 120, noise=42, x0=[1.0])
    base = uncontrolled_baseline(plant, 120, noise=42, x0=[1.0])
    assert res.energy < float(np.sum(base.states**2))
    assert np.abs(res.applied).max() <= 5.0 + 1e-12


@pytest.mark.parametrize("hard", [False, True])
def test_binding_state_rows_solve_exactly(hard):
    plant = FosModel(alpha=[0.61, 0.87, 0.39],
                     A=[[-0.37, 0.05, 0.02], [-0.03, -0.27, 0.02], [0.01, 0.0, -0.27]],
                     B=[[-0.84, 0.51], [-0.55, -0.74], [0.05, 0.43]], Bw=np.eye(3))
    h = 0.3
    prob = MpcProblem(p=20, P=20, M=1, Q=1.0, R=0.1, u_lo=-0.1, u_hi=0.1,
                      state_H=[[1.0, 0.0, 0.0]], state_h=[h], hard_state=hard)
    condensed = condense(prob, plant)
    rng = np.random.default_rng(3)
    for _ in range(10):
        history = 0.3 * rng.standard_normal((20, 3)) + [0.5, 0.0, 0.0]
        sol = solve_horizon(prob, plant, history, condensed=condensed)
        assert sol.kkt_residual <= 1e-10 * (1.0 + abs(sol.cost))
        if hard:
            assert sol.predicted[:, 0].max() - h <= 1e-12 * (1.0 + h)


def test_pinned_input_under_far_violated_soft_rows():
    # soft rows always admit a solution; with row multipliers near 1e5 the two bounds of a
    # pinned input must not read as contradictory rows
    for seed in range(20):
        rng = np.random.default_rng(seed)
        plant = FosModel(alpha=rng.uniform(0.3, 1.3, 3),
                         A=-0.3 * np.eye(3) + 0.2 * rng.standard_normal((3, 3)),
                         B=rng.standard_normal((3, 2)), Bw=np.eye(3))
        prob = MpcProblem(p=2, P=7, M=1, Q=0.0, R=1e-4, u_lo=[-1.0, 0.2], u_hi=[0.1, 0.2],
                          state_H=rng.standard_normal((2, 3)), state_h=[0.2, 0.2])
        sol = solve_horizon(prob, plant, 5.0 * rng.standard_normal((3, 3)))
        assert np.all(sol.u[:, 1] == 0.2)
        assert sol.kkt_residual <= 1e-8 * (1.0 + abs(sol.cost) + sol.penalty_cost)


def test_a_cost_that_overflows_after_the_solve_raises():
    # the free cost Q f^2 is finite at f = 0.7 * 1.5e154, but b^T U, about -2 Q f^2, is not
    prob = MpcProblem(p=2, P=1, M=1, Q=1.0, R=1e-9)
    with pytest.raises(NonFiniteError, match="^horizon cost is not finite from this history$"):
        solve_horizon(prob, scalar_model(), [[1.5e154]])
    assert np.isfinite(solve_horizon(prob, scalar_model(), [[1.2e154]]).cost)


def test_a_proposal_that_cycles_on_a_repeated_soft_row_stops_at_its_step_budget(monkeypatch):
    # the two copies of the last step's soft row take turns in the proposed active list.  Soft
    # rows always admit a solution, nothing is pinned and the data are finite, so None here
    # is the step budget; the QR loop then solves from the start, to its usual residual
    prob = MpcProblem(p=2, P=3, M=3, Q=1.0, R=0.72, u_lo=-1.0, u_hi=1.0,
                      state_H=[[1.0], [1.0]], state_h=[0.0, 0.0])
    model = FosModel(alpha=[0.5], A=[[0.09]], B=[[1.0]])
    proposals, propose = [], mpc._propose
    monkeypatch.setattr(mpc, "_propose", lambda *args: proposals.append(propose(*args)))
    sol = solve_horizon(prob, model, [[0.6]])
    assert proposals == [None]
    assert sol.kkt_residual <= 1e-10 * (1.0 + abs(sol.cost) + sol.penalty_cost)
