"""The proposed-then-certified QP solve against the cold-start QR solver.

``solve_horizon`` asks ``mpc._propose`` for the active list from the rows'
Gram matrix and lets ``mpc._solve_qp`` certify it with one QR step.
``qp_oracle.solve_qp`` is the solver as it was before: it starts every solve
from the equalities and factors on every step.  On the list the cold start
ends with, the certificate step evaluates the same expressions, so every
output must agree bit for bit, and every feasible solve must make exactly
one QR factorisation.  A wrong proposal must still give the oracle's bits,
through the restart, and infeasible hard rows must raise its error.
"""

import warnings

import numpy as np
import pytest

import qp_oracle
from fracdyn import FosModel, InfeasibleStateConstraints, MpcProblem, mpc
from fracdyn.analysis import augmented_spectral_radius
from test_mpc_oracle import CASES, _assert_same_solution, _case


@pytest.fixture
def qr_calls(monkeypatch):
    """A list that grows by one on every ``np.linalg.qr`` call."""
    calls, real = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def _cold(J, b, G, g, neq, start=None):
    return qp_oracle.solve_qp(J, b, G, g, neq)


def outcome(monkeypatch, cold: bool, fn, *args, **kwargs):
    """``fn``'s result, or its exception's type and message; the oracle QP when ``cold``."""
    with monkeypatch.context() as patch:
        if cold:
            patch.setattr(mpc, "_solve_qp", _cold)
        try:
            return fn(*args, **kwargs)
        except InfeasibleStateConstraints as exc:
            return type(exc), str(exc)


def assert_same_outcome(got, want):
    # a solution is a named tuple too, so tell the (type, message) outcome by its class
    if not isinstance(want, mpc.MpcSolution):
        assert got == want
    else:
        _assert_same_solution(got, want)


def histories(name, seed):
    """The grid point's own history, then random ones at scales 0.1, 1 and 10."""
    plant, problem, history = _case(name, seed)
    rng = np.random.default_rng([seed, 7])
    return plant, problem, [history] + [scale * rng.standard_normal(history.shape)
                                        for scale in (0.1, 1.0, 10.0)]


@pytest.mark.parametrize("name", CASES)
def test_certified_proposal_matches_the_cold_start_bitwise(name, monkeypatch, qr_calls):
    feasible = 0
    for seed in range(40):
        plant, problem, hists = histories(name, seed)
        cp = mpc.condense(problem, plant)
        for history in hists:
            before = len(qr_calls)
            got = outcome(monkeypatch, False, mpc.solve_horizon, problem, plant, history, cp)
            factorisations = len(qr_calls) - before
            want = outcome(monkeypatch, True, mpc.solve_horizon, problem, plant, history, cp)
            assert_same_outcome(got, want)
            if isinstance(want, mpc.MpcSolution):
                assert factorisations == 1, (seed, factorisations)
                feasible += 1
    assert feasible == 160 or name == "hard"
    assert feasible > 0


def _tight_plant(rng, n=3, m=2, depth=20):
    """A plant drawn as the mpc-tight benchmark draws it: contracting lift, orthonormal B."""
    while True:
        alpha = rng.uniform(0.3, 0.9, n)
        A = -0.3 * np.eye(n) + 0.05 * rng.standard_normal((n, n))
        B = np.linalg.qr(rng.standard_normal((n, m)))[0]
        plant = FosModel(alpha=alpha, A=A, B=B, Bw=np.eye(n))
        if augmented_spectral_radius(plant, depth) < 1.0:
            return plant


def test_tight_box_closed_loop_matches_the_cold_start_bitwise(monkeypatch, qr_calls):
    rng = np.random.default_rng(5)
    plant = _tight_plant(rng)
    problem = MpcProblem(p=20, P=20, M=1, Q=1.0, R=0.1, u_lo=-0.05, u_hi=0.05)
    args = (plant, problem, 500, 11)
    kwargs = dict(x0=rng.standard_normal(3), noise_sigma=0.5)
    before = len(qr_calls)
    got = mpc.run_closed_loop(*args, **kwargs)
    assert len(qr_calls) - before == len(got.solutions) == 500
    want = outcome(monkeypatch, True, mpc.run_closed_loop, *args, **kwargs)
    assert np.array_equal(got.trajectory.states, want.trajectory.states)
    assert np.array_equal(got.applied, want.applied)
    assert np.array_equal(got.cycle_costs, want.cycle_costs)
    for sol, ref in zip(got.solutions, want.solutions):
        _assert_same_solution(sol, ref)
    # the box binds on most applied moves, so the proposal has real work to do
    share = np.mean([(s.active_lower[0] | s.active_upper[0]).mean() for s in got.solutions])
    assert share > 0.5


@pytest.mark.parametrize("name", ("pinned", "one-sided", "schedules", "horizons", "soft"))
def test_a_wrong_proposal_restarts_to_the_cold_start_bits(name, monkeypatch, qr_calls):
    rejected = 0
    for seed in range(10):
        plant, problem, history = _case(name, seed)
        cp = mpc.condense(problem, plant)
        solved = []
        with monkeypatch.context() as patch:
            patch.setattr(mpc, "_solve_qp",
                          lambda *args: solved.append(_cold(*args)) or solved[-1])
            want = mpc.solve_horizon(problem, plant, history, cp)
        lam = solved[0][1][cp.neq :]
        finite = np.isfinite(cp.hi) & (cp.lo != cp.hi), np.isfinite(cp.lo) & (cp.lo != cp.hi)
        side = int(finite[0].sum() or finite[1].sum())
        # the equalities alone leave a row violated when an inequality carries a multiplier;
        # every finite bound on one side (upper, or else lower) violates nothing, but where
        # one of them carries none at the optimum, some hold their inputs with a negative one
        wrong_lists = {"equalities": (list(range(cp.neq)), bool(lam.any())),
                       "one side": (list(range(cp.neq + side)),
                                    side > 0 and not (lam[:side] > 0).all())}
        for wrong, known in wrong_lists.values():
            monkeypatch.setattr(mpc, "_propose", lambda W, s, g, neq, wrong=wrong: list(wrong))
            before = len(qr_calls)
            _assert_same_solution(mpc.solve_horizon(problem, plant, history, cp), want)
            if known:
                assert len(qr_calls) - before > 1
                rejected += 1
    assert rejected >= 10


def _impossible():
    plant = FosModel(alpha=[0.5], A=[[0.2]], B=[[1.0]], Bw=[[1.0]])
    problem = MpcProblem(p=3, P=2, M=1, Q=[[1.0]], R=[[1.0]], u_lo=-0.01, u_hi=0.01,
                         state_H=[[1.0]], state_h=[-1e3], hard_state=True)
    return plant, problem, np.array([[0.0], [5.0]])


@pytest.mark.parametrize("proposal", ("own", "none", "equalities", "box"))
def test_infeasible_hard_rows_raise_the_cold_start_error(proposal, monkeypatch):
    plant, problem, history = _impossible()
    cp = mpc.condense(problem, plant)
    want = outcome(monkeypatch, True, mpc.solve_horizon, problem, plant, history, cp)
    assert want[0] is InfeasibleStateConstraints
    assert want[1].startswith("hard state rows admit no input inside the box (row ")
    if proposal != "own":
        fixed = {"none": None, "equalities": [], "box": [0, 1]}[proposal]
        monkeypatch.setattr(mpc, "_propose", lambda W, s, g, neq: fixed)
    assert outcome(monkeypatch, False, mpc.solve_horizon, problem, plant, history, cp) == want


def _proposal_inputs(rng):
    """A (W, s, g, neq) that is often singular, indefinite, non-finite or empty."""
    rows = int(rng.integers(0, 9))
    B = rng.standard_normal((rows, int(rng.integers(1, 6))))
    kind = rng.integers(5)
    if kind == 0:
        W = B @ B.T  # rank-deficient once rows exceed the columns
    elif kind == 1:
        W = rng.standard_normal((rows, rows))  # neither symmetric nor definite
    elif kind == 2:
        W = np.zeros((rows, rows))
    else:
        C = rng.standard_normal((rows, rows))
        W = C @ C.T * 10.0 ** rng.uniform(-300, 300)
    s = rng.standard_normal(rows) * 10.0 ** rng.uniform(-5, 300)
    g = rng.standard_normal(rows)
    for a in (W, s, g):
        if a.size and rng.random() < 0.2:
            a.flat[rng.integers(a.size)] = rng.choice([np.nan, np.inf, -np.inf])
    return W, s, g, int(rng.integers(0, rows + 1))


def test_propose_never_raises_or_warns():
    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(3000):
            W, s, g, neq = _proposal_inputs(rng)
            got = mpc._propose(W, s, g, neq)
            assert got is None or (
                got[:neq] == list(range(neq)) and len(set(got)) == len(got)
                and all(isinstance(i, int) and 0 <= i < g.size for i in got))
