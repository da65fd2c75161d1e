"""Acceptance gate: one test per criterion, each printing a PASS line.

Criterion 1 is split in two: the kernel cross-check and the two-sided
power-law magnitude envelope on the GL weights (derived from Gautschi's
inequality; see its docstring).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import fracdyn as fd
from fracdyn.cli import main as cli_main
from fracdyn.fileio import write_model
from gl_oracle import gl_weight_gamma


def _report(cid: str, text: str):
    print(f"ACCEPTANCE {cid}: PASS — {text}")


# ----------------------------------------------------------------------------
# 1. GL kernel cross-check and magnitude envelope


def test_criterion_01a_gl_kernel_cross_check():
    start = time.perf_counter()
    alphas = [round(0.1 * k, 1) for k in range(1, 20) if k != 10]
    for a in alphas:
        c = 1.0
        for j in range(0, 201):
            if j > 0:
                c *= (j - 1.0 - a) / j
            g = gl_weight_gamma(a, j)
            assert abs(g - c) <= 1e-12 * max(1.0, abs(c)), (a, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"cross-check took {elapsed:.2f}s"
    _report("01a", f"gamma vs recursive agree to 1e-12 for 18 orders, j <= 200 ({elapsed:.2f}s)")


def test_criterion_01b_gl_magnitude_envelope():
    """Asserts the two-sided power-law envelope of the toolkit's GL weights.

    With c_j = Gamma(j - a) / (Gamma(-a) Gamma(j + 1)) and g = |Gamma(-a)|,
    Gautschi's inequality x^(1-s) < Gamma(x+1)/Gamma(x+s) < (x+1)^(1-s) for
    x > 0, 0 < s < 1 (W. Gautschi, J. Math. Phys. 38, 1959) gives

    - 0 < a < 1, j >= 2:  j^(-1-a) < g|c_j| < 1 / (j (j-1)^a);
    - 1 < a < 2, j >= 3:  1 / (j (j-1)^a) < g|c_j| < 1 / (j (j-1) (j-2)^(a-1)).

    Both sides tend to j^(-1-a), the power-law decay of the long memory.
    The weights come from ``build_weight_table`` for 18 orders up to lag
    200, with only rounding slack (1e-12 relative).  The lags below the
    envelope are covered in test_fraccore.py: c_1 = -a exactly, every lag
    up to 200 against the log-Gamma oracle, and the table against the
    recursive weights.
    """
    alphas = [round(0.1 * k, 1) for k in range(1, 20) if k != 10]
    table = fd.build_weight_table(alphas, 200)
    violations = []
    for a, w in zip(alphas, table):
        first = 2 if a < 1 else 3
        j = np.arange(first, 201, dtype=float)
        scaled = abs(math.gamma(-a)) * np.abs(w[first:])
        if a < 1:
            lower, upper = j ** (-1.0 - a), 1.0 / (j * (j - 1) ** a)
        else:
            lower, upper = 1.0 / (j * (j - 1) ** a), 1.0 / (j * (j - 1) * (j - 2) ** (a - 1))
        bad = (scaled < lower * (1 - 1e-12)) | (scaled > upper * (1 + 1e-12))
        for i in np.flatnonzero(bad):
            violations.append((a, int(j[i]), float(scaled[i]), float(lower[i]), float(upper[i])))
    assert not violations, (
        f"power-law envelope of |Gamma(-a)| |c_j^a| is violated at {len(violations)} "
        "(order, lag) pairs; first counterexamples "
        f"(order, lag, |Gamma(-a)| |c|, lower, upper): {violations[:3]}"
    )
    _report("01b", "Gautschi power-law envelope holds for 18 orders, lags from 2 (a < 1) or 3 (a > 1) to 200")


# ----------------------------------------------------------------------------
# 2. Integer-order collapse


def test_criterion_02_integer_order_collapse():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        mdim = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        rho = np.max(np.abs(np.linalg.eigvals(A + np.eye(n))))
        if rho >= 0.98:
            A = 0.9 * A / rho
        B = rng.normal(size=(n, mdim))
        u = rng.normal(size=(100, mdim))
        w = 0.1 * rng.normal(size=(100, n))
        model = fd.FosModel(alpha=np.ones(n), A=A, B=B, Bw=np.eye(n))
        x0 = rng.normal(size=n)
        traj = fd.simulate_fos(model, x0, u=u, w=w, K=100)
        X = np.zeros((101, n))
        X[0] = x0
        for k in range(100):
            X[k + 1] = (A + np.eye(n)) @ X[k] + B @ u[k] + w[k]
        worst = max(worst, float(np.abs(traj.states - X).max()))
    assert worst <= 1e-12
    _report("02", f"50 random alpha=1 models match the LTI run, worst gap {worst:.1e}")


# ----------------------------------------------------------------------------
# 3. Transition-matrix consistency


def test_criterion_03_transition_matrix_consistency():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(1, 4))
        alpha = 0.4 + 0.5 * rng.random(n)
        A = -np.diag(0.3 + 0.4 * rng.random(n)) + 0.05 * rng.normal(size=(n, n))
        model = fd.FosModel(alpha=alpha, A=A)
        x0 = rng.normal(size=n)
        traj = fd.simulate_fos(model, x0, K=200)
        G = fd.transition_matrices(model, 200)
        free = np.einsum("knm,m->kn", G, x0)
        worst = max(worst, float(np.abs(traj.states - free).max()))
    assert worst <= 1e-10
    _report("03", f"free response equals G_k x0 for k <= 200, worst gap {worst:.1e}")


# ----------------------------------------------------------------------------
# 4. Deadbeat and reconstruction closure


def test_criterion_04_controllability_observability_closure():
    start = time.perf_counter()
    for seed in range(25):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(1, 4))
        mdim = int(rng.integers(1, 3))
        K = int(rng.integers(n, 9))
        model = fd.FosModel(
            alpha=0.3 + 0.6 * rng.random(n), A=0.25 * rng.normal(size=(n, n)),
            B=rng.normal(size=(n, mdim)),
        )
        x0 = rng.normal(size=n)
        u = fd.deadbeat_input(model, None, x0, K)
        traj = fd.simulate_fos(model, x0, u=u, K=K)
        assert np.linalg.norm(traj.states[-1]) <= 1e-8 * np.linalg.norm(x0)
    for seed in range(25):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(1, 4))
        mdim = int(rng.integers(1, 3))
        K = int(rng.integers(n + 1, 9))
        model = fd.FosModel(
            alpha=0.3 + 0.6 * rng.random(n), A=0.25 * rng.normal(size=(n, n)),
            B=rng.normal(size=(n, mdim)),
        )
        q = int(rng.integers(1, 3))
        C = rng.normal(size=(q, n))
        x0 = rng.normal(size=n)
        u = rng.normal(size=(K, mdim))
        y = fd.simulate_fos(model, x0, u=u, K=K).states @ C.T
        xr = fd.reconstruct_initial_state(model, None, C, u, y, K)
        assert np.linalg.norm(xr - x0) <= 1e-8 * np.linalg.norm(x0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"closure runs took {elapsed:.2f}s"
    _report("04", f"25 deadbeat and 25 reconstruction closures hold ({elapsed:.2f}s)")


# ----------------------------------------------------------------------------
# 5. Identification recovery


def test_criterion_05_identification_recovery():
    start = time.perf_counter()
    eps = 1e-3
    cap = fd.bisection_bound(eps)
    assert cap == 11

    model = fd.FosModel(alpha=[0.5], A=[[0.2]])
    traj = fd.simulate_fos(model, [1.0], K=160)
    res = fd.identify(traj, p=160, epsilon=eps, window=(0, 120))
    assert abs(res.alpha_hat[0] - 0.5) <= 2 * eps
    assert abs(res.A_hat[0, 0] - 0.2) <= 1e-2
    assert res.iterations[0] <= cap

    A = np.array([[0.05, 0.3], [-0.3, 0.05]])
    lti = fd.FosModel(alpha=[1.0, 1.0], A=A)
    traj2 = fd.simulate_fos(lti, [1.0, -0.5], K=160)
    res2 = fd.identify(traj2, p=160, epsilon=eps, window=(0, 120))
    assert np.all(np.abs(res2.alpha_hat - 1.0) <= 2 * eps)
    assert np.all(res2.iterations <= cap)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"identification took {elapsed:.2f}s"
    _report("05", f"orders 0.5 and 1.0 recovered within 2e-3 in <= 11 iterations ({elapsed:.2f}s)")


# ----------------------------------------------------------------------------
# 6. Least-squares error decay


def test_criterion_06_ols_error_decay():
    model = fd.FosModel(alpha=[0.5], A=[[0.2]], Bw=[[1.0]])
    medians = []
    for K in (200, 800, 3200):
        errs = []
        for seed in range(20):
            w = fd.gaussian_noise(seed, K, 1, 0.05)
            traj = fd.simulate_fos(model, [1.0], w=w, K=K)
            res = fd.ols_spatial(traj, [0.5], window=(0, K - 1))
            errs.append(abs(res.A_hat[0, 0] - 0.2))
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2], medians
    _report("06", f"median spatial error decays across K=200/800/3200: {medians}")


# ----------------------------------------------------------------------------
# 7. Minimum-energy equivalence


def test_criterion_07_minimum_energy_equivalence():
    net = fd.MultiTermNetwork(state_terms=((1.0, [[1.0]]),),
                              disturbance_terms=((1.0, [[1.0]]),), C=[[1.0]])
    aug = fd.augment_v(net, 1)
    cfg = fd.EstimatorConfig(Q=[[1.0]], R=[[1.0]], P0=[[1.0]], xhat0=[0.0])
    st = fd.me_filter_step(fd.me_filter_init(aug, cfg), None, [1.0])
    assert st.M[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert st.gain[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert st.xhat[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert st.P[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 4))
        v = int(rng.integers(1, 5))
        N = int(rng.integers(5, 26))
        m = int(rng.integers(0, 3))
        q = int(rng.integers(1, n + 1))
        iterms = ((0.5 + 0.4 * rng.random(), rng.normal(size=(n, m))),) if m else ()
        netr = fd.MultiTermNetwork(
            state_terms=(
                (0.3 + rng.random(), np.eye(n) + 0.2 * rng.normal(size=(n, n))),
                (0.2 + rng.random(), 0.3 * rng.normal(size=(n, n))),
            ),
            input_terms=iterms,
            disturbance_terms=((0.5 + rng.random(), rng.normal(size=(n, n))),),
            C=rng.normal(size=(q, n)),
        )
        augr = fd.augment_v(netr, v)
        d = augr.dim
        cfgr = fd.EstimatorConfig(
            Q=np.diag(0.5 + rng.random(n)), R=np.diag(0.2 + rng.random(q)),
            P0=np.diag(0.5 + rng.random(d)), xhat0=0.1 * rng.normal(size=d),
        )
        u = rng.normal(size=(N, m)) if m else np.zeros((N, 0))
        y = rng.normal(size=(N, q))
        state = fd.me_filter_init(augr, cfgr)
        for k in range(N):
            state = fd.me_filter_step(state, u[k] if m else None, y[k])
        xb, _ = fd.me_batch(augr, cfgr, u, y)
        assert np.linalg.norm(state.xhat - xb[-1]) <= 1e-6 * (1.0 + np.linalg.norm(xb[-1]))
    _report("07", "recursive filter equals the batch minimizer on 10 fixtures; hand example exact")


# ----------------------------------------------------------------------------
# 8. Truncation-depth monotonicity


def test_criterion_08_truncation_depth_monotonicity():
    rng = np.random.default_rng(2024)
    coup = np.array([
        [0.0, 0.20, -0.10, 0.05],
        [0.15, 0.0, 0.10, -0.05],
        [-0.10, 0.05, 0.0, 0.20],
        [0.05, -0.15, 0.10, 0.0],
    ])
    net = fd.MultiTermNetwork(
        state_terms=((0.3, np.eye(4)), (0.6, coup)),
        input_terms=((0.5, np.ones((4, 1))),),
        disturbance_terms=((0.7, np.eye(4)),),
        C=np.eye(4)[[0, 2]],  # two of four channels measured
    )
    K = 150
    u = 0.5 * np.sin(0.12 * np.arange(K))[:, None]
    w = 0.02 * (2 * rng.random((K, 4)) - 1)
    vmeas = 0.005 * (2 * rng.random((K + 1, 2)) - 1)
    x0 = np.array([1.0, -0.5, 0.5, 0.2])
    truth = fd.simulate_network(net, x0, u=u, w=w, K=K)
    meas = fd.Trajectory(states=truth.states, inputs=u, outputs=truth.outputs + vmeas)
    errs = []
    for v in (2, 10, 20):
        aug = fd.augment_v(net, v)
        cfg = fd.EstimatorConfig.from_scalars(aug, q=1.0, r=0.01, p0=1.0, xhat0_base=x0)
        run = fd.run_estimator(net, v, cfg, meas)
        errs.append(float(run.err_norms[-25:].mean()))
    assert errs[0] >= errs[1] >= errs[2], errs
    _report("08", f"terminal-window error non-increasing across v=2/10/20: {errs}")


# ----------------------------------------------------------------------------
# 9. Predictive-control optimality and bookkeeping


def test_criterion_09_mpc_optimality_and_bookkeeping():
    m = fd.FosModel(alpha=[0.5], A=[[0.2]], B=[[1.0]], Bw=[[1.0]])
    history = np.array([[0.3], [1.0]])
    prob = fd.MpcProblem(p=3, P=1, M=1, Q=[[2.0]], R=[[0.5]])
    sol = fd.solve_horizon(prob, m, history)
    blocks = fd.aj_series(m, 2)
    free = blocks[0][0, 0] * 1.0 + blocks[1][0, 0] * 0.3
    expect = -(2.0 / (2.0 + 0.5)) * free
    assert abs(sol.u[0, 0] - expect) <= 1e-10

    clipped = fd.solve_horizon(
        fd.MpcProblem(p=3, P=1, M=1, Q=[[2.0]], R=[[0.5]], u_lo=-0.1, u_hi=0.1),
        m, history)
    assert clipped.u[0, 0] == pytest.approx(-0.1, abs=1e-15)

    rng = np.random.default_rng(17)
    m2 = fd.FosModel(alpha=[0.6, 0.9], A=0.3 * rng.normal(size=(2, 2)),
                     B=rng.normal(size=(2, 1)))
    prob2 = fd.MpcProblem(p=4, P=6, M=3, Q=np.eye(2), R=[[1.0]], u_lo=-2.0, u_hi=2.0)
    hist2 = rng.normal(size=(4, 2))
    sol2 = fd.solve_horizon(prob2, m2, hist2)
    aug2 = fd.augment_p(m2, 4)
    z0 = np.concatenate([hist2[-1 - j] for j in range(4)])
    lifted = fd.simulate_augmented(aug2, z0, u=sol2.u, K=6)
    assert np.abs(sol2.predicted - lifted.states[1:]).max() <= 1e-10

    prob3 = fd.MpcProblem(p=5, P=8, M=4, Q=[[1.5]], R=[[0.3]], u_lo=-0.5, u_hi=0.5)
    zero = fd.MpcProblem(p=5, P=8, M=4, Q=[[1.5]], R=[[0.3]], u_lo=0.0, u_hi=0.0)
    cond3, cond0 = fd.condense(prob3, m), fd.condense(zero, m)
    for _ in range(20):
        h = rng.normal(size=(5, 1))
        s = fd.solve_horizon(prob3, m, h, condensed=cond3)
        s0 = fd.solve_horizon(zero, m, h, condensed=cond0)
        assert s.cost <= s0.cost + 1e-12

    res = fd.run_closed_loop(m, prob3, 10, noise=5, x0=[1.0], noise_sigma=0.1)
    assert len(res.cycle_costs) == -(-10 // 4)
    for sol_i, start in zip(res.solutions, res.solve_steps):
        take = min(4, 10 - start)
        assert np.array_equal(res.applied[start : start + take], sol_i.u[:take])
    _report("09", "closed form, clipping, condensing, zero-dominance, and bookkeeping all hold")


# ----------------------------------------------------------------------------
# 10. Paper-parameterized closed loops


def test_criterion_10_parameterized_closed_loops():
    start = time.perf_counter()
    plant = fd.FosModel(alpha=[1.4881], A=[[-0.0054]], B=[[1.0]], Bw=[[0.1]])
    prob = fd.MpcProblem(p=15, P=20, M=10, Q=[[1.0]], R=[[1.0]], u_lo=-5.0, u_hi=5.0)
    K = 300
    res = fd.run_closed_loop(plant, prob, K, noise=42, x0=[1.0])
    base = fd.uncontrolled_baseline(plant, K, noise=42, x0=[1.0])
    e_ctrl = res.energy
    e_base = float(np.sum(base.states**2))
    assert e_ctrl < e_base
    assert np.abs(res.applied).max() <= 5.0 + 1e-12
    np.testing.assert_array_equal(res.noise, base.noises)

    A4 = np.array([
        [0.2969, -0.0203, -0.2922, 0.0587],
        [0.2574, -0.1726, -0.1905, 0.1535],
        [0.5348, -0.1066, -0.3471, -0.0169],
        [0.4007, -0.6752, 0.0044, 0.3186],
    ])
    alpha4 = [0.8114, 0.8334, 0.8034, 0.8413]
    plant4 = fd.FosModel(alpha=alpha4, A=A4, B=np.ones((4, 1)), Bw=0.05 * np.eye(4))
    prob4 = fd.MpcProblem(p=10, P=10, M=8, Q=np.eye(4), R=[[1.0]],
                          u_lo=-100.0, u_hi=100.0)
    res4 = fd.run_closed_loop(plant4, prob4, 240, noise=7, x0=[1.0, -1.0, 0.5, 0.0])
    assert np.all(np.isfinite(res4.trajectory.states))
    assert np.abs(res4.trajectory.states).max() < 100.0
    assert np.abs(res4.applied).max() <= 100.0 + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"closed loops took {elapsed:.2f}s"
    _report(
        "10",
        f"scalar loop energy {e_ctrl:.1f} < baseline {e_base:.1f}; "
        f"4-channel run bounded and feasible ({elapsed:.2f}s)",
    )


# ----------------------------------------------------------------------------
# 11. Frequency-response and stability sanity


def test_criterion_11_fopid_and_stability_sanity():
    omegas = np.logspace(-2, 2, 201)
    kp, ki, kd = 2.0, 3.0, 0.5
    resp = fd.fopid_response(kp, ki, kd, 1.0, 1.0, omegas)
    classic = kp + ki / (1j * omegas) + kd * (1j * omegas)
    assert np.abs(resp.response - classic).max() <= 1e-12

    rng = np.random.default_rng(123)
    for _ in range(100):
        A = rng.normal(size=(4, 4))
        rep = fd.commensurate_stability(A, 1.0)
        expected = "stable" if np.all(np.linalg.eigvals(A).real < 0) else "unstable"
        assert rep.verdict == expected
    _report("11", "integer-order FOPID matches classical PID; alpha=1 sector equals LHP test")


# ----------------------------------------------------------------------------
# 12. End-to-end determinism


def test_criterion_12_cli_determinism(tmp_path):
    model_path = str(tmp_path / "model.json")
    write_model(model_path, fd.FosModel(alpha=[0.5], A=[[0.2]], B=[[1.0]], Bw=[[1.0]]))
    blobs = []
    for name in ("r1", "r2"):
        traj_out = str(tmp_path / f"{name}.csv")
        assert cli_main(["simulate", "--model", model_path, "--x0", "1.0",
                         "--steps", "80", "--seed", "13", "--sigma", "0.2",
                         "--out", traj_out]) == 0
        ident_out = str(tmp_path / f"{name}_model.json")
        diag_out = str(tmp_path / f"{name}_diag.csv")
        assert cli_main(["identify", "--trajectory", traj_out, "--depth", "80",
                         "--epsilon", "1e-2", "--window", "0,60",
                         "--out-model", ident_out, "--out-diag", diag_out]) == 0
        blobs.append(
            Path(traj_out).read_bytes()
            + Path(ident_out).read_bytes()
            + Path(diag_out).read_bytes()
        )
    assert blobs[0] == blobs[1]
    _report("12", "repeated seeded CLI pipelines produce byte-identical outputs")
