import warnings

import numpy as np
import pytest

from fracdyn import (
    DimensionError,
    EstimatorConfig,
    InnovationSingular,
    MultiTermNetwork,
    NonFiniteError,
    NotSPD,
    Trajectory,
    augment_v,
    me_batch,
    me_filter_init,
    me_filter_step,
    run_estimator,
    simulate_network,
)


def unit_lift():
    """Scalar lift with A = G = C = 1 (single term, unit order, no inputs)."""
    net = MultiTermNetwork(state_terms=((1.0, [[1.0]]),),
                           disturbance_terms=((1.0, [[1.0]]),), C=[[1.0]])
    return augment_v(net, 1)


def test_config_validation():
    with pytest.raises(NotSPD):
        EstimatorConfig(Q=[[1.0]], R=[[1.0]], P0=[[-1.0]], xhat0=[0.0])
    with pytest.raises(NotSPD):
        EstimatorConfig(Q=[[0.0]], R=[[1.0]], P0=[[1.0]], xhat0=[0.0])
    with pytest.raises(NotSPD):
        EstimatorConfig(Q=[[1.0]], R=np.array([[1.0, 0.5], [-0.5, 1.0]]),
                        P0=[[1.0]], xhat0=[0.0])
    cfg = EstimatorConfig(Q=[[1.0]], R=[[1.0]], P0=[[2.0]], xhat0=[0.0])
    assert cfg.P0[0, 0] == 2.0


def test_init_checks_lift_dimensions():
    aug = unit_lift()
    cfg = EstimatorConfig(Q=np.eye(2), R=[[1.0]], P0=[[1.0]], xhat0=[0.0])
    with pytest.raises(DimensionError):
        me_filter_init(aug, cfg)
    good = EstimatorConfig(Q=[[1.0]], R=[[1.0]], P0=[[2.0]], xhat0=[0.5])
    state = me_filter_init(aug, good)
    assert state.k == 0 and state.P[0, 0] == 2.0 and state.xhat[0] == 0.5


def test_scalar_hand_step():
    aug = unit_lift()
    cfg = EstimatorConfig(Q=[[1.0]], R=[[1.0]], P0=[[1.0]], xhat0=[0.0])
    st = me_filter_step(me_filter_init(aug, cfg), None, [1.0])
    assert st.M[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert st.gain[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert st.xhat[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert st.P[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_zero_output_map_is_open_loop():
    net = MultiTermNetwork(state_terms=((0.8, [[1.0]]),),
                           disturbance_terms=((1.0, [[1.0]]),), C=[[0.0]])
    aug = augment_v(net, 2)
    cfg = EstimatorConfig.from_scalars(aug, q=1.0, r=1.0, p0=1.0, xhat0_base=[2.0])
    st = me_filter_step(me_filter_init(aug, cfg), None, [123.0])
    assert np.abs(st.gain).max() == 0.0
    np.testing.assert_allclose(st.xhat, aug.Atil @ cfg.xhat0, atol=1e-15)


def test_a_failed_innovation_factor_raises_innovation_singular(monkeypatch):
    net = MultiTermNetwork(state_terms=((0.8, [[1.0]]),), disturbance_terms=((1.0, [[1.0]]),))
    aug = augment_v(net, 2)
    state = me_filter_init(aug, EstimatorConfig.from_scalars(aug, q=1.0, r=1.0, p0=1.0))

    def fail(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(InnovationSingular,
                       match="^innovation matrix of step 1: Matrix is not positive definite$"):
        me_filter_step(state, None, [0.0])


def test_joseph_and_short_covariance_forms_agree():
    rng = np.random.default_rng(6)
    net = MultiTermNetwork(
        state_terms=((0.7, np.eye(2) + 0.1 * rng.normal(size=(2, 2))),),
        disturbance_terms=((0.8, np.eye(2)),),
        C=rng.normal(size=(1, 2)),
    )
    aug = augment_v(net, 2)
    cfg = EstimatorConfig.from_scalars(aug, q=0.7, r=0.3, p0=1.2)
    st = me_filter_init(aug, cfg)
    for k in range(30):
        st = me_filter_step(st, None, [np.sin(0.3 * k)])
        K, C, M = st.gain, aug.Ctil, st.M
        R = cfg.R
        IKC = np.eye(aug.dim) - K @ C
        joseph = IKC @ M @ IKC.T + K @ R @ K.T
        short = IKC @ M
        scale = max(np.abs(joseph).max(), 1e-30)
        assert np.abs(joseph - short).max() <= 1e-9 * scale
        # P stays symmetric positive definite
        assert np.abs(st.P - st.P.T).max() <= 1e-10
        assert np.min(np.linalg.eigvalsh(st.P)) > -1e-10 * np.trace(st.P)


def test_batch_zero_cost_on_consistent_data():
    net = MultiTermNetwork(state_terms=((1.0, [[0.8]]),),
                           disturbance_terms=((1.0, [[1.0]]),), C=[[1.0]])
    aug = augment_v(net, 1)
    x0 = np.array([1.5])
    # measurements exactly consistent with xhat0 and zero disturbance
    Z = [x0.copy()]
    for _ in range(6):
        Z.append(aug.Atil @ Z[-1])
    y = np.array(Z)[1:, :1]
    cfg = EstimatorConfig(Q=[[1.0]], R=[[1.0]], P0=[[1.0]], xhat0=x0)
    xhat, cost = me_batch(aug, cfg, None, y)
    assert cost <= 1e-20
    np.testing.assert_allclose(xhat[:, 0], [z[0] for z in Z], atol=1e-10)


def test_batch_without_a_measurement_is_a_dimension_error():
    cfg = EstimatorConfig(Q=[[1.0]], R=[[1.0]], P0=[[1.0]], xhat0=[0.0])
    with pytest.raises(DimensionError, match="^need at least one measurement$"):
        me_batch(unit_lift(), cfg, None, np.zeros((0, 1)))


def test_batch_matches_hand_example():
    aug = unit_lift()
    cfg = EstimatorConfig(Q=[[1.0]], R=[[1.0]], P0=[[1.0]], xhat0=[0.0])
    xhat, cost = me_batch(aug, cfg, None, [[1.0]])
    assert xhat[1, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert cost == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_batch_equals_recursion_on_random_fixtures():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 4))
        v = int(rng.integers(1, 5))
        N = int(rng.integers(5, 26))
        m = int(rng.integers(0, 3))
        q = int(rng.integers(1, n + 1))
        iterms = ((0.5 + 0.4 * rng.random(), rng.normal(size=(n, m))),) if m else ()
        net = MultiTermNetwork(
            state_terms=(
                (0.3 + rng.random(), np.eye(n) + 0.2 * rng.normal(size=(n, n))),
                (0.2 + rng.random(), 0.3 * rng.normal(size=(n, n))),
            ),
            input_terms=iterms,
            disturbance_terms=((0.5 + rng.random(), rng.normal(size=(n, n))),),
            C=rng.normal(size=(q, n)),
        )
        aug = augment_v(net, v)
        d = aug.dim
        cfg = EstimatorConfig(
            Q=np.diag(0.5 + rng.random(n)), R=np.diag(0.2 + rng.random(q)),
            P0=np.diag(0.5 + rng.random(d)), xhat0=0.1 * rng.normal(size=d),
        )
        u = rng.normal(size=(N, m)) if m else np.zeros((N, 0))
        y = rng.normal(size=(N, q))
        st = me_filter_init(aug, cfg)
        for k in range(N):
            st = me_filter_step(st, u[k] if m else None, y[k])
        xb, _ = me_batch(aug, cfg, u, y)
        err = np.linalg.norm(st.xhat - xb[-1])
        assert err <= 1e-6 * (1.0 + np.linalg.norm(xb[-1]))


def test_gain_is_a_local_minimum_of_the_energy():
    # scalar one-step value function: V(t) = min {x0^2 + r^2 : x0 + r = t} + (1-t)^2
    def V(t):
        return t * t / 2.0 + (1.0 - t) ** 2

    t_star = 2.0 / 3.0
    for delta in (1e-3, -1e-3):
        assert V(t_star + delta) > V(t_star)
    aug = unit_lift()
    cfg = EstimatorConfig(Q=[[1.0]], R=[[1.0]], P0=[[1.0]], xhat0=[0.0])
    st = me_filter_step(me_filter_init(aug, cfg), None, [1.0])
    assert V(st.xhat[0]) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_error_decays_with_exact_model_and_clean_data():
    net = MultiTermNetwork(state_terms=((0.8, [[1.0]]),),
                           disturbance_terms=((0.9, [[1.0]]),), C=[[1.0]])
    v = 3
    aug = augment_v(net, v)
    d = aug.dim
    K = 60
    Z = np.zeros((K + 1, d))
    Z[0] = aug.lift([1.0])
    for k in range(K):
        Z[k + 1] = aug.Atil @ Z[k]
    y = Z @ aug.Ctil.T
    cfg = EstimatorConfig.from_scalars(aug, q=1.0, r=0.1, p0=1.0, xhat0_base=[0.0])
    st = me_filter_init(aug, cfg)
    errs = [np.linalg.norm(st.xhat - Z[0])]
    for k in range(50):
        st = me_filter_step(st, None, y[k + 1])
        errs.append(np.linalg.norm(st.xhat - Z[k + 1]))
    diffs = np.diff(errs)
    assert np.all(diffs <= 1e-12)


def test_empirical_iss_decay_after_disturbances_stop():
    net = MultiTermNetwork(state_terms=((0.8, [[1.0]]),),
                           disturbance_terms=((0.9, [[1.0]]),), C=[[1.0]])
    aug = augment_v(net, 3)
    rng = np.random.default_rng(9)
    K, k0 = 300, 60
    r = np.zeros((K, 1))
    r[:k0] = 0.3 * (2 * rng.random((k0, 1)) - 1)
    vn = np.zeros((K + 1, 1))
    vn[:k0] = 0.05 * (2 * rng.random((k0, 1)) - 1)
    d = aug.dim
    Z = np.zeros((K + 1, d))
    Z[0] = aug.lift([1.0])
    for k in range(K):
        Z[k + 1] = aug.Atil @ Z[k] + aug.Gtil @ r[k]
    y = Z @ aug.Ctil.T + vn
    cfg = EstimatorConfig.from_scalars(aug, q=1.0, r=0.1, p0=1.0, xhat0_base=[0.0])
    st = me_filter_init(aug, cfg)
    errs = [np.linalg.norm(st.xhat - Z[0])]
    for k in range(K):
        st = me_filter_step(st, None, y[k + 1])
        errs.append(np.linalg.norm(st.xhat - Z[k + 1]))
    errs = np.array(errs)
    # decays below 1e-6 of the shutoff error within a measured horizon
    assert errs[k0:].min() <= 1e-6 * errs[k0]


def test_empirical_iss_sup_error_affine_in_bounds():
    net = MultiTermNetwork(state_terms=((0.8, [[1.0]]),),
                           disturbance_terms=((0.9, [[1.0]]),), C=[[1.0]])
    aug = augment_v(net, 3)
    rng = np.random.default_rng(21)
    K = 200
    d = aug.dim
    r_unit = 2 * rng.random((K, 1)) - 1
    v_unit = 2 * rng.random((K + 1, 1)) - 1
    grid = (0.01, 0.1, 0.5)
    rows, sups = [], []
    for bw in grid:
        for bv in grid:
            Z = np.zeros((K + 1, d))
            Z[0] = aug.lift([1.0])
            for k in range(K):
                Z[k + 1] = aug.Atil @ Z[k] + aug.Gtil @ (bw * r_unit[k])
            y = Z @ aug.Ctil.T + bv * v_unit
            cfg = EstimatorConfig.from_scalars(aug, q=1.0, r=0.1, p0=1.0, xhat0_base=[1.0])
            st = me_filter_init(aug, cfg)
            sup = 0.0
            for k in range(K):
                st = me_filter_step(st, None, y[k + 1])
                sup = max(sup, float(np.linalg.norm(st.xhat - Z[k + 1])))
            rows.append([1.0, bw, bv])
            sups.append(sup)
    coef, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(sups), rcond=None)
    fit = np.asarray(rows) @ coef
    worst_excess = float(np.max(np.asarray(sups) - fit))
    assert coef[1] >= 0.0 and coef[2] >= 0.0
    assert worst_excess <= 0.1 * max(sups)


def test_run_estimator_zero_error_with_exact_model_and_truth_prior():
    # integer orders: the depth-2 lift is exact, so a truth-seeded filter stays exact
    net = MultiTermNetwork(
        state_terms=((1.0, np.array([[0.7, 0.1], [0.0, 0.8]])),),
        input_terms=((1.0, np.array([[1.0], [0.5]])),),
        disturbance_terms=((1.0, np.eye(2)),),
        C=np.eye(2),
    )
    rng = np.random.default_rng(14)
    K = 30
    u = rng.normal(size=(K, 1))
    truth = simulate_network(net, [1.0, -1.0], u=u, K=K)
    traj = Trajectory(states=truth.states, inputs=u, outputs=truth.outputs)
    v = 2
    aug = augment_v(net, v)
    cfg = EstimatorConfig.from_scalars(aug, q=1.0, r=1.0, p0=1.0, xhat0_base=[1.0, -1.0])
    run = run_estimator(net, v, cfg, traj)
    assert run.sup_error <= 1e-9
    assert run.err_norms.shape == (K + 1,)


def test_weight_schedules_broadcast_like_constants():
    aug = unit_lift()
    N = 8
    rng = np.random.default_rng(30)
    y = rng.normal(size=(N, 1))
    const = EstimatorConfig(Q=[[0.7]], R=[[0.4]], P0=[[1.0]], xhat0=[0.0])
    sched = EstimatorConfig(
        Q=np.tile(np.array([[[0.7]]]), (N + 1, 1, 1)),
        R=np.tile(np.array([[[0.4]]]), (N + 1, 1, 1)),
        P0=[[1.0]], xhat0=[0.0],
    )
    st_c = me_filter_init(aug, const)
    st_s = me_filter_init(aug, sched)
    for k in range(N):
        st_c = me_filter_step(st_c, None, y[k])
        st_s = me_filter_step(st_s, None, y[k])
    np.testing.assert_allclose(st_s.xhat, st_c.xhat, atol=0.0)
    np.testing.assert_allclose(st_s.P, st_c.P, atol=0.0)


def test_run_estimator_threads_per_step_output_maps():
    # alternate measuring channel 1 and channel 2; the filter still tracks
    K = 40
    C_sched = np.zeros((K + 1, 1, 2))
    C_sched[::2, 0, 0] = 1.0
    C_sched[1::2, 0, 1] = 1.0
    net = MultiTermNetwork(
        state_terms=((1.0, np.array([[0.7, 0.1], [0.0, 0.8]])),),
        disturbance_terms=((1.0, np.eye(2)),),
        C=C_sched,
    )
    truth = simulate_network(net, [1.0, -1.0], K=K)
    traj = Trajectory(states=truth.states, outputs=truth.outputs)
    v = 2
    aug = augment_v(net, v)
    cfg = EstimatorConfig.from_scalars(aug, q=1.0, r=0.01, p0=1.0, xhat0_base=[0.5, 0.0])
    run = run_estimator(net, v, cfg, traj)
    # the exact lift plus alternating measurements pull the error down
    assert run.err_norms[-1] <= 0.02 * run.err_norms[0]


@pytest.mark.parametrize("rows", [0, 1])
def test_run_estimator_needs_a_measurement_after_step_0(rows):
    net = MultiTermNetwork(state_terms=((1.0, [[0.8]]),), C=[[1.0]])
    cfg = EstimatorConfig.from_scalars(augment_v(net, 1), q=1.0, r=1.0, p0=1.0)
    traj = Trajectory(states=np.zeros((rows, 1)), outputs=np.zeros((rows, 1)))
    with pytest.raises(DimensionError, match="^trajectory has no measurement after step 0$"):
        run_estimator(net, 1, cfg, traj)


@pytest.mark.parametrize("R", [0.01, [0.01 * np.eye(2)] * 11])
@pytest.mark.parametrize("y_cols, u_cols, message", [
    (1, 1, r"^trajectory outputs must have shape \(\*, 2\), got \(11, 1\)$"),
    (3, 1, r"^trajectory outputs must have shape \(\*, 2\), got \(11, 3\)$"),
    (2, 2, r"^trajectory inputs must have shape \(10, 1\), got \(10, 2\)$"),
])
def test_run_estimator_checks_the_trajectory_widths(R, y_cols, u_cols, message):
    # checked before either route runs: at v = 10 the low-rank route (constant
    # R, an increment of rank 5 on d = 30) would otherwise broadcast a
    # one-column measurement against the prediction
    net = MultiTermNetwork(state_terms=((0.6, np.eye(2)),), input_terms=((0.5, [[1.0], [1.0]]),),
                           disturbance_terms=((0.7, np.eye(2)),), C=np.eye(2))
    K = 10
    traj = Trajectory(states=np.zeros((K + 1, 2)), inputs=np.ones((K, u_cols)),
                      outputs=np.ones((K + 1, y_cols)))
    cfg = EstimatorConfig(Q=1.0, R=R, P0=1.0, xhat0=0.0)
    with pytest.raises(DimensionError, match=message):
        run_estimator(net, 10, cfg, traj)


def test_filter_step_names_the_first_non_finite_estimate_without_a_warning():
    # weights near the float limit overflow the predicted weight at step 1;
    # the estimate of step 1 is still finite, that of step 2 is not
    net = MultiTermNetwork(state_terms=((0.6, np.eye(2)),), input_terms=((0.5, [[1.0], [1.0]]),),
                           disturbance_terms=((0.7, np.eye(2)),), C=np.eye(2))
    state = me_filter_init(augment_v(net, 3), EstimatorConfig(Q=1e308, R=1e-308, P0=1e308,
                                                              xhat0=0.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = me_filter_step(state, None, [0.3, -0.2])
        assert np.all(np.isfinite(state.xhat)) and not np.all(np.isfinite(state.P))
        with pytest.raises(NonFiniteError, match="^estimate became non-finite at step 2$"):
            me_filter_step(state, None, [0.3, -0.2])
    assert not caught


def test_run_estimator_requires_outputs():
    net = MultiTermNetwork(state_terms=((1.0, [[0.8]]),), C=[[1.0]])
    aug = augment_v(net, 1)
    cfg = EstimatorConfig.from_scalars(aug, q=1.0, r=1.0, p0=1.0)
    with pytest.raises(DimensionError):
        run_estimator(net, 1, cfg, Trajectory(states=np.zeros((5, 1))))
