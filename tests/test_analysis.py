import warnings

import numpy as np
import pytest

from fracdyn import (
    BranchWarning,
    DimensionError,
    DomainError,
    EigenFailure,
    FosModel,
    FractionalTransferFunction,
    NotControllable,
    NotObservable,
    SingularError,
    augmented_spectral_radius,
    build_weight_table,
    commensurate_stability,
    controllability_gramian,
    deadbeat_input,
    fopid_response,
    observability_matrices,
    reconstruct_initial_state,
    simulate_fos,
    tf_eval,
    transition_matrices,
)
from fracdyn.analysis import _forced_output


def test_stability_examples():
    rep = commensurate_stability([[-1.0]], 1.0)
    assert rep.verdict == "stable"
    assert rep.margins[0] == pytest.approx(np.pi / 2, abs=1e-12)

    rep = commensurate_stability([[1.0]], 0.5)
    assert rep.verdict == "unstable"

    rep = commensurate_stability([[0.0, 1.0], [-1.0, 0.0]], 0.5)
    assert rep.verdict == "stable"
    np.testing.assert_allclose(np.sort(np.abs(rep.eigenvalues.imag)), [1.0, 1.0], atol=1e-12)


def test_stability_marginal_on_sector_boundary():
    # eigenvalues at angle pi/4 sit exactly on the alpha = 0.5 sector edge
    c = np.cos(np.pi / 4)
    A = np.array([[c, -c], [c, c]])
    rep = commensurate_stability(A, 0.5)
    assert rep.verdict == "marginal"


def test_stability_alpha_one_equals_half_plane_test():
    rng = np.random.default_rng(123)
    for _ in range(100):
        A = rng.normal(size=(4, 4))
        rep = commensurate_stability(A, 1.0)
        expected = "stable" if np.all(np.linalg.eigvals(A).real < 0) else "unstable"
        assert rep.verdict == expected


def test_stability_domain():
    with pytest.raises(DomainError):
        commensurate_stability([[1.0]], 2.0)


@pytest.mark.parametrize("call", [
    lambda: commensurate_stability([[-1.0]], 0.5),
    lambda: augmented_spectral_radius(FosModel(alpha=[0.5], A=[[-0.5]]), 3),
], ids=["sector test", "lift radius"])
def test_an_eigensolver_failure_raises_eigen_failure(monkeypatch, call):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(EigenFailure, match="^Eigenvalues did not converge$"):
        call()


def test_augmented_spectral_radius_alpha_one():
    A = np.array([[-0.5, 0.1], [0.0, -0.4]])
    m = FosModel(alpha=[1.0, 1.0], A=A)
    rho = augmented_spectral_radius(m, 5)
    assert rho == pytest.approx(np.max(np.abs(np.linalg.eigvals(A + np.eye(2)))), abs=1e-12)


def n2_fixture():
    return FosModel(alpha=[0.5, 0.5], A=[[0.2, 0.1], [0.0, 0.3]])


def test_controllability_examples():
    scalar = FosModel(alpha=[0.5], A=[[0.2]])
    rep = controllability_gramian(scalar, [[1.0]], 1)
    assert rep.rank == 1 and rep.full_rank

    rep0 = controllability_gramian(scalar, [[0.0]], 3)
    assert rep0.rank == 0
    assert np.abs(rep0.matrix).max() == 0.0

    # Brute-force oracle on the triangular fixture: coupling runs 2 -> 1 only,
    # so driving channel 1 reaches one state (rank 1) while driving channel 2
    # reaches both (rank 2).  The Gramian rank must match the oracle.
    m = n2_fixture()
    G = transition_matrices(m, 4)
    for B, want in ((np.array([[1.0], [0.0]]), 1), (np.array([[0.0], [1.0]]), 2)):
        stack = np.hstack([G[j] @ B for j in range(4)])
        assert np.linalg.matrix_rank(stack) == want
        rep2 = controllability_gramian(m, B, 4)
        assert rep2.rank == want


def test_gramian_symmetry_and_psd():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = FosModel(alpha=0.3 + 0.6 * rng.random(n), A=0.3 * rng.normal(size=(n, n)))
        B = rng.normal(size=(n, 2))
        rep = controllability_gramian(m, B, 5)
        assert np.abs(rep.matrix - rep.matrix.T).max() <= 1e-10
        lam = np.linalg.eigvalsh(rep.matrix)
        assert lam.min() >= -1e-10 * max(np.trace(rep.matrix), 1.0)


def test_deadbeat_examples():
    scalar = FosModel(alpha=[0.5], A=[[0.2]], B=[[1.0]])
    u0 = deadbeat_input(scalar, None, [0.0], 3)
    assert np.abs(u0).max() == 0.0

    u = deadbeat_input(scalar, [[1.0]], [1.0], 1)
    assert u[0, 0] == pytest.approx(-0.7, abs=1e-12)

    m = n2_fixture()
    B = np.array([[0.0], [1.0]])
    x0 = np.array([1.0, -1.0])
    u4 = deadbeat_input(m, B, x0, 4)
    mB = FosModel(alpha=m.alpha, A=m.A, B=B)
    traj = simulate_fos(mB, x0, u=u4, K=4)
    assert np.linalg.norm(traj.states[-1]) <= 1e-8 * np.linalg.norm(x0)


def test_deadbeat_not_controllable():
    m = n2_fixture()
    with pytest.raises(NotControllable):
        deadbeat_input(m, np.zeros((2, 1)), [1.0, 1.0], 4)


@pytest.mark.parametrize("x0, error, message", [
    ([1.0, 2.0, 3.0], DimensionError, "^x0 must have length 2$"),
    ([[1.0, 2.0]], DimensionError, "^x0 must have length 2$"),
    ([np.nan, 0.0], DomainError, "^x0 entries must be finite$"),
    ([np.inf, 0.0], DomainError, "^x0 entries must be finite$"),
])
def test_deadbeat_checks_its_initial_state(x0, error, message):
    with pytest.raises(error, match=message):
        deadbeat_input(n2_fixture(), [[0.0], [1.0]], x0, 4)


@pytest.mark.parametrize("B,error,message", [
    ([[np.nan], [1.0]], DomainError, "^B entries must be finite$"),
    ([[np.inf], [1.0]], DomainError, "^B entries must be finite$"),
    ([[True], [False]], DimensionError, r"^B must be numbers, got \[\[True\], \[False\]\]$"),
    ([[1.0], [2.0], [3.0]], DimensionError, r"^B must have shape \(2, \*\), got \(3, 1\)$"),
])
def test_an_input_matrix_is_checked_before_use(B, error, message):
    m = n2_fixture()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the error
        with pytest.raises(error, match=message):
            controllability_gramian(m, B, 4)
        with pytest.raises(error, match=message):
            deadbeat_input(m, B, [1.0, -1.0], 4)
    # B has one row per state, as FosModel.B does: a row per input is not read as B^T
    with pytest.raises(DimensionError, match=r"^B must have shape \(2, \*\), got \(1, 2\)$"):
        deadbeat_input(m, [[0.0, 1.0]], [1.0, -1.0], 4)


def test_deadbeat_closure_random():
    for seed in range(25):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(1, 4))
        mdim = int(rng.integers(1, 3))
        K = int(rng.integers(n, 9))
        model = FosModel(
            alpha=0.3 + 0.6 * rng.random(n), A=0.25 * rng.normal(size=(n, n)),
            B=rng.normal(size=(n, mdim)),
        )
        x0 = rng.normal(size=n)
        u = deadbeat_input(model, None, x0, K)
        traj = simulate_fos(model, x0, u=u, K=K)
        assert np.linalg.norm(traj.states[-1]) <= 1e-8 * np.linalg.norm(x0)


def test_observability_examples():
    m = n2_fixture()
    rep = observability_matrices(m, np.eye(2), 1)
    np.testing.assert_allclose(rep.obsv, np.eye(2), atol=0.0)
    assert rep.full_rank

    rep0 = observability_matrices(m, np.zeros((1, 2)), 3)
    assert rep0.rank == 0

    empty = observability_matrices(m, np.zeros((0, 2)), 3)  # no output rows at all
    assert empty.obsv.shape == (0, 2) and empty.rank == 0

    C = np.array([[1.0, 0.0]])
    rep2 = observability_matrices(m, C, 4)
    G = transition_matrices(m, 4)
    stack = np.vstack([C @ G[j] for j in range(4)])
    assert rep2.rank == np.linalg.matrix_rank(stack) == 2
    np.testing.assert_allclose(rep2.gramian, rep2.obsv.T @ rep2.obsv, atol=1e-10)


@pytest.mark.parametrize("q,m,K", [(1, 2, 6), (2, 1, 9), (2, 0, 4), (1, 1, 1)])
def test_feedthrough_matches_the_block_loop_bitwise(q, m, K):
    # the inputs' share of the outputs, which reconstruction subtracts: over
    # these K <= NEAR_BLOCK steps the simulator steps, so it is bitwise the
    # step loop of the recursion from x[0] = 0, and it is the per-lag block
    # loop sum_{j<k} C G_{k-1-j} B u[j] to rounding
    rng = np.random.default_rng(q + 3 * m + 7 * K)
    model = FosModel(alpha=[0.4, 0.9], A=-0.2 * np.eye(2) + 0.1 * rng.normal(size=(2, 2)))
    C, B = rng.normal(size=(q, 2)), rng.normal(size=(2, m))
    u = rng.normal(size=(K, m))
    forced = _forced_output(model, B, C, u)
    A0, c = model.A + np.diag(model.alpha), build_weight_table(model.alpha, K)
    x = np.zeros((K, 2))
    for k in range(K - 1):
        x[k + 1] = A0 @ x[k] - np.einsum("nt,tn->n", c[:, 2 : k + 2][:, ::-1], x[:k]) + B @ u[k]
    assert np.array_equal(forced, x @ C.T)
    G = transition_matrices(model, K)
    lag_loop = np.zeros((K, q))
    for k in range(1, K):
        for j in range(k):
            lag_loop[k] += C @ G[k - 1 - j] @ B @ u[j]
    assert np.abs(forced - lag_loop).max(initial=0.0) <= 1e-12 * np.abs(lag_loop).max(initial=0.0)


def test_reconstruction_examples():
    m = n2_fixture()
    C = np.array([[1.0, 0.5]])
    zero = simulate_fos(m, [0.0, 0.0], K=4)
    x0 = reconstruct_initial_state(m, None, C, None, zero.states @ C.T, 4)
    assert np.abs(x0).max() <= 1e-12

    scalar = FosModel(alpha=[0.5], A=[[0.2]])
    traj = simulate_fos(scalar, [1.0], K=3)
    xr = reconstruct_initial_state(scalar, None, [[1.0]], None, traj.states, 3)
    assert xr[0] == pytest.approx(1.0, abs=1e-10)

    rng = np.random.default_rng(77)
    B = rng.normal(size=(2, 2))
    model = FosModel(alpha=m.alpha, A=m.A, B=B)
    x0 = rng.normal(size=2)
    u = rng.normal(size=(6, 2))
    tr = simulate_fos(model, x0, u=u, K=6)
    y = tr.states @ np.array([[1.0, 0.0], [0.2, 1.0]]).T
    xr = reconstruct_initial_state(model, B, [[1.0, 0.0], [0.2, 1.0]], u, y, 6)
    assert np.linalg.norm(xr - x0) <= 1e-8 * np.linalg.norm(x0)


def test_reconstruction_closure_random():
    for seed in range(25):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(1, 4))
        mdim = int(rng.integers(1, 3))
        K = int(rng.integers(n + 1, 9))
        model = FosModel(
            alpha=0.3 + 0.6 * rng.random(n), A=0.25 * rng.normal(size=(n, n)),
            B=rng.normal(size=(n, mdim)),
        )
        q = int(rng.integers(1, 3))
        C = rng.normal(size=(q, n))
        x0 = rng.normal(size=n)
        u = rng.normal(size=(K, mdim))
        traj = simulate_fos(model, x0, u=u, K=K)
        y = traj.states @ C.T
        xr = reconstruct_initial_state(model, None, C, u, y, K)
        assert np.linalg.norm(xr - x0) <= 1e-8 * np.linalg.norm(x0)


@pytest.mark.parametrize("c_cols,y_cols,u_cols,y_rows,message", [
    (2, 1, 1, 5, r"^y must have shape \(\*, 2\), got \(5, 1\)$"),
    (2, 3, 1, 5, r"^y must have shape \(\*, 2\), got \(5, 3\)$"),
    (2, 2, 2, 5, r"^u must have shape \(\*, 1\), got \(5, 2\)$"),
    (2, 2, 0, 5, r"^u must have shape \(\*, 1\), got \(5, 0\)$"),
    (2, 2, 1, 4, r"^y must have shape \(5, 2\), got \(4, 2\)$"),
    (3, 2, 1, 5, r"^C must have shape \(\*, 2\), got \(2, 3\)$"),
])
def test_reconstruction_names_a_wrong_width_in_the_callers_terms(c_cols, y_cols, u_cols, y_rows,
                                                                 message):
    model = FosModel(alpha=[0.5, 0.8], A=[[-0.2, 0.1], [0.0, -0.3]], B=[[1.0], [0.5]])
    K = 5
    with pytest.raises(DimensionError, match=message):
        reconstruct_initial_state(model, None, np.eye(2, c_cols), np.ones((K, u_cols)),
                                  np.ones((y_rows, y_cols)), K)


def test_not_observable():
    m = n2_fixture()
    with pytest.raises(NotObservable):
        reconstruct_initial_state(m, None, np.zeros((1, 2)), None, np.zeros((4, 1)), 4)


def test_reconstruction_raises_when_the_gramian_underflows_to_singular():
    # O_K = 1e-200 G has full rank, but its Gramian, near 1e-400, underflows to zero
    with pytest.raises(SingularError, match="^observability Gramian is singular at K=3: "):
        reconstruct_initial_state(n2_fixture(), None, 1e-200 * np.eye(2), None,
                                  np.zeros((3, 2)), 3)


def test_tf_eval_rational():
    inv_s = FractionalTransferFunction.rational([(1.0, 0.0)], [(1.0, 1.0)])
    assert tf_eval(inv_s, 2.0) == pytest.approx(0.5, abs=1e-15)

    const = FractionalTransferFunction.rational([(1.0, 0.0)], [(1.0, 0.0)])
    for s in (1.0, 1j, -3 + 2j):
        assert tf_eval(const, s) == pytest.approx(1.0, abs=0.0)


def test_tf_eval_state_space_half_order():
    tf = FractionalTransferFunction.state_space([[0.0]], [[1.0]], [[1.0]], [[0.0]], 0.5)
    val = tf_eval(tf, 1j)
    assert val == pytest.approx(np.exp(-1j * np.pi / 4), abs=1e-14)


@pytest.mark.parametrize("A,B,C,D,message", [
    (np.zeros((2, 3)), np.ones((2, 1)), np.ones((1, 2)), 0.0,
     r"^A must have shape \(2, 2\), got \(2, 3\)$"),
    (np.zeros((2, 2)), np.ones((3, 1)), np.ones((1, 2)), 0.0,
     r"^B must have shape \(2, \*\), got \(3, 1\)$"),
    (np.zeros((2, 2)), np.ones((2, 1)), np.ones((1, 3)), 0.0,
     r"^C must have shape \(\*, 2\), got \(1, 3\)$"),
    ([[0.0]], [[1.0]], [[1.0]], [[0.0, 0.0]], r"^D must have shape \(1, 1\), got \(1, 2\)$"),
    (-np.eye(2), np.eye(2), [1.0, 1.0], 0.25, r"^D must have shape \(1, 2\), got \(\)$"),
], ids=["A not square", "B rows", "C columns", "D size", "D a number for two inputs"])
def test_state_space_sizes_agree_with_A(A, B, C, D, message):
    with pytest.raises(DimensionError, match=message):
        FractionalTransferFunction.state_space(A, B, C, D, 0.5)


def test_state_space_at_zero_with_a_negative_order_is_a_domain_error():
    tf = FractionalTransferFunction.state_space([[0.0]], [[1.0]], [[1.0]], [[0.0]], -0.5)
    with pytest.raises(DomainError, match="^evaluation at s = 0 with a negative exponent$"):
        tf_eval(tf, 0.0)


def test_state_space_at_a_pole_is_a_domain_error():
    # s^0.5 = 1 = A at s = 1, so s^alpha I - A is singular
    tf = FractionalTransferFunction.state_space([[1.0]], [[1.0]], [[1.0]], [[0.0]], 0.5)
    with pytest.raises(DomainError, match=r"^transfer function has a pole at s = \(1\+0j\)$"):
        tf_eval(tf, 1.0)


def test_state_space_d_takes_its_shape_from_c_and_b():
    # q = 1 output and m = 2 inputs: a 1-D D is the row that fits
    tf = FractionalTransferFunction.state_space(-np.eye(2), np.eye(2), [1.0, 1.0], [0.25, 0.5],
                                                1.0)
    assert tf.ss[3].shape == (1, 2)
    np.testing.assert_allclose(tf_eval(tf, 1.0), [[0.75, 1.0]], rtol=1e-15)


def test_tf_eval_scaling_covariance():
    # power-of-two scale keeps the covariance exact in floating point
    rng = np.random.default_rng(1)
    num = [(0.7, 0.3), (1.1, 1.2)]
    den = [(1.0, 1.7), (0.4, 0.0)]
    tf = FractionalTransferFunction.rational(num, den)
    tf4 = FractionalTransferFunction.rational([(4.0 * c, e) for c, e in num], den)
    for _ in range(10):
        s = complex(rng.normal(), rng.normal())
        if s == 0:
            continue
        assert tf_eval(tf4, s) == 4.0 * tf_eval(tf, s)


def test_tf_eval_branch_warning_and_domain():
    tf = FractionalTransferFunction.rational([(1.0, 0.5)], [(1.0, 0.0)])
    with pytest.warns(BranchWarning):
        tf_eval(tf, -2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tf_eval(tf, -2.0 + 1e-9j)  # off the axis: no warning
    inv = FractionalTransferFunction.rational([(1.0, 0.0)], [(1.0, 1.0)])
    with pytest.raises(DomainError):
        tf_eval(inv, 0.0)


def test_tf_validation():
    with pytest.raises(DomainError):
        FractionalTransferFunction.rational([(1.0, 0.5)], [])
    with pytest.raises(DomainError):
        FractionalTransferFunction.rational([(1.0, -0.5)], [(1.0, 0.0)])


def test_fopid_examples():
    r = fopid_response(1.0, 0.0, 0.0, 0.7, 1.3, [10.0])
    assert r.response[0] == pytest.approx(1.0 + 0.0j, abs=0.0)

    r = fopid_response(1.0, 1.0, 0.0, 0.5, 1.0, [1.0])
    assert r.response[0] == pytest.approx(1.70710678118654752 - 0.70710678118654752j, abs=1e-14)

    r = fopid_response(2.0, 3.0, 0.5, 1.0, 1.0, [2.0])
    assert r.response[0] == pytest.approx(2.0 - 0.5j, abs=1e-14)


def test_fopid_integer_orders_match_classic_pid():
    omegas = np.logspace(-2, 2, 221)
    kp, ki, kd = 2.0, 3.0, 0.5
    r = fopid_response(kp, ki, kd, 1.0, 1.0, omegas)
    classic = kp + ki / (1j * omegas) + kd * (1j * omegas)
    np.testing.assert_allclose(r.response, classic, atol=1e-12)
    assert r.mag_db.shape == omegas.shape and r.phase_deg.shape == omegas.shape


def test_fopid_rejects_nonpositive_frequency():
    with pytest.raises(DomainError):
        fopid_response(1, 1, 1, 0.5, 0.5, [0.0])


@pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
def test_fopid_rejects_non_finite_frequencies(omega):
    with pytest.raises(DomainError, match="^omegas entries must be finite$"):
        fopid_response(1, 1, 1, 0.5, 0.5, [1.0, omega])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot,name", enumerate(["kp", "ki", "kd", "lam", "mu"]))
def test_fopid_rejects_a_non_finite_gain_or_order(slot, name, bad):
    args = [1.0, 1.0, 1.0, 0.5, 0.5]
    args[slot] = bad
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        fopid_response(*args, [1.0])
