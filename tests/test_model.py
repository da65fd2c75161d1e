import numpy as np
import pytest

from fracdyn import (
    DimensionError,
    DomainError,
    FosModel,
    MultiTermNetwork,
    SingularError,
    aj_series,
    augment_p,
    augment_v,
    network_series,
    simulate_augmented,
    simulate_fos,
    simulate_network,
)
from fracdyn.fileio import canonical_json, model_from_dict, model_to_dict
from fracdyn.fraccore import build_weight_table


def test_fos_model_validation():
    with pytest.raises(DimensionError):
        FosModel(alpha=[0.5, 0.6], A=[[0.2]])
    with pytest.raises(DimensionError):
        FosModel(alpha=[2.5], A=[[0.2]])  # outside [-1, 2)
    with pytest.raises(DomainError):
        FosModel(alpha=[np.nan], A=[[0.2]])
    m = FosModel(alpha=[0.5], A=[[0.2]], B=[[1.0]])
    assert (m.n, m.m, m.p) == (1, 1, 1)
    assert not m.A.flags.writeable


def test_aj_series_integer_order_collapse():
    A = np.array([[0.1, 0.2], [0.0, -0.3]])
    m = FosModel(alpha=[1.0, 1.0], A=A)
    blocks = aj_series(m, 2)
    np.testing.assert_allclose(blocks[0], A + np.eye(2), atol=0.0)
    assert np.abs(blocks[1]).max() == 0.0
    assert np.abs(blocks[2]).max() == 0.0


def test_aj_series_scalar_derived():
    m = FosModel(alpha=[0.5], A=[[0.2]])
    blocks = aj_series(m, 1)
    assert blocks[0][0, 0] == pytest.approx(0.7, abs=0.0)
    assert blocks[1][0, 0] == pytest.approx(0.125, abs=0.0)


def test_aj_series_empty_model():
    m = FosModel(alpha=np.zeros(0), A=np.zeros((0, 0)))
    blocks = aj_series(m, 3)
    assert len(blocks) == 4
    assert all(b.shape == (0, 0) for b in blocks)


def test_sign_correctness_fractional_difference_residual():
    # simulating with the A_j series must satisfy the defining relation
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        alpha = 0.3 + 0.6 * rng.random(n)
        A = 0.3 * rng.normal(size=(n, n))
        m = FosModel(alpha=alpha, A=A)
        traj = simulate_fos(m, rng.normal(size=n), K=20)
        table = build_weight_table(alpha, 21)
        for k in range(20):
            lhs = np.einsum(
                "nj,jn->n", table[:, : k + 2], traj.states[k + 1 :: -1, :]
            )
            np.testing.assert_allclose(lhs, A @ traj.states[k], atol=1e-10)


def test_augment_p_depth_one_scalar():
    m = FosModel(alpha=[0.5], A=[[0.2]])
    aug = augment_p(m, 1)
    np.testing.assert_allclose(aug.Atil, [[0.7]], atol=0.0)


def test_augment_p_structure():
    rng = np.random.default_rng(3)
    m = FosModel(alpha=[0.4, 0.9], A=rng.normal(size=(2, 2)))
    aug = augment_p(m, 3)
    assert aug.Atil.shape == (6, 6)
    np.testing.assert_allclose(aug.Atil[2:4, 0:2], np.eye(2), atol=0.0)
    np.testing.assert_allclose(aug.Atil[4:6, 2:4], np.eye(2), atol=0.0)
    assert np.abs(aug.Atil[2:, 4:]).max() == 0.0
    blocks = aj_series(m, 2)
    for j in range(3):
        np.testing.assert_allclose(aug.Atil[0:2, 2 * j : 2 * j + 2], blocks[j], atol=0.0)


def test_augment_p_scalar_derived_matrix():
    m = FosModel(alpha=[0.5], A=[[0.2]])
    aug = augment_p(m, 2)
    np.testing.assert_allclose(aug.Atil, [[0.7, 0.125], [1.0, 0.0]], atol=0.0)


@pytest.mark.parametrize("build, field", [
    (lambda bad: FosModel(alpha=[0.5], A=bad), "A"),
    (lambda bad: FosModel(alpha=[0.5], A=[[0.2]], B=bad), "B"),
    (lambda bad: FosModel(alpha=[0.5], A=[[0.2]], Bw=bad), "Bw"),
    (lambda bad: MultiTermNetwork(state_terms=((0.5, bad),)), "state term"),
    (lambda bad: MultiTermNetwork(state_terms=((0.5, [[1.0]]),), input_terms=((0.5, bad),)),
     "input term"),
    (lambda bad: MultiTermNetwork(state_terms=((0.5, [[1.0]]),),
                                  disturbance_terms=((0.5, bad),)), "disturbance term"),
    (lambda bad: MultiTermNetwork(state_terms=((0.5, [[1.0]]),), C=bad), "C"),
    (lambda bad: MultiTermNetwork(state_terms=((0.5, [[1.0]]),), C=[bad, [[1.0]]]), "C"),
])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_entries_are_domain_errors(build, field, value):
    with pytest.raises(DomainError, match=f"^{field} entries must be finite"):
        build([[value]])


@pytest.mark.parametrize("terms", [None, 5, [5], [(None, [[1.0]])], [("x", [[1.0]])],
                                   [(0.5,)], [(np.inf, [[1.0]])], [(np.nan, [[1.0]])]])
def test_malformed_state_terms_are_dimension_errors(terms):
    with pytest.raises(DimensionError, match="state term"):
        MultiTermNetwork(state_terms=terms)


def test_non_numeric_or_nested_fields_are_dimension_errors():
    with pytest.raises(DimensionError, match="alpha must be numbers"):
        FosModel(alpha={}, A=[[0.2]])
    with pytest.raises(DimensionError, match="A must be numbers"):
        FosModel(alpha=[0.5, 0.5], A=[[0.2], [0.1, 0.3]])
    with pytest.raises(DimensionError, match="B must be a matrix"):
        FosModel(alpha=[0.5], A=[[0.2]], B=[[[1.0]]])


def test_augment_p_rejects_bad_depth():
    m = FosModel(alpha=[0.5], A=[[0.2]])
    with pytest.raises(DomainError, match="^augmentation depth p must be >= 1$"):
        augment_p(m, 0)


def test_companion_square_two_ways():
    rng = np.random.default_rng(5)
    m = FosModel(alpha=[0.4, 0.8], A=0.5 * rng.normal(size=(2, 2)))
    aug = augment_p(m, 4)
    dense = aug.Atil @ aug.Atil
    # shift structure: rows below the top block of A^2 replicate A shifted down
    n, p = 2, 4
    shifted = np.zeros_like(dense)
    shifted[:n] = aug.Atil[:n] @ aug.Atil
    shifted[n:] = aug.Atil[: (p - 1) * n]
    np.testing.assert_allclose(dense, shifted, atol=1e-12)


def test_network_validation():
    with pytest.raises(DimensionError):
        MultiTermNetwork(state_terms=((0.5, [[1.0]]), (-0.2, [[1.0]])))
    with pytest.raises(SingularError):
        MultiTermNetwork(state_terms=((0.5, [[1.0]]), (0.7, [[-1.0]])))
    net = MultiTermNetwork(state_terms=((0.5, [[2.0]]),))
    assert net.lead_condition == pytest.approx(1.0)
    assert (net.n, net.m, net.p, net.q) == (1, 0, 0, 1)


def test_network_series_single_term_unit_order():
    net = MultiTermNetwork(state_terms=((1.0, np.eye(2)),))
    s = network_series(net, 4)
    np.testing.assert_allclose(s.A[1], np.eye(2), atol=0.0)
    for j in range(2, 5):
        assert np.abs(s.A[j]).max() == 0.0


def test_network_series_zero_disturbance_terms():
    net = MultiTermNetwork(state_terms=((0.5, [[1.0]]),))
    s = network_series(net, 3)
    assert s.G.shape == (4, 1, 0)


def test_network_series_two_term_scalar_derived():
    net = MultiTermNetwork(state_terms=((0.5, [[1.0]]), (0.25, [[1.0]])))
    s = network_series(net, 1)
    assert s.A[1][0, 0] == pytest.approx(0.375, abs=0.0)


def test_network_series_matches_aj_series_with_offset():
    # a zero-coupling single-term model: A_j of the memory series equals the
    # lag j+1 coefficient of the reduced network series
    m = FosModel(alpha=[0.7], A=[[0.0]])
    blocks = aj_series(m, 4)
    net = MultiTermNetwork(state_terms=((0.7, [[1.0]]),))
    s = network_series(net, 5)
    for j in range(5):
        np.testing.assert_allclose(blocks[j], s.A[j + 1], atol=1e-15)


def test_network_series_brute_force_multichannel():
    rng = np.random.default_rng(0)
    A1 = rng.normal(size=(3, 3)) + 4 * np.eye(3)
    A2 = 0.3 * rng.normal(size=(3, 3))
    B1 = rng.normal(size=(3, 2))
    net = MultiTermNetwork(
        state_terms=((0.5, A1), (0.9, A2)), input_terms=((0.4, B1),)
    )
    s = network_series(net, 5)
    lead = A1 + A2
    w5 = build_weight_table([0.5], 5)[0]
    w9 = build_weight_table([0.9], 5)[0]
    w4 = build_weight_table([0.4], 5)[0]
    for j in range(1, 6):
        expect = -np.linalg.solve(lead, A1 * w5[j] + A2 * w9[j])
        np.testing.assert_allclose(s.A[j], expect, atol=1e-12)
    for j in range(6):
        np.testing.assert_allclose(s.B[j], np.linalg.solve(lead, B1 * w4[j]), atol=1e-12)


def test_network_series_tabulates_every_exponent_in_one_call(monkeypatch):
    # one weight table for all terms; each row keeps the bits of its one-order table
    import fracdyn.model as model

    rng = np.random.default_rng(3)
    A1 = rng.normal(size=(3, 3)) + 4 * np.eye(3)
    A2 = 0.3 * rng.normal(size=(3, 3))
    B1 = rng.normal(size=(3, 2))
    net = MultiTermNetwork(state_terms=((0.35, A1), (1.3, A2)), input_terms=((0.8, B1),))
    J = 40
    calls = []
    monkeypatch.setattr(model, "build_weight_table",
                        lambda a, J: calls.append(list(a)) or build_weight_table(a, J))
    s = network_series(net, J)
    assert calls == [[0.35, 1.3, 0.8]]

    def reference(terms, cols, first):
        # per-term tables summed in term order, then one solve over lags first..J
        out = np.zeros((J + 1, 3, cols))
        for exponent, mat in terms:
            out += build_weight_table([exponent], J)[0][:, None, None] * mat[None, :, :]
        flat = np.linalg.solve(A1 + A2, out[first:].transpose(1, 0, 2).reshape(3, -1))
        return flat.reshape(3, J + 1 - first, cols).transpose(1, 0, 2)

    assert not s.A[0].any()
    assert s.A[1:].tobytes() == (-reference(net.state_terms, 3, 1)).tobytes()
    assert s.B.tobytes() == reference(net.input_terms, 2, 0).tobytes()
    assert s.G.shape == (J + 1, 3, 0)


def test_augment_v_dimensions():
    net = MultiTermNetwork(
        state_terms=((0.5, [[1.0]]),), input_terms=((0.5, [[1.0]]),)
    )
    aug = augment_v(net, 1)
    assert aug.dim == 2  # one state lane plus one input lane
    assert aug.kind == "v-approx"
    with pytest.raises(DomainError, match="^truncation depth v must be >= 1$"):
        augment_v(net, 0)


@pytest.mark.parametrize("v", [1, 2, 3])
def test_augment_v_exact_for_first_v_steps(v):
    rng = np.random.default_rng(5)
    net = MultiTermNetwork(
        state_terms=(
            (0.5, np.array([[0.8, 0.1], [0.0, 0.9]])),
            (0.9, 0.2 * rng.normal(size=(2, 2))),
        ),
        input_terms=((0.6, np.array([[1.0], [0.5]])),),
    )
    u = rng.normal(size=(8, 1))
    full = simulate_network(net, [1.0, -1.0], u=u, K=8)
    lifted = simulate_augmented(augment_v(net, v), [1.0, -1.0], u=u, K=8)
    np.testing.assert_allclose(lifted.states[: v + 1], full.states[: v + 1], atol=1e-12)
    assert np.abs(lifted.states[v + 1] - full.states[v + 1]).max() > 1e-12


def test_augment_v_exact_everywhere_without_tail():
    # integer orders truncate, so the depth-1 lift is exact for all steps
    net = MultiTermNetwork(
        state_terms=((1.0, [[0.8]]),), input_terms=((1.0, [[1.0]]),)
    )
    rng = np.random.default_rng(2)
    u = rng.normal(size=(12, 1))
    full = simulate_network(net, [0.7], u=u, K=12)
    lifted = simulate_augmented(augment_v(net, 2), [0.7], u=u, K=12)
    np.testing.assert_allclose(lifted.states, full.states, atol=1e-12)


def test_model_serialization_round_trip_is_byte_identical():
    m = FosModel(alpha=[0.5, 1.4881], A=[[0.2, -0.1], [1 / 3, 0.7]],
                 B=[[1.0], [0.0]], Bw=np.eye(2))
    text1 = canonical_json(model_to_dict(m))
    m2 = model_from_dict(__import__("json").loads(text1))
    text2 = canonical_json(model_to_dict(m2))
    assert text1 == text2
    np.testing.assert_allclose(m2.A, m.A, atol=0.0)

    net = MultiTermNetwork(
        state_terms=((0.5, [[1.0, 0.1], [0.0, 1.0]]), (0.9, np.eye(2) * 0.3)),
        input_terms=((0.4, [[1.0], [2.0]]),),
        disturbance_terms=((0.7, np.eye(2)),),
        C=[[1.0, 0.0]],
    )
    t1 = canonical_json(model_to_dict(net))
    net2 = model_from_dict(__import__("json").loads(t1))
    assert canonical_json(model_to_dict(net2)) == t1
