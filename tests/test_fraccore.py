import numpy as np
import pytest

from fracdyn import (
    DimensionError,
    DomainError,
    build_weight_table,
    frac_difference,
)
from fracdyn.fraccore import MemoryTail, _array, _square
from gl_oracle import GammaPole, gl_weight_gamma

ALPHA_GRID = [round(0.1 * k, 1) for k in range(1, 20) if k != 10]


def weight(alpha, j):
    """The lag-j weight at order alpha, from a one-order table of horizon j."""
    return float(build_weight_table([alpha], j)[0, j])


def test_recursive_trivials():
    assert weight(0.5, 0) == 1.0
    assert weight(1.0, 2) == 0.0  # integer order truncates
    assert weight(0.5, 2) == -0.125


def test_recursive_first_weight_is_minus_alpha():
    for a in ALPHA_GRID:
        assert weight(a, 1) == pytest.approx(-a, abs=0.0)


def test_gamma_trivials():
    assert gl_weight_gamma(0.3, 0) == pytest.approx(1.0, rel=1e-14)
    assert gl_weight_gamma(0.3, 1) == pytest.approx(-0.3, rel=1e-13)
    assert gl_weight_gamma(0.5, 2) == pytest.approx(-0.125, rel=1e-13)


def test_gamma_pole_raises_and_recursive_covers():
    for a in (0.0, 1.0, 2.0):
        with pytest.raises(GammaPole):
            gl_weight_gamma(a, 3)
        # the table is total where the Gamma path has poles
        weight(a, 3)


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_cross_formula_agreement(alpha):
    for j in range(0, 201):
        r = weight(alpha, j)
        g = gl_weight_gamma(alpha, j)
        assert abs(g - r) <= 1e-12 * max(1.0, abs(r))


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_partial_sum_identity(alpha):
    # sum_{j<=J} c_j^alpha equals c_J^{alpha-1}
    total = 0.0
    for J in range(0, 101):
        total += weight(alpha, J)
        ref = weight(alpha - 1.0, J)
        assert total == pytest.approx(ref, rel=1e-10, abs=1e-13)


def test_a_table_of_two_dimensional_orders_is_a_domain_error():
    with pytest.raises(DomainError, match="^alphas must be a vector$"):
        build_weight_table([[0.5, 0.2]], 3)


def test_table_invariants():
    t = build_weight_table([0.5], 2)
    np.testing.assert_allclose(t, [[1.0, -0.5, -0.125]], atol=0.0)
    t2 = build_weight_table([1.0, 1.0], 3)
    np.testing.assert_allclose(t2, [[1, -1, 0, 0], [1, -1, 0, 0]], atol=0.0)
    empty = build_weight_table([], 5)
    assert empty.shape == (0, 6)
    # the table is the read-only (orders, J + 1) array itself; row i starts 1, -alphas[i]
    alphas = [0.3, 1.0, 1.7, -0.4]
    t3 = build_weight_table(alphas, 7)
    assert isinstance(t3, np.ndarray) and t3.shape == (len(alphas), 8)
    for row, a in zip(t3, alphas):
        assert row[0] == 1.0 and row[1] == -a
    with pytest.raises(ValueError):
        t3[0, 1] = 0.0


def test_table_matches_pointwise():
    t = build_weight_table(ALPHA_GRID, 60)
    for i, a in enumerate(ALPHA_GRID):
        for j in range(61):
            assert t[i, j] == pytest.approx(weight(a, j), abs=0.0)


def test_frac_difference_examples():
    np.testing.assert_allclose(frac_difference([3.0, 5.0], [1.0], 1), [2.0], atol=0.0)
    const = np.full(10, 4.2)
    for k in range(10):
        np.testing.assert_allclose(frac_difference(const, [0.0], k), [4.2], atol=0.0)
    np.testing.assert_allclose(frac_difference([1.0, 1.0, 1.0], [0.5], 2), [0.375], atol=1e-15)


def test_frac_difference_first_difference_uses_zero_history():
    # x[-1] = 0, so the k = 0 first difference is x[0] itself
    np.testing.assert_allclose(frac_difference([3.0, 5.0], [1.0], 0), [3.0], atol=0.0)


def test_frac_difference_index_errors():
    with pytest.raises(IndexError):
        frac_difference([1.0, 2.0], [0.5], 2)
    with pytest.raises(IndexError):
        frac_difference([1.0, 2.0], [0.5], -1)


def test_frac_difference_linearity():
    rng = np.random.default_rng(7)
    alphas = [0.3, 0.8, 1.4]
    x = rng.normal(size=(32, 3))
    y = rng.normal(size=(32, 3))
    a, b = 1.7, -0.4
    table = build_weight_table(alphas, 31)
    for k in (0, 5, 17, 31):
        lhs = frac_difference(a * x + b * y, alphas, k, table)
        rhs = a * frac_difference(x, alphas, k, table) + b * frac_difference(y, alphas, k, table)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_frac_difference_precomputed_table_horizon_check():
    table = build_weight_table([0.5], 2)
    from fracdyn.errors import DomainError

    with pytest.raises(DomainError):
        frac_difference(np.ones(10), [0.5], 5, table)


def direct_convolution(kernel, states, k):
    """sum_{j=0..k} kernel[j] . states[k-j], one lag at a time."""
    out = 0.0
    for j in range(k + 1):
        if kernel.ndim == 2:
            out = out + kernel[j].reshape((-1,) + (1,) * (states.ndim - 2)) * states[k - j]
        else:
            out = out + np.tensordot(kernel[j], states[k - j], axes=1)
    return out


@pytest.mark.parametrize("kernel_shape", [(2,), (2, 3)], ids=["diagonal", "matrix"])
@pytest.mark.parametrize("extra", [(), (4,)], ids=["vector states", "matrix states"])
def test_memory_tail_is_the_causal_convolution(kernel_shape, extra):
    # 300 steps reach far-field blocks of 64 and 128 steps; the states are
    # written one step ahead of the sum, as a stepper writes them
    rng = np.random.default_rng(4)
    T = 300
    decay = 1.0 / (1.0 + np.arange(T + 5))
    kernel = rng.normal(size=(T + 5,) + kernel_shape)
    kernel *= decay.reshape((-1,) + (1,) * len(kernel_shape))
    source = rng.normal(size=(T, kernel_shape[-1]) + extra)
    states = np.zeros_like(source)
    tail = MemoryTail(kernel, states)
    scale = 0.0
    for k in range(T):
        states[k] = source[k]
        got, want = tail(k), direct_convolution(kernel, states, k)
        assert got.shape == (kernel_shape[0],) + extra
        scale = max(scale, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-12 * scale, k


def test_memory_tail_rejects_a_kernel_shorter_than_the_history():
    with pytest.raises(DomainError, match="shorter than the state history"):
        MemoryTail(np.ones((9, 2, 2)), np.zeros((10, 2)))
    with pytest.raises(DomainError, match="shorter than the state history"):
        MemoryTail(np.ones((9, 2)), np.zeros((10, 2)))


@pytest.mark.parametrize("value,shape,series,want", [
    (2.0, (1,), False, [2.0]),
    (2.0, (None, None), False, [[2.0]]),
    ([1.0, 2.0], (None, None), False, [[1.0, 2.0]]),  # a matrix takes it as a row
    ([1.0, 2.0], (None, None), True, [[1.0], [2.0]]),  # a series as one channel
    ([1.0, 2.0], (1, None), True, [[1.0, 2.0]]),  # one sample: a row fits
    ([1.0, 2.0], (None, 2), True, [[1.0, 2.0]]),
    ([1.0, 2.0], (None, 1), False, [[1.0], [2.0]]),  # a row does not fit: a column
    ([1.0, 2.0], (2, None), False, [[1.0], [2.0]]),
    ([[1.0, 2.0]], (None, 2), False, [[1.0, 2.0]]),
])
def test_a_1d_value_is_a_row_where_one_fits_else_a_column(value, shape, series, want):
    got = _array(value, "v", shape, series=series)
    np.testing.assert_array_equal(got, want, strict=True)


@pytest.mark.parametrize("value,shape,message", [
    ([1.0, 2.0], (3,), "^v must have length 3$"),
    ([[1.0, 2.0]], (2,), "^v must have length 2$"),
    ([1.0, 2.0, 3.0], (2, 2), r"^v must have shape \(2, 2\), got \(3,\)$"),
    ([[1.0], [2.0]], (1, 2), r"^v must have shape \(1, 2\), got \(2, 1\)$"),  # no transpose
    ([[1.0, 2.0]], (None, 3), r"^v must have shape \(\*, 3\), got \(1, 2\)$"),
    ([[[1.0]]], (None, None), r"^v must have shape \(\*, \*\), got \(1, 1, 1\)$"),
    ([[1.0]], (None, None, 2), r"^v must have shape \(\*, \*, 2\), got \(1, 1\)$"),
])
def test_another_shape_is_a_dimension_error_naming_the_value(value, shape, message):
    with pytest.raises(DimensionError, match=message):
        _array(value, "v", shape)


def test_a_square_matrix_takes_its_size_from_its_rows():
    np.testing.assert_array_equal(_square(3.0, "A"), [[3.0]], strict=True)
    with pytest.raises(DimensionError, match=r"^A must have shape \(1, 1\), got \(1, 2\)$"):
        _square([1.0, 2.0], "A")
