"""The block loops the companion lifts were once written as, held against the library.

``augment_p`` and ``augment_v`` place copies of the model's coefficients into
zero matrices, so the library must reproduce these loops bit for bit: every
entry of ``Atil``, ``Btil``, ``Gtil`` and ``Ctil``, and the row structure the
filter step reads from them.
"""

import numpy as np
import pytest

from fracdyn import FosModel, MultiTermNetwork, aj_series, augment_p, augment_v, network_series


def loop_augment_p(model, p):
    n, m = model.n, model.m
    blocks = aj_series(model, p - 1)
    Atil = np.zeros((p * n, p * n))
    for j, Aj in enumerate(blocks):
        Atil[:n, j * n : (j + 1) * n] = Aj
    for i in range(1, p):
        Atil[i * n : (i + 1) * n, (i - 1) * n : i * n] = np.eye(n)
    Btil = np.zeros((p * n, m))
    Btil[:n, :] = model.B
    Gtil = np.zeros((p * n, model.p))
    Gtil[:n, :] = model.Bw
    Ctil = np.zeros((n, p * n))
    Ctil[:, :n] = np.eye(n)
    return Atil, Btil, Gtil, Ctil


def loop_augment_v(net, v):
    n, m, q = net.n, net.m, net.q
    series = network_series(net, v)
    d = v * (n + m)
    Atil = np.zeros((d, d))
    for j in range(1, v + 1):
        Atil[:n, (j - 1) * n : j * n] = series.A[j]
        if m:
            Atil[:n, v * n + (j - 1) * m : v * n + j * m] = series.B[j]
    for i in range(1, v):
        Atil[i * n : (i + 1) * n, (i - 1) * n : i * n] = np.eye(n)
        if m:
            r = v * n + i * m
            Atil[r : r + m, r - m : r] = np.eye(m)
    Btil = np.zeros((d, m))
    if m:
        Btil[:n, :] = series.B[0]
        Btil[v * n : v * n + m, :] = np.eye(m)
    Gtil = np.zeros((d, n))
    Gtil[:n, :] = np.eye(n)
    Ctil = np.zeros((q, d))
    Ctil[:, :n] = net.output_map(0)
    return Atil, Btil, Gtil, Ctil


def assert_lift_is(aug, expected):
    """Bitwise equal matrices, and the row structure derived from them."""
    for name, want in zip(("Atil", "Btil", "Gtil", "Ctil"), expected):
        assert np.array_equal(getattr(aug, name), want), name
    # rows depends on the matrices alone, so a lift built from the oracle's
    # matrices must give the same copy runs, dense rows and noise rows
    oracle = type(aug)(aug.kind, aug.depth, *expected, aug.n, aug.m, aug.q)
    assert aug.rows.copies == oracle.rows.copies
    assert np.array_equal(aug.rows.dense, oracle.rows.dense)
    assert np.array_equal(aug.rows.noise, oracle.rows.noise)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("p", range(1, 7))
def test_augment_p_matches_the_block_loop(m, p):
    rng = np.random.default_rng(10 * m + p)
    n = int(rng.integers(1, 4))
    model = FosModel(alpha=rng.uniform(0.1, 1.9, size=n), A=rng.normal(size=(n, n)),
                     B=rng.normal(size=(n, m)), Bw=rng.normal(size=(n, int(rng.integers(1, 3)))))
    assert_lift_is(augment_p(model, p), loop_augment_p(model, p))


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("schedule", [False, True])
@pytest.mark.parametrize("v", range(1, 7))
def test_augment_v_matches_the_block_loop(m, schedule, v):
    rng = np.random.default_rng(100 + 10 * v + m + 2 * schedule)
    n = 3
    net = MultiTermNetwork(
        state_terms=((1.0, np.eye(n) + 0.1 * rng.normal(size=(n, n))),
                     (0.6, -0.3 * np.eye(n) + 0.05 * rng.normal(size=(n, n)))),
        input_terms=((0.4, rng.normal(size=(n, m))),) if m else (),
        disturbance_terms=((0.8, 0.2 * rng.normal(size=(n, 2))),),
        C=rng.normal(size=(5, 2, n)) if schedule else rng.normal(size=(2, n)))
    assert_lift_is(augment_v(net, v), loop_augment_v(net, v))
