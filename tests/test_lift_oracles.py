"""The block loops the companion lifts were once written as, held against the library.

``augment_p`` and ``augment_v`` place copies of the model's coefficients into
zero matrices, so the library must reproduce these loops bit for bit: every
entry of ``Atil``, ``Btil``, ``Gtil`` and ``Ctil``.  The filter reads the
layout the lift declares (dense and noise rows on top, identity runs below)
without looking at the matrices, so every lift must have it, and a hand-built
lift without it must be refused.
"""

import numpy as np
import pytest

from fracdyn import (
    AugmentedModel, DimensionError, FosModel, MultiTermNetwork, aj_series, augment_p, augment_v,
    network_series)


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
    """Bitwise equal matrices, laid out as the lift declares."""
    for name, want in zip(("Atil", "Btil", "Gtil", "Ctil"), expected):
        assert np.array_equal(getattr(aug, name), want), name
    assert_layout(aug)


def assert_layout(aug):
    """Each declared copy run is exact unit rows, and every other row below n is zero."""
    n, d, A = aug.n, aug.dim, aug.Atil
    runs = aug.copies
    assert len(runs) == (2 if d > aug.depth * n else 1)
    copied = np.zeros(d, dtype=bool)
    for row, src, size in runs:
        assert np.array_equal(A[row : row + size], np.eye(d)[src : src + size])
        copied[row : row + size] = True
    assert copied[n:].sum() == d - n - (aug.m if len(runs) == 2 else 0)
    assert not A[n:][~copied[n:]].any()  # the fresh-input rows of a v-lift
    assert not aug.Gtil[n:].any()
    # a hand-built lift with one more nonzero in a copy row does not have the layout
    if d > n:
        bad = A.copy()
        bad[n, 1] += 0.5
        with pytest.raises(DimensionError):
            AugmentedModel(aug.kind, aug.depth, bad, aug.Btil, aug.Gtil, aug.Ctil,
                           aug.n, aug.m, aug.q)


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


def test_a_lift_without_the_companion_layout_is_refused():
    model = FosModel(alpha=[0.5, 0.7], A=[[0.1, 0.2], [0.0, -0.1]], B=[[1.0], [0.0]])
    aug = augment_p(model, 3)
    fields = dict(kind=aug.kind, depth=aug.depth, Atil=aug.Atil, Btil=aug.Btil, Gtil=aug.Gtil,
                  Ctil=aug.Ctil, n=aug.n, m=aug.m, q=aug.q)
    AugmentedModel(**fields)
    unit = aug.Atil.copy()
    unit[2, 0] = 2.0  # a copy row that scales its source
    noise = aug.Gtil.copy()
    noise[3, 0] = 1.0  # noise below the top block
    for change in (dict(Atil=unit), dict(Gtil=noise), dict(Atil=aug.Atil[:5, :5]),
                   dict(depth=2), dict(n=1), dict(m=3), dict(q=1)):
        with pytest.raises(DimensionError):
            AugmentedModel(**{**fields, **change})
