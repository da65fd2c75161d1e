"""Model containers for fractional systems and their finite-memory LTI lifts.

Two model classes are provided.  :class:`FosModel` is the single-term system

    D^alpha x[k+1] = A x[k] + B u[k] + Bw w[k],

with one fractional order per state channel.  :class:`MultiTermNetwork` is the
multi-term network with separate fractional terms on state, input, and
disturbance, plus an output map.  Both follow the recursion
x[k+1] = sum_j M_j x[k-j] + sum_j B_j u[k-j] + sum_j G_j w[k-j], and both admit
finite-memory LTI lifts (:class:`AugmentedModel`) from one block-companion
builder: the depth-p lift of the single-term system over its last ``p``
states, and the depth-v truncation of a network that also stacks the last
``v`` inputs and routes the truncated tail through a disturbance column.
:class:`Trajectory` is the record of a run or a measurement that every stage
reads and the simulators write; it lives here, not in ``simulate``, so that a
stage that only reads trajectories does not load the simulators.

Every record of the package is a named tuple: it unpacks and indexes, cannot
be assigned to, and ``==`` on its array fields raises as numpy's ``==`` does.
A record that checks and normalises its inputs does so in ``__new__``, which
``_replace`` skips; build a changed record with its constructor.
"""

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import _NAMES
from .errors import DimensionError, NotSPD, SingularError
from .fraccore import _array, _count, _real, _square, build_weight_table

__all__ = _NAMES["model"]

def _as_weight(value, name: str, semidefinite: bool = False) -> np.ndarray:
    """A quadratic weight with its blocks symmetrised.

    A number is that multiple of I, a vector is the diagonal, then a matrix,
    or a (T, s, s) schedule whose block k weights step k.  Every block must be
    square, symmetric to 1e-9 (1 + its largest magnitude) and positive
    definite (semidefinite with ``semidefinite``); NotSPD names ``name``
    otherwise.
    """
    W = _array(value, name)
    if W.ndim > 3 or W.ndim >= 2 and W.shape[-1] != W.shape[-2]:
        raise NotSPD(f"{name} must be a number, a diagonal, a square matrix or a (T, s, s) "
                     f"schedule, got shape {W.shape}")
    # every form as a stack of blocks; a number and a diagonal make one diagonal block
    blocks = W if W.ndim >= 2 else np.diag(np.atleast_1d(W))
    blocks = blocks if blocks.ndim == 3 else blocks[None]
    scale = np.abs(blocks).max(axis=(1, 2), initial=0.0)
    if np.any(np.abs(blocks - blocks.swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
              > 1e-9 * (1.0 + scale)):
        raise NotSPD(f"{name} must be symmetric")
    # halve before adding, so that weights near the float limit do not overflow
    blocks = 0.5 * blocks + 0.5 * blocks.swapaxes(1, 2)
    low = np.linalg.eigvalsh(blocks).min(axis=1, initial=np.inf)
    if semidefinite and np.any(low < -1e-12 * np.maximum(1.0, scale)):
        raise NotSPD(f"{name} must be positive semidefinite")
    if not semidefinite and np.any(low <= 0.0):
        raise NotSPD(f"{name} must be positive definite")
    return blocks.reshape(W.shape) if W.ndim >= 2 else W.copy()


def _weight_block(W: np.ndarray, k: int, size: int, name: str) -> np.ndarray:
    """Block ``k`` of a weight from ``_as_weight`` as a size-by-size matrix.

    A number, a diagonal or a matrix weights every step alike; a schedule must
    cover step k.  DimensionError names ``name`` otherwise.
    """
    block = W
    if W.ndim == 3:
        if k >= W.shape[0]:
            raise DimensionError(f"{name} must cover step {k}; its schedule has {W.shape[0]} steps")
        block = W[k]
    if block.ndim == 0:
        return float(block) * np.eye(size)
    if block.shape[0] != size:
        raise DimensionError(f"{name} must have {size}x{size} blocks, got shape {W.shape}")
    return np.diag(block) if block.ndim == 1 else block


def _as_prior(value, n: int, dim: int, name: str) -> np.ndarray:
    """An initial state of a lift of dimension ``dim`` over ``n`` base states.

    A number sets every base state and a length-n vector is the base state,
    both with the history zero; a length-``dim`` vector is the lifted state.
    DimensionError (another shape) or DomainError (non-finite) names ``name``.
    """
    x = _array(value, name)
    if x.shape == (dim,):
        return x.copy()
    if x.shape not in ((), (n,)):
        raise DimensionError(f"{name} must be a number or have length {n} or {dim}, "
                             f"got shape {x.shape}")
    z = np.zeros(dim)
    z[:n] = x
    return z


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class FosModel(namedtuple("FosModel", "alpha A B Bw")):
    """Single-term fractional system with per-channel orders.

    Parameters accept scalars or nested lists for convenience; everything is
    normalized to read-only float arrays.  ``Bw`` defaults to the identity
    (noise enters the state equation directly), ``B`` to an empty n-by-0
    matrix (autonomous system).
    """

    __slots__ = ()

    def __new__(cls, alpha, A, B=None, Bw=None):
        A = _square(A, "A")
        n = A.shape[0]
        alpha = _array(alpha, "alpha", (n,))
        if np.any(alpha < -1.0) or np.any(alpha >= 2.0):
            raise DimensionError("alpha entries must lie in [-1, 2)")
        B = np.zeros((n, 0)) if B is None else _array(B, "B", (n, None))
        Bw = np.eye(n) if Bw is None else _array(Bw, "Bw", (n, None))
        return super().__new__(cls, *map(_freeze, (alpha, A, B, Bw)))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.Bw.shape[1]

    def is_commensurate(self) -> bool:
        return self.n > 0 and bool(np.all(self.alpha == self.alpha[0]))


class MultiTermNetwork(namedtuple("MultiTermNetwork",
                                  "state_terms input_terms disturbance_terms C lead_condition")):
    """Multi-term fractional network with output map.

    ``state_terms``, ``input_terms``, and ``disturbance_terms`` are lists of
    ``(exponent, matrix)`` pairs; all exponents must be positive.  The sum of
    the state-term matrices is the lead matrix that the reduced series divides
    by, so its condition number is checked at construction (reject above 1e12)
    and kept on the instance for reporting.  The output map ``C`` is a (q, n)
    matrix or a per-step (T, q, n) schedule.
    """

    __slots__ = ()

    def __new__(cls, state_terms, input_terms=(), disturbance_terms=(), C=None):
        def norm_terms(terms, shape, name):
            try:
                pairs = [(exponent, matrix) for exponent, matrix in terms]
            except (TypeError, ValueError):
                raise DimensionError(f"{name}s must be (exponent, matrix) pairs") from None
            return tuple((_real(exponent, f"{name} exponent", 0.0),
                          _freeze(_array(matrix, name, shape))) for exponent, matrix in pairs)

        state_terms = norm_terms(state_terms, (None, None), "state term")
        if not state_terms:
            raise DimensionError("at least one state term is required")
        n = state_terms[0][1].shape[0]
        for _, mat in state_terms:  # the lead term sets the size, each term is n-by-n
            _array(mat, "state term", (n, n))
        input_terms = norm_terms(input_terms, (n, None), "input term")
        dist_terms = norm_terms(disturbance_terms, (n, None), "disturbance term")
        for terms, name in ((input_terms, "input"), (dist_terms, "disturbance")):
            widths = {mat.shape[1] for _, mat in terms}
            if len(widths) > 1:
                raise DimensionError(f"{name}-term matrices must share a column count")
        C = np.eye(n) if C is None else _array(C, "C")
        C = _array(C, "C", (None, None, n) if C.ndim == 3 else (None, n))

        lead = sum(mat for _, mat in state_terms)
        cond = float(np.linalg.cond(lead))
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularError(
                f"sum of state-term matrices is singular to tolerance (cond={cond:.3e})"
            )
        return super().__new__(cls, state_terms, input_terms, dist_terms, _freeze(C), cond)

    def __getnewargs__(self):  # copy and pickle rebuild from the four constructor fields
        return tuple(self)[:4]

    @property
    def n(self) -> int:
        return self.state_terms[0][1].shape[0]

    @property
    def m(self) -> int:
        return self.input_terms[0][1].shape[1] if self.input_terms else 0

    @property
    def p(self) -> int:
        return self.disturbance_terms[0][1].shape[1] if self.disturbance_terms else 0

    @property
    def q(self) -> int:
        return self.C.shape[-2]

    def output_map(self, k) -> np.ndarray:
        """Output map at step k or at an index array of steps; schedules clamp at their end."""
        if self.C.ndim == 3:
            return self.C[np.minimum(k, self.C.shape[0] - 1)]
        return self.C


class Trajectory(namedtuple("Trajectory", "states inputs outputs noises dt")):
    """Time-indexed record of a simulated or measured run.

    ``states`` has K+1 rows; ``inputs`` and ``noises`` have K rows (the sample
    applied between steps k and k+1); ``outputs`` has K+1 rows.  ``dt``, a
    positive number, is metadata only: row k corresponds to time k*dt.  A named
    tuple, checked and converted to float arrays on construction
    (``_replace`` skips that).

    Each series is time-major, one row a sample, and is read by the one shape
    rule of the package (``fraccore._array``): another shape raises
    DimensionError, "inputs must have shape (3, *), got (2, 1)".  A 1-D
    series is one channel, a column, here as at every entry that takes a
    series, unless its declared rows are one, where it is that one sample.
    """

    __slots__ = ()

    def __new__(cls, states, inputs=None, outputs=None, noises=None, dt=1.0):
        states = _array(states, "states", (None, None), series=True)
        K = states.shape[0] - 1
        rest = [None if val is None else _array(val, name, (rows, None)) for name, val, rows in
                (("inputs", inputs, K), ("outputs", outputs, K + 1), ("noises", noises, K))]
        return super().__new__(cls, states, *rest, _real(dt, "dt", lo=0.0))

    @property
    def K(self) -> int:
        return self.states.shape[0] - 1

    @property
    def n(self) -> int:
        return self.states.shape[1]


class AugmentedModel(namedtuple("AugmentedModel", "kind depth Atil Btil Gtil Ctil n m q")):
    """Finite-memory LTI lift of a fractional system.

    ``kind`` is "p-augment" (block companion over the last ``depth`` states)
    or "v-approx" (last ``depth`` states plus last ``depth`` inputs, truncated
    tail entering through ``Gtil``).  ``Ctil`` reads the newest state block.

    The lift is the one reader of the layout that :func:`_companion` builds:
    the top ``n`` rows of ``Atil`` and ``Gtil`` are the only dense and noise
    rows, and below them ``Atil`` holds the identity runs of :attr:`copies`
    and zero rows (the ``m`` fresh-input rows of a v-lift, filled through
    ``Btil``).  :meth:`shift` and :meth:`propagate` apply ``Atil`` by that
    layout, multiplying only its dense rows, for the filter.  Any other
    nonzero below row ``n``, or a shape that does not fit ``depth``, ``n``,
    ``m`` and ``q``, raises DimensionError.
    """

    __slots__ = ()

    def __new__(cls, kind, depth, Atil, Btil, Gtil, Ctil, n, m, q):
        self = super().__new__(cls, kind, depth, Atil, Btil, Gtil, Ctil, n, m, q)
        d, runs = self.dim, self.copies
        if not (Atil.shape == (d, d) and Gtil.shape[0] == d
                and Btil.shape == (d, m) and Ctil.shape == (q, d)
                and d in (depth * n, depth * (n + m))
                and np.count_nonzero(Atil[n:]) == sum(size for _, _, size in runs)
                and all(np.all(np.diagonal(Atil[row : row + size, src : src + size]) == 1.0)
                        for row, src, size in runs)
                and not Gtil[n:].any()):
            raise DimensionError(f"{kind} lift lacks the companion layout: dense and noise "
                                 "rows on top, identity runs below")
        return self

    @property
    def dim(self) -> int:
        return self.Atil.shape[0]

    @property
    def copies(self) -> tuple:
        """Identity runs ``(row, source, length)``, ``Atil[row + i] = I[source + i]``: the
        state history, then, in a v-lift with inputs, the input history."""
        p, n, m = self.depth, self.n, self.m
        runs = ((n, 0, (p - 1) * n),)
        if self.dim > p * n:
            runs += ((p * n + m, p * n, (p - 1) * m),)
        return runs

    def shift(self, X: np.ndarray) -> np.ndarray:
        """``Atil @ X`` from the layout: the top n rows multiply, copy runs move slices."""
        out = np.zeros_like(X)
        out[: self.n] = self.Atil[: self.n] @ X
        for row, src, size in self.copies:
            out[row : row + size] = X[src : src + size]
        return out

    def propagate(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """``Atil P Atil^T + Gtil Q Gtil^T`` from the layout, O(n d^2) for n dense rows."""
        n, runs = self.n, self.copies
        A_dense = self.Atil[:n]
        AP = A_dense @ P
        M = np.zeros_like(P)
        M[:n, :n] = AP @ A_dense.T
        for row, src, size in runs:
            M[:n, row : row + size] = AP[:, src : src + size]
            M[row : row + size, :n] = AP[:, src : src + size].T
            for row2, src2, size2 in runs:
                M[row : row + size, row2 : row2 + size2] = P[src : src + size, src2 : src2 + size2]
        G = self.Gtil[:n]
        M[:n, :n] += G @ Q @ G.T
        return M

    def lift(self, x0) -> np.ndarray:
        """Embed an initial state into the lift by the rule of :func:`_as_prior`."""
        return _as_prior(x0, self.n, self.dim, "x0")


def aj_series(model: FosModel, J: int) -> list[np.ndarray]:
    """Matrix series A_0..A_J of the memory expansion x[k+1] = sum A_j x[k-j].

    A_0 = A + diag(alpha) and A_j = -diag(c_{j+1}) for j >= 1, where c are the
    per-channel GL weights.  With alpha = 1 this collapses to A_0 = A + I and
    zero tail, the ordinary first-difference system.
    """
    J = _count(J, "series length J")
    w = build_weight_table(model.alpha, J + 1)
    return [model.A + np.diag(model.alpha)] + [np.diag(-w[:, j + 1]) for j in range(1, J + 1)]


def _companion(kind: str, lags: np.ndarray, lanes, B0: np.ndarray, noise: np.ndarray,
               C: np.ndarray) -> AugmentedModel:
    """Lift of x[k+1] = sum_j lags[j] x[k-j] + sum_j lanes[j] u[k-1-j] + B0 u[k] + noise w[k].

    The lifted state stacks the last p = len(lags) states, then, when
    ``lanes`` is given, the last p inputs.  Identity blocks shift both histories
    down (:attr:`AugmentedModel.copies`); the newest state block carries the
    rest, and ``C`` reads it.
    """
    p, n = lags.shape[:2]
    m = B0.shape[1]
    lane_dim = 0 if lanes is None else p * m
    d = p * n + lane_dim
    Atil = np.zeros((d, d))
    Atil[:n, : p * n] = lags.transpose(1, 0, 2).reshape(n, p * n)
    Atil[n : p * n, : (p - 1) * n] = np.eye((p - 1) * n)
    Btil = np.zeros((d, m))
    Btil[:n] = B0
    if lane_dim:
        Atil[:n, p * n :] = lanes.transpose(1, 0, 2).reshape(n, lane_dim)
        Atil[p * n + m :, p * n : d - m] = np.eye(lane_dim - m)
        Btil[p * n : p * n + m] = np.eye(m)
    Gtil = np.zeros((d, noise.shape[1]))
    Gtil[:n] = noise
    Ctil = np.zeros((C.shape[0], d))
    Ctil[:, :n] = C
    return AugmentedModel(
        kind=kind, depth=p, Atil=_freeze(Atil), Btil=_freeze(Btil),
        Gtil=_freeze(Gtil), Ctil=_freeze(Ctil), n=n, m=m, q=C.shape[0],
    )


def augment_p(model: FosModel, p: int) -> AugmentedModel:
    """Depth-p block-companion lift of a single-term model.

    The top block row carries A_0..A_{p-1}; identity blocks shift the state
    history down.  Input and noise enter the newest block only.
    """
    p = _count(p, "augmentation depth p", least=1)
    lags = np.array(aj_series(model, p - 1))
    return _companion("p-augment", lags, None, model.B, model.Bw, np.eye(model.n))


class NetworkSeries(NamedTuple):
    """Reduced convolution series of a multi-term network.

    The state recursion reads x[k+1] = sum_{j>=1} A[j] x[k+1-j]
    + sum_{j>=0} B[j] u[k-j] + sum_{j>=0} G[j] w[k-j].  ``A[0]`` is unused and
    kept zero so indices match the lag they multiply.
    """

    A: np.ndarray
    B: np.ndarray
    G: np.ndarray


def network_series(net: MultiTermNetwork, J: int) -> NetworkSeries:
    """Reduced series coefficients of a network up to lag ``J``.

    Folds the per-term GL weights, one table for every exponent, into lag
    matrices and divides by the lead matrix: A[j] = -lead^{-1} sum_i A_i
    c_j^{a_i}, and likewise (without the sign) for the other two stacks.
    """
    J = _count(J, "series length J")
    n = net.n
    groups = (net.state_terms, net.input_terms, net.disturbance_terms)
    table = build_weight_table([a for group in groups for a, _ in group], J)
    lead = sum(mat for _, mat in net.state_terms)  # checked at construction; c_0 = 1

    def lead_solve(stack: np.ndarray) -> np.ndarray:
        # lead^{-1} @ stack[j] for every lag, via one solve on [stack[0]|stack[1]|..]
        flat = np.linalg.solve(lead, stack.transpose(1, 0, 2).reshape(n, -1))
        return flat.reshape(n, *stack.shape[::2]).transpose(1, 0, 2)

    stacks, first = [], 0
    for group, width in zip(groups, (n, net.m, net.p)):
        # each group's terms summed left to right from zero, one row of the table each
        mats = np.reshape([mat for _, mat in group], (len(group), 1, n, width))
        rows = table[first : first + len(group), :, None, None]
        stacks.append(np.sum(rows * mats, axis=0, initial=0.0))
        first += len(group)
    A = np.zeros((J + 1, n, n))
    A[1:] = -lead_solve(stacks[0][1:])  # lag 0 stays out of the solve and +0.0
    return NetworkSeries(A=_freeze(A), B=_freeze(lead_solve(stacks[1])),
                         G=_freeze(lead_solve(stacks[2])))


def augment_v(net: MultiTermNetwork, v: int) -> AugmentedModel:
    """Depth-v truncation of a network as an LTI lift.

    The lifted state stacks [x[k], .., x[k-v+1], u[k-1], .., u[k-v]].  The top
    block row applies the reduced series A[1..v] to past states and B[1..v] to
    past inputs; B[0] and a fresh input lane enter through ``Btil``; the
    truncated tail enters the newest state block only, through ``Gtil``.
    Noise-free, input-free propagation matches the full series simulation
    exactly for the first v steps.
    """
    v = _count(v, "truncation depth v", least=1)
    series = network_series(net, v)
    return _companion("v-approx", series.A[1:], series.B[1:], series.B[0], np.eye(net.n),
                      net.output_map(0))
