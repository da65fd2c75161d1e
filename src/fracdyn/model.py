"""Model containers for fractional systems and their finite-memory LTI lifts.

Two model classes are provided.  :class:`FosModel` is the single-term system

    D^alpha x[k+1] = A x[k] + B u[k] + Bw w[k],

with one fractional order per state channel.  :class:`MultiTermNetwork` is the
multi-term network with separate fractional terms on state, input, and
disturbance, plus an output map.  Both admit finite-memory LTI lifts
(:class:`AugmentedModel`): the depth-p block-companion lift of the single-term
system, and the depth-v truncation of a network that stacks the last ``v``
states and inputs and routes the truncated tail through a disturbance column.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError, NotSPD, SingularError
from .fraccore import build_weight_table

__all__ = [
    "FosModel",
    "MultiTermNetwork",
    "AugmentedModel",
    "NetworkSeries",
    "aj_series",
    "augment_p",
    "network_series",
    "augment_v",
]

def _holds_bool(value) -> bool:
    """Whether ``value`` is a bool or a list/tuple nest holding one (JSON true/false)."""
    return isinstance(value, bool) or (
        isinstance(value, (list, tuple)) and any(map(_holds_bool, value)))


def _as_array(value, name: str) -> np.ndarray:
    """``value`` as a float array; true/false and non-numbers raise DimensionError."""
    if _holds_bool(value):
        raise DimensionError(f"{name} is not numeric: it holds true or false")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionError(f"{name} is not a numeric array: {exc}") from None


def _as_matrix(value, rows: int | None = None, cols: int | None = None, name: str = "matrix"):
    m = np.atleast_2d(_as_array(value, name))
    if m.ndim != 2:
        raise DimensionError(f"{name} must be a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError(f"{name} entries must be finite")
    if rows is not None and m.shape[0] != rows:
        raise DimensionError(f"{name} must have {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionError(f"{name} must have {cols} columns, got {m.shape[1]}")
    return m


def _as_weight(value, name: str, semidefinite: bool = False) -> np.ndarray:
    """A quadratic weight with its blocks symmetrised.

    A number is that multiple of I, a vector is the diagonal, then a matrix,
    or a (T, s, s) schedule whose block k weights step k.  Every block must be
    square, symmetric to 1e-9 (1 + its largest magnitude) and positive
    definite (semidefinite with ``semidefinite``); NotSPD names ``name``
    otherwise.
    """
    W = _as_array(value, name)
    if W.ndim > 3 or W.ndim >= 2 and W.shape[-1] != W.shape[-2]:
        raise NotSPD(f"{name} must be a number, a diagonal, a square matrix or a (T, s, s) "
                     f"schedule, got shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise NotSPD(f"{name} entries must be finite")
    # every form as a stack of blocks; a number and a diagonal make one diagonal block
    blocks = W if W.ndim >= 2 else np.diag(np.atleast_1d(W))
    blocks = blocks if blocks.ndim == 3 else blocks[None]
    scale = np.abs(blocks).max(axis=(1, 2), initial=0.0)
    if np.any(np.abs(blocks - blocks.swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
              > 1e-9 * (1.0 + scale)):
        raise NotSPD(f"{name} must be symmetric")
    blocks = 0.5 * (blocks + blocks.swapaxes(1, 2))
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


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FosModel:
    """Single-term fractional system with per-channel orders.

    Parameters accept scalars or nested lists for convenience; everything is
    normalized to read-only float arrays.  ``Bw`` defaults to the identity
    (noise enters the state equation directly), ``B`` to an empty n-by-0
    matrix (autonomous system).
    """

    alpha: np.ndarray
    A: np.ndarray
    B: np.ndarray = None
    Bw: np.ndarray = None

    def __post_init__(self):
        alpha = np.atleast_1d(_as_array(self.alpha, "alpha"))
        A = _as_matrix(self.A, name="A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionError(f"A must be square, got {A.shape}")
        if alpha.shape != (n,):
            raise DimensionError(f"alpha must have length {n}, got {alpha.shape}")
        if not np.all(np.isfinite(alpha)):
            raise DimensionError("alpha entries must be finite")
        if np.any(alpha < -1.0) or np.any(alpha >= 2.0):
            raise DimensionError("alpha entries must lie in [-1, 2)")
        B = np.zeros((n, 0)) if self.B is None else _as_matrix(self.B, rows=n, name="B")
        Bw = np.eye(n) if self.Bw is None else _as_matrix(self.Bw, rows=n, name="Bw")
        object.__setattr__(self, "alpha", _freeze(alpha))
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "B", _freeze(B))
        object.__setattr__(self, "Bw", _freeze(Bw))

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


@dataclass(frozen=True)
class MultiTermNetwork:
    """Multi-term fractional network with output map.

    ``state_terms``, ``input_terms``, and ``disturbance_terms`` are lists of
    ``(exponent, matrix)`` pairs; all exponents must be positive.  The sum of
    the state-term matrices is the lead matrix that the reduced series divides
    by, so its condition number is checked at construction (reject above 1e12)
    and kept on the instance for reporting.  The output map ``C`` is a (q, n)
    matrix or a per-step (T, q, n) schedule.
    """

    state_terms: tuple
    input_terms: tuple = ()
    disturbance_terms: tuple = ()
    C: np.ndarray = None
    lead_condition: float = field(init=False, default=np.nan)

    def __post_init__(self):
        def norm_terms(terms, rows, name):
            try:
                pairs = [(float(exponent), matrix) for exponent, matrix in terms]
            except (TypeError, ValueError, OverflowError):
                raise DimensionError(
                    f"{name}s must be (exponent, matrix) pairs with numeric exponents") from None
            out = []
            for exponent, matrix in pairs:
                if not 0 < exponent < np.inf:
                    raise DimensionError(f"{name} exponents must be positive and finite, "
                                         f"got {exponent}")
                out.append((exponent, _freeze(_as_matrix(matrix, rows=rows, name=name))))
            return tuple(out)

        state_terms = norm_terms(self.state_terms, None, "state term")
        if not state_terms:
            raise DimensionError("at least one state term is required")
        n = state_terms[0][1].shape[0]
        for _, mat in state_terms:
            if mat.shape != (n, n):
                raise DimensionError("state-term matrices must be square and same size")
        input_terms = norm_terms(self.input_terms, n, "input term")
        dist_terms = norm_terms(self.disturbance_terms, n, "disturbance term")
        for terms, name in ((input_terms, "input"), (dist_terms, "disturbance")):
            widths = {mat.shape[1] for _, mat in terms}
            if len(widths) > 1:
                raise DimensionError(f"{name}-term matrices must share a column count")
        C = np.eye(n) if self.C is None else _as_array(self.C, "C")
        if C.ndim <= 2:
            C = _as_matrix(C, cols=n, name="C")
        elif C.ndim != 3 or C.shape[2] != n:
            raise DimensionError(f"per-step C must have shape (T, q, {n})")
        elif not np.all(np.isfinite(C)):
            raise DomainError("C entries must be finite")

        lead = sum(mat for _, mat in state_terms)
        cond = float(np.linalg.cond(lead))
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularError(
                f"sum of state-term matrices is singular to tolerance (cond={cond:.3e})"
            )
        object.__setattr__(self, "state_terms", state_terms)
        object.__setattr__(self, "input_terms", input_terms)
        object.__setattr__(self, "disturbance_terms", dist_terms)
        object.__setattr__(self, "C", _freeze(C))
        object.__setattr__(self, "lead_condition", cond)

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

    def output_map(self, k: int) -> np.ndarray:
        """Output matrix at step k (schedules index by step, clamped at the end)."""
        if self.C.ndim == 3:
            return self.C[min(k, self.C.shape[0] - 1)]
        return self.C


class LiftRows(NamedTuple):
    """Rows of a lift grouped by what they do to the lifted state.

    ``copies`` holds runs ``(row, source, length)`` of rows that copy one
    lifted coordinate each: ``Atil[row + i] = I[source + i]`` for i < length.
    ``dense`` are the other nonzero rows of ``Atil``, and every row in neither
    is a zero row.  ``noise`` are the nonzero rows of ``Gtil``.
    """

    copies: tuple
    dense: np.ndarray
    noise: np.ndarray


@dataclass(frozen=True)
class AugmentedModel:
    """Finite-memory LTI lift of a fractional system.

    ``kind`` is "p-augment" (block companion over the last ``depth`` states)
    or "v-approx" (last ``depth`` states plus last ``depth`` inputs, truncated
    tail entering through ``Gtil``).  ``Ctil`` reads the newest state block.
    """

    kind: str
    depth: int
    Atil: np.ndarray
    Btil: np.ndarray
    Gtil: np.ndarray
    Ctil: np.ndarray
    n: int
    m: int
    q: int

    @property
    def dim(self) -> int:
        return self.Atil.shape[0]

    @cached_property
    def rows(self) -> LiftRows:
        """Copy runs, dense rows and noise rows, derived once from ``Atil`` and ``Gtil``."""
        nonzero = self.Atil != 0
        count = nonzero.sum(axis=1)
        first = nonzero.argmax(axis=1)
        unit = (count == 1) & (self.Atil[np.arange(self.dim), first] == 1.0)
        copy = np.flatnonzero(unit)
        source = first[copy]
        copies = ()
        if copy.size:
            heads = np.flatnonzero(np.r_[True, (np.diff(copy) != 1) | (np.diff(source) != 1)])
            lengths = np.diff(np.r_[heads, copy.size])
            copies = tuple(zip(copy[heads].tolist(), source[heads].tolist(), lengths.tolist()))
        return LiftRows(copies=copies, dense=np.flatnonzero(~unit & (count > 0)),
                        noise=np.flatnonzero(self.Gtil.any(axis=1)))

    def lift(self, x0) -> np.ndarray:
        """Embed a base-dimension initial state into the lift (history = 0)."""
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if x0.shape == (self.dim,):
            return x0.copy()
        if x0.shape != (self.n,):
            raise DimensionError(f"initial state must have length {self.n} or {self.dim}")
        z = np.zeros(self.dim)
        z[: self.n] = x0
        return z


def aj_series(model: FosModel, J: int) -> list[np.ndarray]:
    """Matrix series A_0..A_J of the memory expansion x[k+1] = sum A_j x[k-j].

    A_0 = A + diag(alpha) and A_j = -diag(c_{j+1}) for j >= 1, where c are the
    per-channel GL weights.  With alpha = 1 this collapses to A_0 = A + I and
    zero tail, the ordinary first-difference system.
    """
    if J < 0:
        raise DimensionError("series length J must be non-negative")
    n = model.n
    table = build_weight_table(model.alpha, J + 1)
    out = [model.A + np.diag(model.alpha)]
    for j in range(1, J + 1):
        out.append(np.diag(-table.weights[:, j + 1]) if n else np.zeros((0, 0)))
    return out


def augment_p(model: FosModel, p: int) -> AugmentedModel:
    """Depth-p block-companion lift of a single-term model.

    The top block row carries A_0..A_{p-1}; identity blocks shift the state
    history down.  Input and noise enter the newest block only.
    """
    if p < 1:
        raise DimensionError("augmentation depth p must be >= 1")
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
    return AugmentedModel(
        kind="p-augment", depth=p, Atil=_freeze(Atil), Btil=_freeze(Btil),
        Gtil=_freeze(Gtil), Ctil=_freeze(Ctil), n=n, m=m, q=n,
    )


@dataclass(frozen=True)
class NetworkSeries:
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

    Folds the per-term GL weights into lag matrices and divides by the lead
    matrix: A[j] = -lead^{-1} sum_i A_i c_j^{a_i}, and likewise (without the
    sign) for the input and disturbance stacks.
    """
    if J < 0:
        raise DimensionError("series length J must be non-negative")
    n, m, p = net.n, net.m, net.p

    def hat_stack(terms, cols):
        out = np.zeros((J + 1, n, cols))
        for exponent, mat in terms:
            w = build_weight_table([exponent], J).weights[0]
            out += w[:, None, None] * mat[None, :, :]
        return out

    Ahat = hat_stack(net.state_terms, n)
    Bhat = hat_stack(net.input_terms, m)
    Ghat = hat_stack(net.disturbance_terms, p)

    lead = Ahat[0]  # the sum of the state-term matrices, checked at construction

    def lead_solve(stack: np.ndarray, cols: int) -> np.ndarray:
        # lead^{-1} @ stack[j] for every lag, via one solve on [stack[0]|stack[1]|..]
        flat = stack.transpose(1, 0, 2).reshape(n, -1)
        out = np.linalg.solve(lead, flat)
        return out.reshape(n, stack.shape[0], cols).transpose(1, 0, 2)

    Ac = np.zeros_like(Ahat)
    if J >= 1:
        Ac[1:] = -lead_solve(Ahat[1:], n)
    Bc = lead_solve(Bhat, m) if m else Bhat
    Gc = lead_solve(Ghat, p) if p else Ghat
    return NetworkSeries(A=_freeze(Ac), B=_freeze(Bc), G=_freeze(Gc))


def augment_v(net: MultiTermNetwork, v: int) -> AugmentedModel:
    """Depth-v truncation of a network as an LTI lift.

    The lifted state stacks [x[k], .., x[k-v+1], u[k-1], .., u[k-v]].  The top
    block row applies the reduced series A[1..v] to past states and B[1..v] to
    past inputs; B[0] and a fresh input lane enter through ``Btil``; the
    truncated tail enters the newest state block only, through ``Gtil``.
    Noise-free, input-free propagation matches the full series simulation
    exactly for the first v steps.
    """
    if v < 1:
        raise DimensionError("truncation depth v must be >= 1")
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
    return AugmentedModel(
        kind="v-approx", depth=v, Atil=_freeze(Atil), Btil=_freeze(Btil),
        Gtil=_freeze(Gtil), Ctil=_freeze(Ctil), n=n, m=m, q=q,
    )
