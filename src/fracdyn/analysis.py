"""Stability sector test, finite-horizon Gramians, and frequency response.

The stability test is the commensurate-order sector criterion on the spectrum
of the state matrix: every eigenvalue must satisfy |arg(lambda)| > alpha*pi/2.
The symmetric sector (absolute value on the angle) is used so conjugate pairs
receive one verdict.  Controllability and observability use the transition
matrices G_k of the memory expansion, with deadbeat input synthesis and
initial-state reconstruction (less one zero-state run of the inputs) as
constructive closures.  Fractional transfer functions are evaluated pointwise
on the principal branch of s^a.
"""

import warnings
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import (
    BranchWarning, DomainError, EigenFailure, NonFiniteError, NotControllable, NotObservable,
    SingularError)
from .fraccore import _array, _count, _real, _square
from .model import FosModel, augment_p
from .simulate import simulate_fos, transition_matrices

__all__ = [
    "StabilityReport",
    "GramianReport",
    "ObservabilityReport",
    "FractionalTransferFunction",
    "FrequencyResponse",
    "commensurate_stability",
    "augmented_spectral_radius",
    "controllability_gramian",
    "deadbeat_input",
    "observability_matrices",
    "reconstruct_initial_state",
    "tf_eval",
    "fopid_response",
]

#: Margin (radians) below which an eigenvalue is called marginal, not decided.
MARGINAL_TOL = 1e-9

#: Singular values below max(n, K) * sigma_max * RANK_RTOL are treated as zero.
RANK_RTOL = 1e-12


class StabilityReport(NamedTuple):
    """Sector-test outcome: per-eigenvalue margins |arg| - alpha*pi/2."""

    eigenvalues: np.ndarray
    margins: np.ndarray
    alpha: float
    verdict: str  # "stable" | "unstable" | "marginal"


def commensurate_stability(A, alpha: float) -> StabilityReport:
    """Continuous-time sector test for a commensurate system of order ``alpha``.

    Stable iff |arg(lambda_i)| > alpha*pi/2 for every eigenvalue (Matignon,
    1996); at alpha = 1 this is the open-left-half-plane test.  It is exact
    for the continuous-time system D^alpha x = A x, not for the discrete-time
    model that fracdyn simulates, on which it errs towards "stable": alpha = 1,
    A = -3 passes, yet x[k+1] = -2 x[k].  Margins within ``MARGINAL_TOL`` of
    zero yield the verdict "marginal" rather than a binary answer, since
    eigensolver noise at the sector boundary is not decidable.
    """
    alpha = _real(alpha, "alpha", 0.0, 2.0)
    A = _square(A, "A")
    try:
        eig = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    margins = np.abs(np.angle(eig)) - alpha * np.pi / 2.0
    if np.any(np.abs(margins) <= MARGINAL_TOL):
        verdict = "marginal"
    elif np.all(margins > MARGINAL_TOL):
        verdict = "stable"
    else:
        verdict = "unstable"
    return StabilityReport(eigenvalues=eig, margins=margins, alpha=float(alpha), verdict=verdict)


def augmented_spectral_radius(model: FosModel, p: int) -> float:
    """Spectral radius of the depth-p lift: a heuristic for the truncated predictor.

    A value below 1 means the depth-p truncation (the MPC's predictor)
    contracts, not that the full-memory model does.  Mixed orders do admit an
    exact discrete-time test, a winding-number count of the model's discrete
    symbol on the unit circle (ROADMAP item 1).
    """
    aug = augment_p(model, p)
    try:
        eig = np.linalg.eigvals(aug.Atil)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    return float(np.max(np.abs(eig))) if eig.size else 0.0


class GramianReport(NamedTuple):
    """Finite-horizon Gramian with its numerical rank."""

    matrix: np.ndarray
    rank: int
    smallest_retained: float

    @property
    def full_rank(self) -> bool:
        return self.rank == self.matrix.shape[0]


def _numerical_rank(M: np.ndarray, K: int):
    """Rank of M and its smallest retained singular value."""
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0:
        return 0, 0.0
    thresh = max(M.shape[0], K) * s[0] * RANK_RTOL
    kept = s[s > thresh]
    return int(kept.size), float(kept[-1]) if kept.size else 0.0


def _norm_B(model: FosModel, B) -> np.ndarray:
    """``B`` read as ``FosModel.B`` is, one row per state; None is the model's own."""
    return model.B if B is None else _array(B, "B", (model.n, None))


def controllability_gramian(model: FosModel, B=None, K: int = 1) -> GramianReport:
    """Finite-horizon controllability Gramian W_c(0, K) with rank report.

    W_c = G_K^{-1} (sum_{j<K} G_j B B^T G_j^T) G_K^{-T}; the system is
    controllable at horizon K iff the rank equals n.  A rank-deficient G_K is
    an error, not silently replaced by the unconjugated sum.
    """
    return _controllability(model, _norm_B(model, B), K)[0]


@np.errstate(over="ignore", invalid="ignore")  # a Gramian that is not finite raises instead
def _controllability(model: FosModel, B: np.ndarray, K: int) -> tuple:
    """The Gramian report at horizon K and the transition matrices G_0..G_K behind it."""
    K = _count(K, "horizon K", least=1)
    G = transition_matrices(model, K)
    # sum_{j<K} (G_j B)(G_j B)^T as one product of the blocks side by side
    GB = np.concatenate(G[:K] @ B, axis=1)
    S = GB @ GB.T
    GK = G[K]
    sv = np.linalg.svd(GK, compute_uv=False)
    if sv.size and (sv[0] == 0 or sv[-1] / sv[0] < 1e-12):
        raise SingularError(f"G_K is rank-deficient at K={K}; Gramian undefined")
    W = np.linalg.solve(GK, np.linalg.solve(GK, S.T).T)
    if not np.isfinite(W).all():
        raise NonFiniteError(f"controllability Gramian is not finite at K={K}: G_k B overflows")
    W = 0.5 * (W + W.T)
    rank, smallest = _numerical_rank(W, K)
    return GramianReport(matrix=W, rank=rank, smallest_retained=smallest), G


def deadbeat_input(model: FosModel, B, x0, K: int) -> np.ndarray:
    """Input sequence u[0..K-1] driving x[0] = x0 to the origin at step K.

    Stacks u[j] = -(G_{K-1-j} B)^T G_K^{-T} W_c^{-1} x0; requires
    controllability at horizon K.
    """
    x0 = _array(x0, "x0", (model.n,))
    B = _norm_B(model, B)
    rep, G = _controllability(model, B, K)
    if not rep.full_rank:
        raise NotControllable(f"rank {rep.rank} < n = {model.n} at horizon K={K}")
    z = np.linalg.solve(G[K].T, np.linalg.solve(rep.matrix, x0))
    return -(z @ G[K - 1 :: -1]) @ B


class ObservabilityReport(NamedTuple):
    """Stacked observability matrix O_K and Gramian W_o with its rank."""

    obsv: np.ndarray
    gramian: np.ndarray
    rank: int

    @property
    def full_rank(self) -> bool:
        return self.rank == self.gramian.shape[0]


def observability_matrices(model: FosModel, C=None, K: int = 1) -> ObservabilityReport:
    """Observability stack O_K and Gramian W_o = O_K^T O_K at horizon K.

    Row block k of O_K is C G_k, the map from x[0] to the free output y[k].
    """
    K = _count(K, "horizon K", least=1)
    C = np.eye(model.n) if C is None else _array(C, "C", (None, model.n))
    return _observability(C, transition_matrices(model, K), K)


@np.errstate(over="ignore", invalid="ignore")  # a Gramian that is not finite raises instead
def _observability(C: np.ndarray, G: np.ndarray, K: int) -> ObservabilityReport:
    """The observability report at horizon K from the transition matrices G_0..G_K."""
    obsv = (C @ G[:K]).reshape(K * C.shape[0], G.shape[1])
    Wo = obsv.T @ obsv
    if not np.isfinite(Wo).all():
        raise NonFiniteError(f"observability Gramian is not finite at K={K}: C G_k overflows")
    Wo = 0.5 * (Wo + Wo.T)
    return ObservabilityReport(obsv=obsv, gramian=Wo, rank=_numerical_rank(obsv, K)[0])


def _forced_output(model: FosModel, B, C, u: np.ndarray) -> np.ndarray:
    """Outputs y[0..K-1] that the K rows of u drive from x[0] = 0: one zero-state run."""
    model = FosModel(model.alpha, model.A, B, model.Bw)
    run = simulate_fos(model, np.zeros(model.n), u[:-1], K=u.shape[0] - 1)
    return run.states @ C.T


def reconstruct_initial_state(model: FosModel, B, C, u, y, K: int) -> np.ndarray:
    """Recover x[0] from K inputs and outputs: x0 = W_o^{-1} O_K^T (Y - F).

    ``y`` and ``u`` stack y[0..K-1] and u[0..K-1] as rows (u None: no input);
    rows past K are not read.  F is the output u drives from x[0] = 0.
    Requires observability at K.
    """
    B, rep = _norm_B(model, B), observability_matrices(model, C, K)
    if not rep.full_rank:
        raise NotObservable(f"rank {rep.rank} < n = {model.n} at horizon K={K}")
    C = rep.obsv[: rep.obsv.shape[0] // K]  # row block 0 of O_K is C G_0 = C

    def first_K(a, name: str, width: int) -> np.ndarray:
        return _array(_array(a, name, (None, width))[:K], name, (K, width))

    Y = first_K(y, "y", C.shape[0])
    if u is not None:
        Y = Y - _forced_output(model, B, C, first_K(u, "u", B.shape[1]))
    try:  # the rank is judged on O_K, whose Gramian can still underflow to singular
        return np.linalg.solve(rep.gramian, rep.obsv.T @ Y.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise SingularError(f"observability Gramian is singular at K={K}: {exc}") from None


class FractionalTransferFunction(namedtuple("FractionalTransferFunction", "num den ss")):
    """Fractional transfer function, rational-in-s^a or state-space form.

    Rational form: H(s) = sum_k b_k s^{beta_k} / sum_k a_k s^{alpha_k} with
    ``num`` = [(b_k, beta_k), ...] and ``den`` = [(a_k, alpha_k), ...]; all
    exponents must be non-negative and the denominator non-empty.  State-space
    form: H(s) = C (s^alpha I - A)^{-1} B + D for a commensurate order alpha;
    ``ss`` is (A, B, C, D, alpha) with A (n, n), B (n, m), C (q, n) and D (q, m),
    each read by the shape rule of ``fraccore._array``.
    """

    __slots__ = ()

    def __new__(cls, num=None, den=None, ss=None):
        if ss is not None:
            try:
                A, B, C, D, alpha = ss
            except (TypeError, ValueError):
                raise DomainError(f"ss must be (A, B, C, D, alpha), got {ss!r}") from None
            A = _square(A, "A")
            B = _array(B, "B", (A.shape[0], None))
            C = _array(C, "C", (None, A.shape[0]))
            D = _array(D, "D", (C.shape[0], B.shape[1]))
            return super().__new__(cls, num, den, (A, B, C, D, _real(alpha, "alpha")))
        num, den = _terms(() if num is None else num, "num"), _terms(den, "den")
        if not den:
            raise DomainError("den terms must be non-empty")
        return super().__new__(cls, num, den, None)

    @classmethod
    def rational(cls, num, den) -> "FractionalTransferFunction":
        return cls(num=num, den=den)

    @classmethod
    def state_space(cls, A, B, C, D, alpha: float) -> "FractionalTransferFunction":
        return cls(ss=(A, B, C, D, alpha))


def _terms(terms, name: str) -> tuple:
    """(coefficient, exponent) pairs of floats, exponents non-negative; else an error naming it."""
    pairs = _array(terms, name)
    if pairs.size == 0:
        return ()
    pairs = _array(pairs, name, (None, 2))
    if np.any(pairs[:, 1] < 0):
        raise DomainError(f"{name} exponents must be non-negative")
    return tuple(map(tuple, pairs.tolist()))


def _principal_power(s: complex, exponent: float) -> complex:
    """s^exponent on the principal branch, warning on the negative real axis."""
    if exponent == 0.0:
        return 1.0 + 0.0j
    if s == 0:
        if exponent < 0:
            raise DomainError("evaluation at s = 0 with a negative exponent")
        return 0.0 + 0.0j
    if s.real < 0 and s.imag == 0 and not float(exponent).is_integer():
        warnings.warn(
            "fractional power evaluated on the negative real axis; "
            "principal branch used",
            BranchWarning,
            stacklevel=3,
        )
    try:
        return complex(s) ** exponent
    except OverflowError:
        raise NonFiniteError(f"s^{exponent:g} overflows at s = {s}") from None


def tf_eval(tf: FractionalTransferFunction, s: complex):
    """Evaluate a fractional transfer function at a complex point.

    Uses the principal branch for every fractional power; integer-exponent
    forms reduce to plain polynomial evaluation.  Returns a complex scalar
    for single-output systems, otherwise a complex matrix.  ``s`` is a real
    or complex number with finite parts.
    """
    parts = (s.real, s.imag) if isinstance(s, (complex, np.complexfloating)) else (s, 0.0)
    s = complex(*(_real(part, "s") for part in parts))
    if tf.ss is not None:
        A, B, C, D, alpha = tf.ss
        sa = _principal_power(s, alpha)
        M = sa * np.eye(A.shape[0]) - A
        try:
            H = C @ np.linalg.solve(M, B.astype(complex)) + D
        except np.linalg.LinAlgError as exc:
            raise DomainError(f"transfer function has a pole at s = {s}") from exc
        return complex(H[0, 0]) if H.shape == (1, 1) else H
    num = sum(c * _principal_power(s, e) for c, e in tf.num) if tf.num else 0.0 + 0.0j
    den = sum(c * _principal_power(s, e) for c, e in tf.den)
    if den == 0:
        raise DomainError(f"transfer function has a pole at s = {s}")
    return num / den


class FrequencyResponse(NamedTuple):
    """Pointwise response with ready-to-plot magnitude/phase columns."""

    omega: np.ndarray
    response: np.ndarray

    @property
    def mag_db(self) -> np.ndarray:
        return 20.0 * np.log10(np.abs(self.response))

    @property
    def phase_deg(self) -> np.ndarray:
        return np.degrees(np.angle(self.response))


def fopid_response(kp, ki, kd, lam, mu, omegas) -> FrequencyResponse:
    """Frequency response of the five-parameter fractional PID.

    C(s) = kp + ki / s^lam + kd s^mu evaluated at s = j*omega for each
    positive, finite frequency; lam = mu = 1 reproduces the classical PID response.
    A gain, order or frequency that is not a finite number raises DomainError
    naming it.
    """
    kp, ki, kd, lam, mu = (_real(value, name) for name, value in
                           zip(("kp", "ki", "kd", "lam", "mu"), (kp, ki, kd, lam, mu)))
    omega = np.atleast_1d(_array(omegas, "omegas"))
    if not np.all(omega > 0):
        raise DomainError("omegas must be positive frequencies")
    resp = np.empty(omega.shape, dtype=complex)
    for i, w in enumerate(omega):
        s = 1j * w
        resp[i] = kp + ki * _principal_power(s, -lam) + kd * _principal_power(s, mu)
    if not np.isfinite(resp).all():
        raise NonFiniteError(f"response is not finite at kp={kp:g}, ki={ki:g}, kd={kd:g}, "
                             f"lam={lam:g}, mu={mu:g}")
    return FrequencyResponse(omega=omega, response=resp)
