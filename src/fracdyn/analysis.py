"""Stability sector test, finite-horizon Gramians, and frequency response.

The stability test is the commensurate-order sector criterion on the spectrum
of the state matrix: every eigenvalue must satisfy |arg(lambda)| > alpha*pi/2.
The symmetric sector (absolute value on the angle) is used so conjugate pairs
receive one verdict.  Controllability and observability use the transition
matrices G_k of the memory expansion, with deadbeat input synthesis and
initial-state reconstruction as constructive closures.  Fractional transfer
functions are evaluated pointwise on the principal branch of s^a.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchWarning,
    DomainError,
    EigenFailure,
    NotControllable,
    NotObservable,
    SingularError,
)
from .model import FosModel, augment_p
from .simulate import transition_matrices

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


@dataclass(frozen=True)
class StabilityReport:
    """Sector-test outcome: per-eigenvalue margins |arg| - alpha*pi/2."""

    eigenvalues: np.ndarray
    margins: np.ndarray
    alpha: float
    verdict: str  # "stable" | "unstable" | "marginal"


def commensurate_stability(A, alpha: float) -> StabilityReport:
    """Sector stability test for a commensurate system of order ``alpha``.

    Stable iff |arg(lambda_i)| > alpha*pi/2 for every eigenvalue; at alpha = 1
    this is the open-left-half-plane test.  Margins within ``MARGINAL_TOL`` of
    zero yield the verdict "marginal" rather than a binary answer, since
    eigensolver noise at the sector boundary is not decidable.
    """
    if not 0.0 < alpha < 2.0:
        raise DomainError("commensurate order must lie in (0, 2)")
    A = np.atleast_2d(np.asarray(A, dtype=float))
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
    """Spectral radius of the depth-p lift; a heuristic for non-commensurate runs.

    No exact sector test exists for mixed orders, so callers report this value
    labeled as a heuristic: values below 1 indicate the truncated system
    contracts.
    """
    aug = augment_p(model, p)
    try:
        eig = np.linalg.eigvals(aug.Atil)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    return float(np.max(np.abs(eig))) if eig.size else 0.0


@dataclass(frozen=True)
class GramianReport:
    """Finite-horizon Gramian with its numerical rank."""

    kind: str
    K: int
    matrix: np.ndarray
    rank: int
    smallest_retained: float
    singular_values: np.ndarray

    @property
    def full_rank(self) -> bool:
        return self.rank == self.matrix.shape[0]


def _numerical_rank(M: np.ndarray, K: int):
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0:
        return 0, 0.0, s
    thresh = max(M.shape[0], K) * s[0] * RANK_RTOL
    kept = s[s > thresh]
    return int(kept.size), float(kept[-1]) if kept.size else 0.0, s


def _norm_B(model: FosModel, B) -> np.ndarray:
    if B is None:
        return model.B
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] != model.n and B.shape[1] == model.n:
        B = B.T
    if B.shape[0] != model.n:
        raise DomainError(f"B must have {model.n} rows")
    return B


def controllability_gramian(model: FosModel, B=None, K: int = 1) -> GramianReport:
    """Finite-horizon controllability Gramian W_c(0, K) with rank report.

    W_c = G_K^{-1} (sum_{j<K} G_j B B^T G_j^T) G_K^{-T}; the system is
    controllable at horizon K iff the rank equals n.  A rank-deficient G_K is
    an error, not silently replaced by the unconjugated sum.
    """
    return _controllability(model, _norm_B(model, B), K)[0]


def _controllability(model: FosModel, B: np.ndarray, K: int) -> tuple:
    """The Gramian report at horizon K and the transition matrices G_0..G_K behind it."""
    if K < 1:
        raise DomainError("horizon K must be >= 1")
    G = transition_matrices(model, K)
    S = np.zeros((model.n, model.n))
    for j in range(K):
        GB = G[j] @ B
        S += GB @ GB.T
    GK = G[K]
    sv = np.linalg.svd(GK, compute_uv=False)
    if sv.size and (sv[0] == 0 or sv[-1] / sv[0] < 1e-12):
        raise SingularError(f"G_K is rank-deficient at K={K}; Gramian undefined")
    W = np.linalg.solve(GK, np.linalg.solve(GK, S.T).T)
    W = 0.5 * (W + W.T)
    rank, smallest, s = _numerical_rank(W, K)
    return GramianReport(
        kind="controllability", K=K, matrix=W, rank=rank,
        smallest_retained=smallest, singular_values=s,
    ), G


def deadbeat_input(model: FosModel, B, x0, K: int) -> np.ndarray:
    """Input sequence u[0..K-1] driving x[0] = x0 to the origin at step K.

    Stacks u[j] = -(G_{K-1-j} B)^T G_K^{-T} W_c^{-1} x0; requires
    controllability at horizon K.
    """
    B = _norm_B(model, B)
    rep, G = _controllability(model, B, K)
    if not rep.full_rank:
        raise NotControllable(f"rank {rep.rank} < n = {model.n} at horizon K={K}")
    z = np.linalg.solve(G[K].T, np.linalg.solve(rep.matrix, np.atleast_1d(np.asarray(x0, dtype=float))))
    u = np.empty((K, B.shape[1]))
    for j in range(K):
        u[j] = -(B.T @ G[K - 1 - j].T) @ z
    return u


@dataclass(frozen=True)
class ObservabilityReport:
    """Stacked observability matrix, Gramian, and input-feedthrough block."""

    K: int
    obsv: np.ndarray
    gramian: np.ndarray
    feedthrough: np.ndarray
    rank: int
    singular_values: np.ndarray

    @property
    def full_rank(self) -> bool:
        return self.rank == self.gramian.shape[0]


def observability_matrices(model: FosModel, C=None, K: int = 1, B=None) -> ObservabilityReport:
    """Observability stack O_K, Gramian W_o = O_K^T O_K, and Toeplitz block M_K.

    Row block k of M_K maps stacked inputs into y[k]: y[k] = C G_k x0 +
    sum_{j<k} C G_{k-1-j} B u[j].
    """
    if K < 1:
        raise DomainError("horizon K must be >= 1")
    n = model.n
    C = np.eye(n) if C is None else np.atleast_2d(np.asarray(C, dtype=float))
    if C.shape[1] != n:
        raise DomainError(f"C must have {n} columns")
    B = _norm_B(model, B)
    q, m = C.shape[0], B.shape[1]
    G = transition_matrices(model, K)
    CG = [C @ G[j] for j in range(K)]
    obsv = np.vstack(CG)
    Wo = obsv.T @ obsv
    Wo = 0.5 * (Wo + Wo.T)
    # block (r, c) of M is C G_{r-1-c} B: one product per lag, placed on its diagonal
    CGB = np.stack([cg @ B for cg in CG])
    r, c = np.tril_indices(K, -1)
    M = np.zeros((K, q, K, m))
    M[r, :, c, :] = CGB[r - 1 - c]
    M = M.reshape(K * q, K * m)
    rank, _, s = _numerical_rank(obsv, K)
    return ObservabilityReport(
        K=K, obsv=obsv, gramian=Wo, feedthrough=M, rank=rank, singular_values=s
    )


def reconstruct_initial_state(model: FosModel, B, C, u, y, K: int) -> np.ndarray:
    """Recover x[0] from K inputs and outputs: x0 = W_o^{-1} O_K^T (Y - M_K U).

    ``y`` stacks y[0..K-1] (rows), ``u`` stacks u[0..K-1] (rows, may be None
    for the autonomous case).  Requires observability at horizon K.
    """
    rep = observability_matrices(model, C, K, B=B)
    if not rep.full_rank:
        raise NotObservable(f"rank {rep.rank} < n = {model.n} at horizon K={K}")
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if y.shape[0] < K:
        raise DomainError(f"need at least {K} output rows, got {y.shape[0]}")
    rhs = y[:K].reshape(-1)
    if u is not None:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if u.shape[0] < K:
            raise DomainError(f"need at least {K} input rows, got {u.shape[0]}")
        rhs = rhs - rep.feedthrough @ u[:K].reshape(-1)
    return np.linalg.solve(rep.gramian, rep.obsv.T @ rhs)


@dataclass(frozen=True)
class FractionalTransferFunction:
    """Fractional transfer function, rational-in-s^a or state-space form.

    Rational form: H(s) = sum_k b_k s^{beta_k} / sum_k a_k s^{alpha_k} with
    ``num`` = [(b_k, beta_k), ...] and ``den`` = [(a_k, alpha_k), ...]; all
    exponents must be non-negative and the denominator non-empty.  State-space
    form: H(s) = C (s^alpha I - A)^{-1} B + D for a commensurate order alpha.
    """

    num: tuple = None
    den: tuple = None
    ss: tuple = None  # (A, B, C, D, alpha)

    def __post_init__(self):
        if self.ss is not None:
            A, B, C, D, alpha = self.ss
            A = np.atleast_2d(np.asarray(A, dtype=float))
            B = np.atleast_2d(np.asarray(B, dtype=float))
            C = np.atleast_2d(np.asarray(C, dtype=float))
            D = np.atleast_2d(np.asarray(D, dtype=float))
            object.__setattr__(self, "ss", (A, B, C, D, float(alpha)))
            return
        if not self.den:
            raise DomainError("denominator terms must be non-empty")
        for terms, name in ((self.num, "numerator"), (self.den, "denominator")):
            for _, exp in terms or ():
                if exp < 0:
                    raise DomainError(f"{name} exponents must be non-negative")
        object.__setattr__(self, "num", tuple((float(c), float(e)) for c, e in (self.num or ())))
        object.__setattr__(self, "den", tuple((float(c), float(e)) for c, e in self.den))

    @classmethod
    def rational(cls, num, den) -> "FractionalTransferFunction":
        return cls(num=tuple(num), den=tuple(den))

    @classmethod
    def state_space(cls, A, B, C, D, alpha: float) -> "FractionalTransferFunction":
        return cls(ss=(A, B, C, D, alpha))


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
    return complex(s) ** exponent


def tf_eval(tf: FractionalTransferFunction, s: complex):
    """Evaluate a fractional transfer function at a complex point.

    Uses the principal branch for every fractional power; integer-exponent
    forms reduce to plain polynomial evaluation.  Returns a complex scalar
    for single-output systems, otherwise a complex matrix.
    """
    s = complex(s)
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


@dataclass(frozen=True)
class FrequencyResponse:
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
    positive frequency; lam = mu = 1 reproduces the classical PID response.
    """
    omega = np.atleast_1d(np.asarray(omegas, dtype=float))
    if np.any(omega <= 0):
        raise DomainError("frequencies must be positive")
    resp = np.empty(omega.shape, dtype=complex)
    for i, w in enumerate(omega):
        s = 1j * w
        resp[i] = kp + ki * _principal_power(s, -lam) + kd * _principal_power(s, mu)
    return FrequencyResponse(omega=omega, response=resp)
