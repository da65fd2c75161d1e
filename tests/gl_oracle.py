"""Log-Gamma evaluation of the Grunwald-Letnikov weights, a cross-check oracle.

``c_j = Gamma(j - alpha) / (Gamma(-alpha) Gamma(j + 1))`` shares no arithmetic
with the product recurrence that ``fracdyn.build_weight_table`` evaluates.
"""

import math

from fracdyn import DomainError


class GammaPole(ArithmeticError):
    """Gamma(-alpha) has a pole: -alpha is a non-positive integer."""


def _signed_lgamma(x: float) -> tuple[float, float]:
    """log|Gamma(x)| and sign(Gamma(x)); x must not be a non-positive integer."""
    if x > 0:
        return math.lgamma(x), 1.0
    # Gamma alternates sign between consecutive negative integers.
    sign = 1.0 if math.floor(x) % 2 == 0 else -1.0
    return math.lgamma(x), sign


def gl_weight_gamma(alpha: float, j: int) -> float:
    """Weight c_j at order alpha via log-Gamma: Gamma(j-a)/(Gamma(-a)Gamma(j+1)).

    Raises GammaPole when -alpha is a non-positive integer (Gamma pole);
    ``fracdyn.build_weight_table`` is total there.  Agrees with the
    recursive path to 1e-12 relative for alpha in (0,2)\\{1}, j <= 200.
    """
    if j < 0:
        raise DomainError("lag index j must be non-negative")
    if float(alpha).is_integer() and alpha >= 0:
        raise GammaPole(f"Gamma(-alpha) has a pole at alpha = {alpha!r}")
    lg_num, s_num = _signed_lgamma(j - alpha)
    lg_den, s_den = _signed_lgamma(-alpha)
    return s_num * s_den * math.exp(lg_num - lg_den - math.lgamma(j + 1))
