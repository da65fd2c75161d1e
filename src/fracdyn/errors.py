"""Exception hierarchy shared by all fracdyn modules.

Errors that also subclass ``ArithmeticError`` are numerical failures (CLI
exit code 3); every other ``FracdynError`` is a validation failure (exit 2).
"""


class FracdynError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(FracdynError, ValueError):
    """Inconsistent array dimensions between model, data, or config objects."""


class DomainError(FracdynError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularError(FracdynError, ArithmeticError):
    """A matrix that must be inverted is singular to working tolerance."""


class NonFiniteError(FracdynError, ArithmeticError):
    """A simulated state became NaN or infinite."""


class EigenFailure(FracdynError, ArithmeticError):
    """The eigensolver failed to converge."""


class NotControllable(FracdynError, ArithmeticError):
    """Controllability rank condition fails at the requested horizon."""


class NotObservable(FracdynError, ArithmeticError):
    """Observability rank condition fails at the requested horizon."""


class NotSPD(FracdynError, ValueError):
    """A weighting matrix is not symmetric positive definite."""


class InnovationSingular(FracdynError, ArithmeticError):
    """The filter innovation covariance is numerically singular."""


class InfeasibleStateConstraints(FracdynError, ArithmeticError):
    """Hard linear state constraints admit no input inside the box."""


class BranchWarning(UserWarning):
    """A fractional power was evaluated on the principal branch at a branch cut."""
