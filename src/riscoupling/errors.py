"""Exception types shared across the package."""


class RisCouplingError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(RisCouplingError, ValueError):
    """An argument violates a documented precondition."""


class NumericallySingularError(RisCouplingError):
    """A loading matrix is singular or too ill-conditioned to invert reliably,
    or a load the network transform divides by is zero.

    Attributes:
        condition: 1-norm condition estimate that triggered the error (may be inf).
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class NotPSDError(RisCouplingError):
    """A matrix expected to be positive semidefinite has a significantly negative eigenvalue."""


class ChangeOfVariablesError(RisCouplingError):
    """The reactance-to-phase change of variables is undefined (Re(g) <= 0)."""


class DegenerateUpdateError(RisCouplingError):
    """A rank-one inverse update hit a (near-)zero denominator."""


class EigenvalueError(RisCouplingError):
    """A symmetric eigendecomposition did not converge or met a non-finite entry."""
