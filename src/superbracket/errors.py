"""Exception taxonomy shared across the package."""


class SuperbracketError(Exception):
    """Base class for every error raised by this package."""


class PoleError(SuperbracketError):
    """An expression was evaluated at (or too close to) a singular point."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point

    def __str__(self):
        base = super().__str__()
        if self.point is not None:
            return f"{base} at {self.point}"
        return base


class DomainError(SuperbracketError):
    """An expression received an argument outside its real domain."""


class InconsistentParams(SuperbracketError):
    """Family constraints on the Jacobian functions or couplings are violated."""


class InvalidParams(SuperbracketError):
    """Parameters incompatible with the requested representation."""


class AmbiguousFamily(SuperbracketError):
    """More than one family tag matched a candidate Jacobian pair."""


class UnsupportedTransform(SuperbracketError):
    """Requested boost redefinition is not one of the supported arrows."""


class DimensionMismatch(SuperbracketError):
    """Operator dimensions or momentum contexts do not match."""


class GradeError(SuperbracketError):
    """A graded bracket was requested that the operator grading forbids."""


class IncompatibleCentrals(SuperbracketError):
    """Central elements do not have the momentum dependence the coproduct forces."""


class UnsupportedFamily(SuperbracketError):
    """The requested coproduct or check is not defined for the family."""


class NormalFormDivergence(SuperbracketError):
    """Symbolic rewriting exceeded its step budget."""
