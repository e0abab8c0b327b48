"""Exception types shared across the library."""


class BaryiterError(Exception):
    """Base class for all library-specific errors."""


class DomainError(BaryiterError, ValueError):
    """Argument outside an elementary function's domain (log/sqrt of a negative)."""


class DegenerateNodes(BaryiterError, ValueError):
    """Weight construction asked for nodes closer than the separation floor."""


class ZeroDerivative(BaryiterError, ValueError):
    """A sample derivative is zero where a scheme needs to divide by it."""


class SingularDenominator(BaryiterError, ArithmeticError):
    """An interpolant's denominator sum vanished at the probe point."""


class SingularStep(BaryiterError, ArithmeticError):
    """A step formula's denominator vanished; the solver may retry with less memory."""


class NonConvergence(BaryiterError, RuntimeError):
    """Reference refinement failed to reach the target residual."""


class InsufficientData(BaryiterError, ValueError):
    """A trace does not contain enough usable error entries."""


class UnsupportedCell(BaryiterError, LookupError):
    """No tabulated leading-error factor for this scheme/window combination."""


class ParseError(BaryiterError, ValueError):
    """Expression text failed to parse; ``position`` is the 1-based column."""

    def __init__(self, message, position):
        super().__init__(f"{message} (column {position})")
        self.position = position
