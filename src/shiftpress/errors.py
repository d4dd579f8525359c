"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 2, everything else
derived from ShiftPressError -> 3.
"""


class ShiftPressError(Exception):
    """Base class for all package errors."""


class ConfigError(ShiftPressError):
    """Bad input file, malformed JSON, or invalid run parameters."""


class StructuralError(ShiftPressError):
    """System violates a structural requirement (stranded symbol, not strongly connected, ...)."""


class PreconditionError(ShiftPressError):
    """An operation was called outside its stated precondition."""


class ResourceBudgetError(ShiftPressError):
    """An enumeration exceeded its word budget; never silently truncated."""

    def __init__(self, message, n=None):
        super().__init__(message)
        self.n = n


class InfeasibleError(ShiftPressError):
    """A construction has no feasible parameters; carries the failing inequalities."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class CertificateError(ShiftPressError):
    """Gluing refused: a connector that does not join its pair admissibly
    (counterexample (a, c, b)) or a class with no segment of length 1 to 5."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample
