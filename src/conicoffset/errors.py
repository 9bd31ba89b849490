"""Exception types shared across the package."""


class ConicOffsetError(Exception):
    """Base class for all package-specific errors."""


class RingError(ConicOffsetError):
    """Operands live in different polynomial rings."""


class ZeroPolyError(ConicOffsetError):
    """Operation undefined for the zero polynomial."""


class VarError(ConicOffsetError):
    """Unknown variable name for this ring."""


class OrderError(ConicOffsetError):
    """Monomial order unsuitable for the requested operation."""


class ParamError(ConicOffsetError):
    """Invalid conic or offset parameters."""


class EliminationError(ConicOffsetError):
    """Elimination did not produce the expected single generator."""


class ResourceLimitError(ConicOffsetError):
    """Buchberger exceeded its pair or degree budget.

    Carries the partial run statistics so callers can report progress.
    """

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats or {}


class RootPairingError(ConicOffsetError):
    """No pair of eliminant roots survived residual pairing as a real
    singular point."""


class RootRefineError(ConicOffsetError):
    """Newton refinement failed to converge."""


class SpecError(ConicOffsetError):
    """Invalid mesh specification."""


class PreconditionError(ConicOffsetError):
    """Arguments violate a documented precondition."""
