"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class RangeError(ValueError):
    """Malformed index range (e.g. a > b in a digit count)."""


class ContractionError(DomainError):
    """Series parameter |t| >= 1: the fixed-point series does not converge."""


class ResourceLimitError(RuntimeError):
    """A construction would exceed the configured size cap."""


class ProofCheckError(RuntimeError):
    """A runtime check of one of the proof's inequalities failed."""
