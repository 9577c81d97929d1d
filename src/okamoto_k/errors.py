"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation, or a digit
    position, level or horizon outside its allowed range."""


class ResourceLimitError(RuntimeError):
    """A construction would exceed the configured size cap."""


class ProofCheckError(RuntimeError):
    """A runtime check of one of the proof's inequalities failed."""
