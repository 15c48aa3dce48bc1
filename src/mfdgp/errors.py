"""Exception hierarchy shared across the package."""


class MfdgpError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(MfdgpError, ValueError):
    """An array argument has the wrong shape or dimensionality."""


class DomainError(MfdgpError, ValueError):
    """A value lies outside its allowed domain (bounds, sign, range)."""


class ConditioningError(MfdgpError, RuntimeError):
    """A factorization or a predictive variance that cannot be repaired.

    Raised when a Cholesky factorization fails even after jitter
    escalation, and when a GP predictive variance falls below the clamp
    threshold, -1e-10. Carries the jitter levels that were attempted so
    callers can report how far the repair went before giving up.
    """

    def __init__(self, message, jitter_levels=()):
        super().__init__(message)
        self.jitter_levels = tuple(jitter_levels)


class InsufficientDataError(MfdgpError, ValueError):
    """A dataset (or one fidelity level of it) has too few observations."""


class StateError(MfdgpError, RuntimeError):
    """An operation was called on an object in the wrong state."""


class SimulationDivergedError(MfdgpError, RuntimeError):
    """The transport solve produced non-finite values."""


class RTDFitError(MfdgpError, RuntimeError):
    """The tanks-in-series fit cannot be performed on the given curve."""


class ConfigError(MfdgpError, ValueError):
    """A campaign configuration file is invalid."""


class CorruptLogError(MfdgpError, ValueError):
    """A results log line cannot be parsed.

    ``line_number`` is 1-based and names the offending line.
    """

    def __init__(self, message, line_number):
        super().__init__(f"{message} (line {line_number})")
        self.line_number = line_number
