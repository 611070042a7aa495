"""Exception types shared across the package."""


class PerfhomError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(PerfhomError, ValueError):
    """An argument violates a precondition (bad dimension, sign, shape)."""


class ConfigError(InvalidParameterError):
    """A study configuration file cannot be parsed or validated."""


class ConstructionError(PerfhomError):
    """Hole construction produced a ball that does not fit its cell."""


class GeometryError(PerfhomError):
    """Hole geometry is inconsistent (overlaps, degenerate cutoff margin)."""


class ResolutionError(PerfhomError):
    """The grid is too coarse for the requested feature (hole or ball)."""


class SolverError(PerfhomError):
    """The iterative linear solver failed to reach its tolerance."""


class ExtrapolationError(PerfhomError):
    """Truncated-capacity inputs are inconsistent with the condenser law."""


class EvaluationError(PerfhomError):
    """User input is non-finite (a callable's values or a right-hand side), or a
    value computed from finite input overflows."""


class StudyError(PerfhomError):
    """A study aborted mid-sweep.  Carries the stage, epsilon and the rows
    completed before the failure."""

    def __init__(self, stage, epsilon, cause, partial=None):
        super().__init__(f"study failed in stage '{stage}' at epsilon={epsilon}: {cause}")
        self.stage = stage
        self.epsilon = epsilon
        self.cause = cause
        self.partial = partial
