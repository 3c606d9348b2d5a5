"""Exception types shared across the estimation pipeline."""


class EstimationError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(EstimationError, ValueError):
    """A parameter is outside the range an operation supports."""


class DomainError(EstimationError):
    """An input lies outside the mathematical domain of an operation,
    e.g. a contour base point where the transform is not real and
    positive."""


class NearZeroTransform(EstimationError):
    """The transform passes too close to zero on the contour for the
    continuous logarithm to be tracked reliably."""


class DomainEventFailed(EstimationError):
    """The sample-measurable domain condition of a transform map failed,
    so the map refuses to run (callers fall back)."""


class GridTooCoarse(EstimationError):
    """A contour grid's step exceeds min(c/4, pi/w) for the requested
    evaluation point w, so the trapezoid rule's aliasing error is not
    bounded by e^{-8 pi}."""


class CapacityError(EstimationError):
    """A requested grid would exceed the configured point budget."""


class EmptyResult(EstimationError):
    """A censoring rule selected no observations."""


class SampleFileError(EstimationError):
    """A sample file could not be parsed; carries the offending line."""

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")
