"""Exception types shared across the package."""


class DomainError(ValueError):
    """A coordinate or parameter lies outside the region where a quantity is defined."""


class ExtremalError(DomainError):
    """Charge at or above the extremal bound Q = m: the interior region is empty."""


class BracketError(ValueError):
    """Root bracket does not enclose a sign change."""


class SingularMetricError(ValueError):
    """Metric matrix is numerically singular at the requested point.

    Carries the index of the first singular matrix in its batch.
    """

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class ConvergenceError(RuntimeError):
    """An iterative scheme ran out of iterations.

    Carries the last estimate and the error bound at the point of failure.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(f"{message} (last estimate {estimate!r}, error bound {error_bound!r})")
        self.estimate = estimate
        self.error_bound = error_bound
