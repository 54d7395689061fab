"""Exception types shared across the package."""


class ProxDeconvError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatchError(ProxDeconvError, ValueError):
    """An array did not have the size an operator or container expects."""

    def __init__(self, expected, actual, context=""):
        self.expected = expected
        self.actual = actual
        self.context = context
        where = f" in {context}" if context else ""
        super().__init__(f"dimension mismatch{where}: expected {expected}, got {actual}")


class DomainError(ProxDeconvError, ValueError):
    """A point lies outside the domain of a function; `index` is the first offender."""

    def __init__(self, index, message):
        self.index = index
        super().__init__(f"{message} (component {index})")


class TightFrameError(ProxDeconvError, ValueError):
    """The supplied operator is not a tight frame with the claimed constant."""


class NonFiniteIterateError(ProxDeconvError, RuntimeError):
    """A solver iterate became NaN or infinite."""

    def __init__(self, iteration, label):
        self.iteration = iteration
        self.label = label
        super().__init__(f"non-finite iterate at iteration {iteration} (term {label!r})")
