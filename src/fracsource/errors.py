"""Exception types shared across the solvers."""


class FracsourceError(Exception):
    """Base class for solver-level failures."""


class PointDegenerateError(FracsourceError):
    """The observation point x0 satisfies |g(x0)| below the usable threshold."""


class NonZeroInitialTraceError(FracsourceError):
    """An observed trace violates the zero-initial-data assumption."""


class DivergenceError(FracsourceError):
    """An iterative reconstruction grew for several consecutive iterations."""


class AllModesCutError(FracsourceError):
    """Spectral cutoff removed every mode from a final-data reconstruction."""


class DegenerateRhoError(FracsourceError):
    """The known temporal factor is (numerically) zero where it must not be."""


class NonPositiveParamsError(FracsourceError):
    """Iteration parameters that must be positive are not."""


class ParameterError(ValueError):
    """A solver argument outside its admissible range; `name` is the argument."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name
