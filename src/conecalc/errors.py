"""Exception hierarchy shared across the library.

The CLI maps these onto exit codes: usage and parse problems exit 2,
mathematical failures (counterexamples, unsupported requests) exit 1.
"""


class ConecalcError(Exception):
    """Base class for all library errors."""


class DomainError(ConecalcError, ValueError):
    """An argument is outside the documented domain of an operation."""


class DimensionMismatchError(DomainError):
    """Operands live in different ambient dimensions."""


class SpecParseError(ConecalcError, ValueError):
    """A cone descriptor string could not be parsed."""

    def __init__(self, message, position=0):
        super().__init__(message)
        self.position = position


class InternalConsistencyError(ConecalcError, RuntimeError):
    """A cross-check between two internal computations disagreed."""


class ResourceLimitError(ConecalcError, RuntimeError):
    """A combinatorial size cap was exceeded."""


class SamplingError(ConecalcError, RuntimeError):
    """Rejection sampling failed to produce admissible samples."""


class PoleError(ConecalcError, ArithmeticError):
    """A jet was requested at a kernel pole.

    ``limit_value`` carries the limiting function value at the pole
    (-inf for kernels with p >= 2, 0.0 for 1 <= p < 2).
    """

    def __init__(self, message, limit_value=float("-inf")):
        super().__init__(message)
        self.limit_value = limit_value


class UnsupportedPolarError(ConecalcError, ValueError):
    """Polar functions were requested below the supported exponent range."""


class StencilError(ConecalcError, ValueError):
    """A finite-difference stencil was clipped by the boundary or a mask."""


class DiscretizationError(ConecalcError, RuntimeError):
    """The puncture geometry leaves no admissible stencil at some point."""
