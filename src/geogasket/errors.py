"""Exception hierarchy shared across the package."""


class GeogasketError(Exception):
    """Base class for all package errors."""


class DomainError(GeogasketError, ValueError):
    """An argument is outside the documented domain of an operation."""


class ChartEscapeError(GeogasketError):
    """A geodesic left the chart rectangle during integration."""

    def __init__(self, exit_parameter: float):
        self.exit_parameter = exit_parameter
        super().__init__(
            f"geodesic left the chart domain near parameter t={exit_parameter:.6g}"
        )


class ShootingConvergenceError(GeogasketError):
    """The boundary-value shooting solver failed to reach its residual target.

    ``point`` and ``target`` are the chart points of the row with the
    largest residual.
    """

    def __init__(self, residual: float, iterations: int, point, target):
        self.residual = residual
        self.iterations = iterations
        self.point = point
        self.target = target
        super().__init__(
            f"log-map shooting stalled at residual {residual:.3e} "
            f"after {iterations} iterations, shooting from {tuple(point)} to {tuple(target)}"
        )


class DegenerateTriangleError(GeogasketError, ValueError):
    """Side lengths violate the strict triangle inequality."""


class ConvexityGuardError(GeogasketError, ValueError):
    """A triangle on a curved surface exceeds the convex working-domain guard."""


class NondegeneracyError(GeogasketError):
    """A subdivision cell failed the comparison-angle non-degeneracy test."""

    def __init__(self, cell, message: str):
        self.cell = cell
        super().__init__(message)


class InversionError(GeogasketError):
    """Parameter recovery for a subdivision map did not meet its residual bound."""


class DepthExhaustedError(GeogasketError):
    """A stored system is too shallow for the requested enumeration."""


class CapacityError(GeogasketError):
    """An atom or cell budget was exceeded with resampling disabled."""


class ExpressionError(GeogasketError, ValueError):
    """A metric expression failed to parse; carries line/column info."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class SceneValidationError(GeogasketError, ValueError):
    """A scene document or a stored system failed the checks of its reader."""
