"""Exception hierarchy shared across the package, and the JSON reader rules.

Every reader of user input (scenes, stored systems, custom surfaces,
gauges) checks its document with the rules at the end of this module, so
that one field is held to the same rule wherever it is read.  The encoding
of stored float arrays lives here too, reader and writer together.
"""

import binascii
import math

import numpy as np


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


class CapacityError(GeogasketError):
    """An atom or cell budget was exceeded with resampling disabled."""


class ExpressionError(GeogasketError, ValueError):
    """A metric expression failed to parse; carries line/column info."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class SceneValidationError(DomainError):
    """A scene document or a stored system failed the checks of its reader."""


# -- JSON reader rules -----------------------------------------------------


def is_json_int(x) -> bool:
    # an integer as JSON Schema counts one: 3 and 3.0, but not true
    return type(x) is int or (type(x) is float and x.is_integer())


def json_object(doc, keys, field: str, optional=None) -> dict:
    """``doc`` if it is a JSON object holding every key of ``keys``; given
    ``optional``, also one holding no key outside ``keys`` and ``optional``."""
    if not isinstance(doc, dict):
        raise SceneValidationError(f"{field} must be an object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise SceneValidationError(f"{field} lacks {', '.join(missing)}")
    extra = set() if optional is None else doc.keys() - {*keys, *optional}
    if extra:
        raise SceneValidationError(f"{field} has unknown keys {sorted(extra)}")
    return doc


def json_numbers(value, shape: tuple, field: str) -> np.ndarray:
    """``value`` as a float array: finite JSON numbers (no bools) of exactly
    ``shape``, where a ``None`` entry allows any length n."""
    try:
        arr = np.array(value, dtype=object)
        fits = arr.ndim == len(shape) and all(s in (None, n) for s, n in zip(shape, arr.shape))
        if fits and set(map(type, arr.flat)) <= {int, float}:
            out = arr.astype(float)
            if np.isfinite(out).all():
                return out
    except (ValueError, OverflowError):
        pass
    shape = str(shape).replace("None", "n")
    raise SceneValidationError(f"{field} must hold finite numbers of shape {shape}")


def json_integer(value, field: str, lo=-math.inf, hi=math.inf) -> int:
    """``value`` as an int: a JSON integer (3 or 3.0, not true) in [lo, hi] that a float holds."""
    number = float(json_numbers(value, (), field))
    if not (is_json_int(value) and lo <= number <= hi):
        raise SceneValidationError(f"{field} must be an integer in [{lo}, {hi}], not {value!r}")
    return int(value)


def json_binary64(value, shape: tuple, field: str) -> np.ndarray:
    """``value`` as a float array of ``shape``: a string of standard padded
    base64 (RFC 4648 section 4) of finite little-endian IEEE-754 binary64
    values in C order."""
    count = math.prod(shape)
    if not isinstance(value, str):
        raise SceneValidationError(f"{field} must be a base64 string, not {type(value).__name__}")
    try:
        raw = binascii.a2b_base64(value)
    except ValueError:
        raw = None
    # a2b_base64 skips characters outside the alphabet unless strict_mode
    # (Python 3.11+) is given, so a decoding counts only if it encodes back
    if raw is None or binascii.b2a_base64(raw, newline=False) != value.encode():
        raise SceneValidationError(f"{field} must be standard padded base64 with no other character")
    if len(raw) != 8 * count:
        raise SceneValidationError(f"{field} must hold {count} binary64 values ({8 * count} bytes), not {len(raw)} bytes")
    out = np.frombuffer(raw, dtype="<f8").reshape(shape)
    if not np.isfinite(out).all():
        raise SceneValidationError(f"{field} must hold finite numbers")
    return out


def binary64_text(values) -> str:
    """The string ``json_binary64`` reads back as ``values``, bit for bit."""
    data = np.ascontiguousarray(values, dtype="<f8").tobytes()
    return binascii.b2a_base64(data, newline=False).decode("ascii")
