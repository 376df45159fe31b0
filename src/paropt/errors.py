"""Exception types shared across the package, and the scalar input rules
every public entry point checks its counts and durations with."""

import math
import numbers


class ConfigError(ValueError):
    """Invalid configuration: bad step sizes, inverted bounds, bad options."""


class DimensionError(ValueError):
    """A vector's length does not match the problem dimension."""


class EvaluationError(RuntimeError):
    """The objective (or gradient) produced a non-finite result.

    Carries the offending parameter vector so callers can report or retry.
    The optimizer treats this as retryable inside a line search and as a
    hard failure at the initial point.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class DatasetError(ValueError):
    """A dataset file could not be parsed."""


def check_count(name, value) -> int:
    """`value` as an int when it is an integral number >= 1, else ConfigError."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def check_nonnegative(name, value) -> float:
    """`value` as a float when it is a finite real >= 0, else ConfigError."""
    if not isinstance(value, numbers.Real) or not 0.0 <= value < math.inf:
        raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)
