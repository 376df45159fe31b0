"""Exception types shared across the package, and the input rules every
public entry point checks its counts, seeds, durations and named choices
with."""

import math
import numbers


class ConfigError(ValueError):
    """Invalid configuration: bad step sizes, inverted bounds, bad options."""


class DimensionError(ValueError):
    """A vector's length does not match the problem dimension."""


class EvaluationError(RuntimeError):
    """The objective or gradient produced an unusable result: a non-finite
    one (NonFiniteError) or a gradient of the wrong shape.

    Carries the offending parameter vector so callers can report it.  The
    optimizer raises it, except for a non-finite result at a line-search
    trial, which closes the search's bracket instead.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class NonFiniteError(EvaluationError):
    """A non-finite objective value or gradient entry."""


class DatasetError(ValueError):
    """A dataset file could not be parsed."""


def check_count(name, value, least=1) -> int:
    """`value` as an int when it is an integral number >= `least`, else
    ConfigError."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_nonnegative(name, value) -> float:
    """`value` as a float when it is a finite real >= 0, else ConfigError."""
    if not isinstance(value, numbers.Real) or not 0.0 <= value < math.inf:
        raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


def check_choice(name, value, allowed):
    """`value` when it is a string among `allowed`, else ConfigError."""
    if not isinstance(value, str) or value not in allowed:
        raise ConfigError(f"unknown {name} {value!r}, expected one of {tuple(allowed)}")
    return value
