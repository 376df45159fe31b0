"""The input rules: a count, a finite non-negative real and a named choice."""

import math
from fractions import Fraction

import numpy as np
import pytest

from paropt.errors import ConfigError, check_choice, check_count, check_nonnegative


@pytest.mark.parametrize("value", [1, 7, np.int64(3), True])
def test_count_accepts_integral_numbers_as_int(value):
    got = check_count("n", value)
    assert type(got) is int and got == value


@pytest.mark.parametrize("value", [0, -1, 2.5, 3.0, "3", None, np.float64(2.0)])
def test_count_rejects_everything_else(value):
    with pytest.raises(ConfigError, match="n must be an integer >= 1"):
        check_count("n", value)


@pytest.mark.parametrize("value", [0, 0.0, 0.25, 5, np.float32(0.5), Fraction(1, 4), 1e308])
def test_nonnegative_accepts_finite_reals_as_float(value):
    got = check_nonnegative("s", value)
    assert type(got) is float and got == value


@pytest.mark.parametrize("value", [-1e-300, -1, math.nan, math.inf, -math.inf, "0.1", None,
                                   np.array([0.5])])
def test_nonnegative_rejects_everything_else(value):
    with pytest.raises(ConfigError, match="s must be finite and >= 0"):
        check_nonnegative("s", value)


def test_choice_returns_an_allowed_value():
    assert check_choice("method", "bfgs", ("lbfgsb", "bfgs")) == "bfgs"


@pytest.mark.parametrize("value", ["BFGS", "", None, 1, ("bfgs",), np.array(["bfgs", "cg"])])
def test_choice_rejects_everything_else_naming_the_choices(value):
    with pytest.raises(ConfigError,
                       match=r"unknown method .*, expected one of \('lbfgsb', 'bfgs'\)"):
        check_choice("method", value, ["lbfgsb", "bfgs"])
