"""Registered example problems: pure test functions and a data-driven
negative log-likelihood.

Each entry is a ProblemSpec bundling the objective, an optional analytic
gradient, default bounds, and a conventional starting point.  Problems
named in DATA_PROBLEMS cannot be instantiated without a dataset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DatasetError, check_choice, check_count, check_nonnegative

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class ProblemSpec:
    """A named objective with its optional gradient and default run shape."""

    name: str
    objective: Callable[[np.ndarray], float]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    p: Optional[int] = None  # None = any dimension
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    par0: Optional[np.ndarray] = None
    summary: str = ""

    def check_dimension(self, par) -> None:
        if self.p is not None and np.asarray(par).size != self.p:
            raise ConfigError(
                f"problem {self.name!r} is {self.p}-dimensional, "
                f"got {np.asarray(par).size} parameters")


def _sum_of_squares(name, p, par0, summary, sleep_s=0.0) -> ProblemSpec:
    """x.x with gradient 2x, each call stalling sleep_s seconds first."""

    def objective(par):
        if sleep_s > 0:
            time.sleep(sleep_s)
        return float(np.dot(par, par))

    def gradient(par):
        if sleep_s > 0:
            time.sleep(sleep_s)
        return 2.0 * np.asarray(par, dtype=np.float64)

    return ProblemSpec(name, objective, gradient, p=p, par0=par0, summary=summary)


def quadratic_problem() -> ProblemSpec:
    """Sum of squares in any dimension, minimum at the origin."""
    return _sum_of_squares("quadratic", None, np.array([1.0, 1.0]),
                           "sum of squares, any dimension, minimum 0 at the origin")


def rosenbrock_problem() -> ProblemSpec:
    """Classic banana valley in two dimensions, minimum at (1, 1)."""

    def objective(par):
        x, y = float(par[0]), float(par[1])
        return 100.0 * (y - x * x) ** 2 + (1.0 - x) ** 2

    def gradient(par):
        x, y = float(par[0]), float(par[1])
        return np.array([
            -400.0 * x * (y - x * x) - 2.0 * (1.0 - x),
            200.0 * (y - x * x),
        ])

    return ProblemSpec("rosenbrock", objective, gradient, p=2,
                       par0=np.array([-1.2, 1.0]),
                       summary="Rosenbrock valley, p=2, minimum 0 at (1, 1)")


def normal_negll_problem(data) -> ProblemSpec:
    """Negative log-likelihood of an i.i.d. normal sample, par = (mu, sigma).

    Outside sigma > 0 the objective is +inf, which line search trials back
    off from; but unbounded, a start within eps of sigma = 0 puts the first
    difference stencil there, and optimize raises EvaluationError.  The
    default lower bound (sigma >= 1e-4) avoids that by clamping the stencil.
    """
    x = np.asarray(data, dtype=np.float64).ravel()
    if x.size == 0:
        raise DatasetError("normal_negll needs a non-empty dataset")
    if not np.all(np.isfinite(x)):
        raise DatasetError("normal_negll dataset contains non-finite values")
    n = x.size

    def objective(par):
        mu, sigma = float(par[0]), float(par[1])
        if sigma <= 0.0:
            return np.inf
        resid = x - mu
        return n * np.log(sigma) + 0.5 * n * LOG_2PI + float(resid @ resid) / (2.0 * sigma * sigma)

    def gradient(par):
        mu, sigma = float(par[0]), float(par[1])
        if sigma <= 0.0:
            return np.array([np.nan, np.nan])
        resid = x - mu
        return np.array([
            -float(resid.sum()) / (sigma * sigma),
            n / sigma - float(resid @ resid) / sigma ** 3,
        ])

    return ProblemSpec("normal_negll", objective, gradient, p=2,
                       lower=np.array([-np.inf, 1e-4]),
                       par0=np.array([1.0, 1.0]),
                       summary="normal-sample negative log-likelihood in (mu, sigma); needs data")


def sleep_problem(p: int, sleep_s: float) -> ProblemSpec:
    """Quadratic whose objective and gradient each stall for sleep_s seconds.

    The stall models expensive model evaluations; sleeping releases the
    interpreter lock, so parallel stencil evaluation overlaps the waits.
    """
    p = check_count("p", p)
    sleep_s = check_nonnegative("sleep_s", sleep_s)
    return _sum_of_squares("sleep", p, np.full(p, 0.1),
                           f"sum of squares with a {sleep_s}s stall per call", sleep_s)


_REGISTRY = {
    "quadratic": lambda data=None: quadratic_problem(),
    "rosenbrock": lambda data=None: rosenbrock_problem(),
    "normal_negll": lambda data=None: normal_negll_problem(data),
    # the registry entry carries no delay; the benchmark injects real sleeps
    "sleep": lambda data=None: sleep_problem(2, 0.0),
}

DATA_PROBLEMS = frozenset({"normal_negll"})  # builders that need a dataset


def problem_names() -> list[str]:
    return list(_REGISTRY)


def get_problem(name: str, data=None) -> ProblemSpec:
    """Instantiate a registered problem, binding a dataset when one is needed.

    Raises ConfigError for unknown names and DatasetError when a
    data-dependent problem is requested without data.
    """
    builder = _REGISTRY[check_choice("problem", name, problem_names())]
    if name in DATA_PROBLEMS and data is None:
        raise DatasetError(f"problem {name!r} requires a dataset")
    return builder(data)
