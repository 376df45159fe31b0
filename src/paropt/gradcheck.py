"""Analytic-gradient verification against central differences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .evaluator import CoupledEvaluator
from .stencil import CENTRAL, as_parameter_vector, validate_bounds

ABS_FLOOR = 1e-6
REL_FACTOR = 1e-4
MARGIN = 1e-2  # distance kept from each bound by sampled points


def agreement_tolerance(gradient: np.ndarray) -> float:
    """Allowed absolute disagreement per coordinate: max(1e-6, 1e-4 |g|_inf)."""
    ginf = float(np.abs(gradient).max()) if np.asarray(gradient).size else 0.0
    return max(ABS_FLOOR, REL_FACTOR * ginf)


@dataclass(frozen=True)
class GradCheckRow:
    point: np.ndarray
    analytic: np.ndarray
    approx: np.ndarray
    max_abs_err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_abs_err <= self.tol


@dataclass(frozen=True)
class GradCheckReport:
    rows: tuple
    eps: float

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def worst(self) -> GradCheckRow:
        return max(self.rows, key=lambda row: row.max_abs_err - row.tol)


def sample_feasible_points(center, count, seed, lower=None, upper=None,
                           spread=1.0):
    """Uniform draws in a box of half-width spread around center, pushed
    inside the bounds by MARGIN so stencils stay two-sided."""
    center = as_parameter_vector(center)
    lo, hi = validate_bounds(lower, upper, center.size)
    rng = np.random.Generator(np.random.PCG64(seed))
    points = []
    for _ in range(count):
        x = center + rng.uniform(-spread, spread, size=center.size)
        points.append(np.clip(x, lo + MARGIN, hi - MARGIN))
    return points


def check_gradient(objective, gradient, center, *, lower=None, upper=None,
                   points=10, seed=0, eps=1e-3, spread=1.0) -> GradCheckReport:
    """Compare an analytic gradient with central differences at random
    feasible points near center; each point passes when the coordinatewise
    error stays within agreement_tolerance of the analytic gradient."""
    if gradient is None:
        raise ConfigError("gradient check needs an analytic gradient")
    center = as_parameter_vector(center)
    sampled = sample_feasible_points(center, points, seed, lower, upper, spread)
    ev = CoupledEvaluator(objective, center.size, scheme=CENTRAL, eps=eps,
                          lower=lower, upper=upper)
    try:
        rows = []
        for x in sampled:
            exact = np.asarray(gradient(x), dtype=np.float64)
            _, approx = ev.value_and_gradient(x)
            err = float(np.abs(approx - exact).max())
            rows.append(GradCheckRow(x, exact, approx, err, agreement_tolerance(exact)))
    finally:
        ev.close()
    return GradCheckReport(tuple(rows), eps)
