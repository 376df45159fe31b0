"""Analytic-gradient verification against central differences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_count, check_nonnegative
from .evaluator import CoupledEvaluator, parallel_value_and_gradient
from .stencil import CENTRAL, as_parameter_vector, validate_bounds

ABS_FLOOR = 1e-6
REL_FACTOR = 1e-4
MARGIN = 1e-2  # distance sampled points keep from each bound, less in a narrower box


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

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def worst(self) -> GradCheckRow:
        return max(self.rows, key=lambda row: row.max_abs_err - row.tol)


def sample_feasible_points(center, count, seed, lower=None, upper=None,
                           spread=1.0):
    """Uniform draws in a box of half-width spread around center, pushed
    inside the bounds by MARGIN, or by half the width of a narrower box, so
    stencils stay two-sided.  A box that fixes a coordinate is refused: no
    difference can check that coordinate."""
    center = as_parameter_vector(center)
    lo, hi = validate_bounds(lower, upper, center.size)
    if np.any(lo == hi):
        bad = int(np.argmax(lo == hi))
        raise ConfigError(f"bounds fix coordinate {bad} at {lo[bad]}, "
                          f"so no difference can check its gradient")
    margin = np.minimum(MARGIN, (hi - lo) / 2)
    rng = np.random.Generator(np.random.PCG64(seed))
    points = []
    for _ in range(count):
        x = center + rng.uniform(-spread, spread, size=center.size)
        points.append(np.clip(x, lo + margin, hi - margin))
    return points


def check_gradient(objective, gradient, center, *, lower=None, upper=None,
                   points=10, seed=0, spread=1.0) -> GradCheckReport:
    """Compare an analytic gradient with central differences of step 1e-3
    at random feasible points near center; each point passes when the
    coordinatewise error stays within agreement_tolerance of the analytic
    gradient.  A gradient of the wrong shape raises EvaluationError, as it
    does in optimize."""
    if gradient is None:
        raise ConfigError("gradient check needs an analytic gradient")
    center = as_parameter_vector(center)
    points = check_count("points", points)
    seed = check_count("seed", seed, least=0)
    spread = check_nonnegative("spread", spread)
    sampled = sample_feasible_points(center, points, seed, lower, upper, spread)
    ev = CoupledEvaluator(objective, center.size, scheme=CENTRAL,
                          lower=lower, upper=upper)
    rows = []
    for x in sampled:
        # the evaluator's shape rule; a non-finite entry fails its row
        _, exact = parallel_value_and_gradient(ev.pool, objective, gradient, x)
        _, approx = ev.value_and_gradient(x)
        err = float(np.abs(approx - exact).max())
        rows.append(GradCheckRow(x, exact, approx, err, agreement_tolerance(exact)))
    return GradCheckReport(tuple(rows))
