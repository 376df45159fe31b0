"""Strong Wolfe line search over a bound-constrained segment.

The direction is truncated to the feasible segment [0, alpha_max] of the
box, so every trial point is feasible, and each trial's value and gradient
cost one batch of the coupled evaluator.  One loop runs every trial over a
bracket [lo, hi], as optim's L-BFGS-B does (More and Thuente, 1994).
While hi is open, steps grow by secant extrapolation up to the cap, where
a step that still descends is accepted.  A trial without sufficient
decrease, not below lo, or with a non-finite value or gradient closes the
bracket; later trials interpolate inside it.

An accepted step costs one extra trial only on a ray where the objective
fits a quadratic: there the secant zero of the directional derivative is
the exact 1-D minimizer, which gives quasi-Newton methods finite
termination on quadratics.  Elsewhere the first Wolfe point is returned.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from ..errors import NonFiniteError


@dataclass
class LineSearchResult:
    step: float
    par: np.ndarray
    value: float
    gradient: np.ndarray
    trials: int


# sufficient-decrease constant of the Armijo condition
ARMIJO_C1 = 1e-4
# evaluations one search may spend before it fails
MAX_TRIALS = 20

# An accepted step is refined once, by a trial at the secant zero of the
# directional derivative, when both hold: its slope is still above this
# fraction of the initial slope, and the accepted point and the point the
# secant is drawn from fit one quadratic along the ray (QUADRATIC_FIT_TOL).
# On a quadratic the secant zero is the exact 1-D minimizer, which
# quasi-Newton finite termination needs; on any other ray it rarely beats
# the Wolfe point already in hand and would cost one more batch.
REFINE_RATIO = 0.02
# relative tolerance of the trapezoid identity
# f - f_ref = (alpha - alpha_ref) * (dphi + dphi_ref) / 2, exact for quadratics
QUADRATIC_FIT_TOL = 1e-6


class LineSearchFailure(Exception):
    """No acceptable step was found.  Carries no trial point, so a failed
    search leaves its caller at x0."""

    def __init__(self, message, trials=0, rounded=False):
        super().__init__(message)
        self.trials = trials
        self.rounded = rounded  # the next trial point rounded onto x0


def max_feasible_step(x, d, lower, upper):
    """Largest alpha keeping x + alpha*d inside the box, with the exact
    boundary point reached there (None when the segment is unbounded)."""
    steps = np.full(x.shape, np.inf)
    pos = d > 0
    neg = d < 0
    steps[pos] = (upper[pos] - x[pos]) / d[pos]
    steps[neg] = (lower[neg] - x[neg]) / d[neg]
    alpha_max = float(steps.min()) if steps.size else np.inf
    if not np.isfinite(alpha_max):
        return np.inf, None
    cap = np.clip(x + alpha_max * d, lower, upper)
    binding = steps == alpha_max
    cap[binding & pos] = upper[binding & pos]
    cap[binding & neg] = lower[binding & neg]
    return alpha_max, cap


def _secant(alpha, dphi, alpha_ref, dphi_ref):
    """Zero of the line through two slopes of phi, the 1-D minimizer exactly
    when phi is quadratic along the ray; NaN when the slopes are equal."""
    denom = dphi - dphi_ref
    return alpha - dphi * (alpha - alpha_ref) / denom if denom != 0.0 else math.nan


def _extend_step(alpha, dphi, alpha_prev, dphi_prev):
    """Next longer trial: the secant zero when it lies beyond alpha, at most
    100 alpha; else double alpha."""
    t = _secant(alpha, dphi, alpha_prev, dphi_prev)
    return min(t, 100.0 * alpha) if math.isfinite(t) and t > alpha else 2.0 * alpha


def _fits_quadratic(alpha, f, dphi, alpha_ref, f_ref, dphi_ref):
    """Whether two points of phi, with values and slopes, lie on one
    quadratic: the trapezoid rule integrates phi' exactly between them."""
    df = f - f_ref
    gap = df - 0.5 * (alpha - alpha_ref) * (dphi + dphi_ref)
    return abs(gap) <= QUADRATIC_FIT_TOL * abs(df)


def _interpolate(a_lo, f_lo, dphi_lo, a_hi, f_hi, dphi_hi):
    """Minimizer of the cubic through (a_lo, f_lo, dphi_lo) and (a_hi, f_hi,
    dphi_hi), clamped to [0.1, 0.9] of the bracket from a_lo.  The quadratic
    through (a_lo, f_lo, dphi_lo) and (a_hi, f_hi) stands in when the cubic
    has no minimizer or the points fit a quadratic (the same model, without
    dphi_hi's error); bisection when f_hi is unknown or neither model has one."""
    width = a_hi - a_lo
    if f_hi is None or width == 0.0:
        return a_lo + 0.5 * width
    t = math.nan
    # Nocedal and Wright, eq. 3.59; t stays NaN without a real minimizer
    gap = f_hi - f_lo - 0.5 * width * (dphi_lo + dphi_hi) if dphi_hi is not None else 0.0
    if abs(gap) > QUADRATIC_FIT_TOL * abs(width * dphi_lo):
        d1 = dphi_lo + dphi_hi - 3.0 * (f_hi - f_lo) / width
        with suppress(ValueError, ZeroDivisionError):
            d2 = math.copysign(math.sqrt(d1 * d1 - dphi_lo * dphi_hi), width)
            t = width - width * (dphi_hi + d2 - d1) / (dphi_hi - dphi_lo + 2.0 * d2)
    if not math.isfinite(t):
        c = ((f_hi - f_lo) / width - dphi_lo) / width
        if c <= 0.0 or not math.isfinite(c):
            return a_lo + 0.5 * width
        t = -dphi_lo / (2.0 * c)
    return a_lo + min(max(t / width, 0.1), 0.9) * width


def wolfe_line_search(evaluator, x0, f0, g0, d, *,
                      c2=0.9, initial_step=1.0) -> LineSearchResult:
    """Find a step satisfying the strong Wolfe conditions along d.

    Trial points are x0 + alpha*d truncated to the evaluator's box; the
    point at the feasible cap has its binding coordinates set exactly to
    their bounds.
    Raises LineSearchFailure after MAX_TRIALS evaluations without an
    acceptable step or, with `rounded` set, when a trial inside the bracket
    would round onto x0; and ValueError when d is not a descent direction
    or initial_step is not finite and > 0.
    A trial with a non-finite value or gradient closes the bracket there;
    any other EvaluationError, such as a gradient of the wrong shape, is
    raised.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    lower, upper = evaluator.lower, evaluator.upper
    dphi0 = float(np.dot(g0, d))
    if not dphi0 < 0.0:
        raise ValueError(f"line search requires a descent direction, got d.g = {dphi0}")
    if not 0.0 < initial_step < math.inf:
        raise ValueError(f"initial_step must be finite and > 0, got {initial_step!r}")

    alpha_max, cap = max_feasible_step(x0, d, lower, upper)
    if alpha_max <= 0.0:
        raise ValueError("no feasible movement along the search direction")

    trials = 0

    def point(alpha):
        if cap is not None and alpha >= alpha_max:
            return alpha_max, cap
        return alpha, np.clip(x0 + alpha * d, lower, upper)

    def trial(alpha, xt):
        nonlocal trials
        trials += 1
        f, g = evaluator.value_and_gradient(xt)
        return alpha, xt, f, g, float(np.dot(g, d))

    def accept(alpha, xt, f, g, dphi=None, ref=None):
        """Wrap an acceptable point.  When its slope reduction is poor and it
        fits a quadratic with ref = (alpha, f, dphi), spend one trial on the
        secant zero short of any non-finite step; keep the better point."""
        if (dphi is not None and ref is not None
                and trials < MAX_TRIALS
                and abs(dphi) > REFINE_RATIO * abs(dphi0)
                and _fits_quadratic(alpha, f, dphi, *ref)):
            t = _secant(alpha, dphi, ref[0], ref[2])
            if math.isfinite(t) and 0.0 < t < a_nonfinite and t != alpha:
                with suppress(NonFiniteError):  # keep the point in hand
                    t, xt2, f2, g2, dphi2 = trial(*point(t))
                    if (armijo(t, f2) and abs(dphi2) <= -c2 * dphi0
                            and abs(dphi2) < abs(dphi)):
                        return LineSearchResult(t, xt2, f2, g2, trials)
        return LineSearchResult(alpha, xt, f, g, trials)

    def fail(reason, rounded=False):
        raise LineSearchFailure(reason, trials, rounded)

    def armijo(alpha, f):
        return f <= f0 + ARMIJO_C1 * alpha * dphi0

    # lo is the best trial so far and has sufficient decrease (x_lo is None
    # exactly when a_lo is 0); hi is open (a_hi None) until a trial fails to
    # improve on lo, and f_hi and dphi_hi are None after a non-finite trial
    a_lo, f_lo, dphi_lo, x_lo, g_lo = 0.0, f0, dphi0, None, None
    a_hi = f_hi = dphi_hi = None
    a_nonfinite = math.inf  # the shortest step with a non-finite value
    alpha = min(float(initial_step), alpha_max)
    while trials < MAX_TRIALS:
        if a_hi is None:
            a_j, xt = point(alpha)
        else:
            if abs(a_hi - a_lo) <= 1e-14 * max(1.0, abs(a_lo)):
                break
            a_j, xt = point(_interpolate(a_lo, f_lo, dphi_lo, a_hi, f_hi, dphi_hi))
            # a trial that rounds onto the low point would only repeat it
            if xt.tobytes() == (x0 if x_lo is None else x_lo).tobytes():
                if x_lo is None:
                    fail("no decrease before the step rounds to zero", rounded=True)
                break
        try:
            a_j, xt, f, g, dphi = trial(a_j, xt)
        except NonFiniteError:
            a_hi = a_nonfinite = a_j
            f_hi = dphi_hi = None
            continue
        # extrapolating from the start, Armijo alone judges the decrease: its
        # bound rounds to f0 when alpha*dphi0 is tiny, and longer steps may help
        if not armijo(a_j, f) or (f >= f_lo and (x_lo is not None or a_hi is not None)):
            a_hi, f_hi, dphi_hi = a_j, f, dphi
            continue
        if abs(dphi) <= -c2 * dphi0:
            return accept(a_j, xt, f, g, dphi, ref=(a_lo, f_lo, dphi_lo))
        if a_hi is None and dphi < 0.0:
            if a_j >= alpha_max:
                # still descending at the box face; no longer step exists
                return accept(a_j, xt, f, g)
            alpha = min(_extend_step(a_j, dphi, a_lo, dphi_lo), alpha_max)
        elif a_hi is None or dphi * (a_hi - a_lo) >= 0.0:
            # an open hi reads as dphi >= 0: the slope turned past lo
            a_hi, f_hi, dphi_hi = a_lo, f_lo, dphi_lo
        a_lo, f_lo, dphi_lo, x_lo, g_lo = a_j, f, dphi, xt, g
    # only a closed bracket falls back to its sufficient-decrease point
    if a_hi is not None and x_lo is not None:
        return accept(a_lo, x_lo, f_lo, g_lo)
    if trials >= MAX_TRIALS:
        fail(f"no acceptable step within {MAX_TRIALS} trials")
    fail("zoom interval collapsed without an acceptable step")
