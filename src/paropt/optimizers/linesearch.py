"""Strong Wolfe line search over a bound-constrained segment.

The search direction is truncated to the feasible segment [0, alpha_max]
of the box, so every trial point is feasible and directional derivatives
stay exact.  When the one-dimensional minimum lies beyond the box, the
capped step is accepted on sufficient decrease alone, since no longer
step exists.  Every trial point goes through the coupled evaluator, so
value and gradient at each trial cost one batch.

An accepted step costs one extra trial only on a ray where the objective
fits a quadratic: there the secant zero of the directional derivative is
the exact 1-D minimizer, which gives quasi-Newton methods finite
termination on quadratics.  Elsewhere the first Wolfe point is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EvaluationError


@dataclass
class LineSearchResult:
    step: float
    par: np.ndarray
    value: float
    gradient: np.ndarray
    trials: int


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
    """No acceptable step was found; carries the best finite point seen."""

    def __init__(self, message, best=None, trials=0):
        super().__init__(message)
        self.best = best  # (par, value, gradient) or None
        self.trials = trials


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


def _extend_step(alpha, dphi, alpha_prev, dphi_prev):
    """Next longer trial via a secant step on the directional derivative,
    which lands on the 1-D minimizer exactly when the objective is
    quadratic along the ray; falls back to doubling otherwise."""
    denom = dphi - dphi_prev
    if denom > 0.0:
        t = alpha - dphi * (alpha - alpha_prev) / denom
        if np.isfinite(t) and t > alpha:
            return min(t, 100.0 * alpha)
    return 2.0 * alpha


def _fits_quadratic(alpha, f, dphi, alpha_ref, f_ref, dphi_ref):
    """Whether two points of phi, with values and slopes, lie on one
    quadratic: the trapezoid rule integrates phi' exactly between them."""
    df = f - f_ref
    gap = df - 0.5 * (alpha - alpha_ref) * (dphi + dphi_ref)
    return abs(gap) <= QUADRATIC_FIT_TOL * abs(df)


def _interpolate(a_lo, f_lo, dphi_lo, a_hi, f_hi):
    """Minimizer of the quadratic through (a_lo, f_lo, dphi_lo) and
    (a_hi, f_hi); falls back to bisection when the model is unusable."""
    width = a_hi - a_lo
    if f_hi is None or width == 0.0:
        return a_lo + 0.5 * width
    c = (f_hi - f_lo - dphi_lo * width) / (width * width)
    if c <= 0.0 or not np.isfinite(c):
        return a_lo + 0.5 * width
    t = -dphi_lo / (2.0 * c)
    frac = t / width
    if not np.isfinite(frac) or frac < 0.1 or frac > 0.9:
        return a_lo + 0.5 * width
    return a_lo + t


def wolfe_line_search(evaluator, x0, f0, g0, d, lower=None, upper=None, *,
                      c1=1e-4, c2=0.9, initial_step=1.0,
                      max_trials=20) -> LineSearchResult:
    """Find a step satisfying the strong Wolfe conditions along d.

    Trial points are x0 + alpha*d truncated to the box; the point at the
    feasible cap has its binding coordinates set exactly to their bounds.
    Raises LineSearchFailure after max_trials evaluations without an
    acceptable step, and ValueError when d is not a descent direction.
    Non-finite objective values at a trial cause a backtrack and retry.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if lower is None:
        lower = np.full(x0.shape, -np.inf)
    if upper is None:
        upper = np.full(x0.shape, np.inf)
    dphi0 = float(np.dot(g0, d))
    if dphi0 >= 0.0:
        raise ValueError(f"line search requires a descent direction, got d.g = {dphi0}")

    alpha_max, cap = max_feasible_step(x0, d, lower, upper)
    if alpha_max <= 0.0:
        raise ValueError("no feasible movement along the search direction")

    state = {"trials": 0, "best": None}

    def trial(alpha):
        if cap is not None and alpha >= alpha_max:
            alpha, xt = alpha_max, cap.copy()
        else:
            xt = np.clip(x0 + alpha * d, lower, upper)
        f, g = evaluator.value_and_gradient(xt)
        state["trials"] += 1
        if state["best"] is None or f < state["best"][1]:
            state["best"] = (xt, f, g)
        return alpha, xt, f, g, float(np.dot(g, d))

    def accept(alpha, xt, f, g, dphi=None, ref=None):
        """Wrap an acceptable point; when its slope reduction is poor and it
        fits a quadratic with ref = (alpha, f, dphi) of another point, spend
        one extra trial on the secant zero of the directional derivative
        (the 1-D minimizer for quadratics) and keep whichever is better."""
        if (dphi is not None and ref is not None
                and state["trials"] < max_trials
                and abs(dphi) > REFINE_RATIO * abs(dphi0)
                and _fits_quadratic(alpha, f, dphi, *ref)):
            a_ref, _, dphi_ref = ref
            denom = dphi - dphi_ref
            if denom != 0.0:
                t = alpha - dphi * (alpha - a_ref) / denom
                if np.isfinite(t) and t > 0.0 and t != alpha:
                    try:
                        t, xt2, f2, g2, dphi2 = trial(t)
                    except EvaluationError:
                        state["trials"] += 1
                        return LineSearchResult(alpha, xt, f, g, state["trials"])
                    if (armijo(t, f2) and abs(dphi2) <= -c2 * dphi0
                            and abs(dphi2) < abs(dphi)):
                        return LineSearchResult(t, xt2, f2, g2, state["trials"])
        return LineSearchResult(alpha, xt, f, g, state["trials"])

    def fail(reason):
        raise LineSearchFailure(reason, best=state["best"], trials=state["trials"])

    def armijo(alpha, f):
        return f <= f0 + c1 * alpha * dphi0

    def zoom(a_lo, f_lo, dphi_lo, x_lo, g_lo, a_hi, f_hi):
        # invariant: a_lo has sufficient decrease and the interval brackets
        # a Wolfe point; f_hi is None after a non-finite trial at a_hi
        while state["trials"] < max_trials:
            if abs(a_hi - a_lo) <= 1e-14 * max(1.0, abs(a_lo)):
                break
            a_j = _interpolate(a_lo, f_lo, dphi_lo, a_hi, f_hi)
            try:
                a_j, xt, f, g, dphi = trial(a_j)
            except EvaluationError:
                state["trials"] += 1
                a_hi, f_hi = a_j, None
                continue
            if not armijo(a_j, f) or f >= f_lo:
                a_hi, f_hi = a_j, f
            else:
                if abs(dphi) <= -c2 * dphi0:
                    return accept(a_j, xt, f, g, dphi, ref=(a_lo, f_lo, dphi_lo))
                if dphi * (a_hi - a_lo) >= 0.0:
                    a_hi, f_hi = a_lo, f_lo
                a_lo, f_lo, dphi_lo, x_lo, g_lo = a_j, f, dphi, xt, g
        # interval exhausted: fall back to the sufficient-decrease point
        if a_lo > 0.0 and x_lo is not None and armijo(a_lo, f_lo):
            return accept(a_lo, x_lo, f_lo, g_lo)
        if state["trials"] >= max_trials:
            fail(f"no acceptable step within {max_trials} trials")
        fail("zoom interval collapsed without an acceptable step")

    alpha_prev, f_prev, dphi_prev = 0.0, f0, dphi0
    x_prev, g_prev = None, None
    alpha = min(float(initial_step), alpha_max)
    if alpha <= 0.0:
        alpha = alpha_max if np.isfinite(alpha_max) else 1.0
    first = True
    while state["trials"] < max_trials:
        try:
            alpha, xt, f, g, dphi = trial(alpha)
        except EvaluationError:
            state["trials"] += 1
            alpha = alpha_prev + 0.5 * (alpha - alpha_prev)
            if alpha <= alpha_prev:
                fail("objective is non-finite arbitrarily close to the current point")
            continue
        if not armijo(alpha, f) or (not first and f >= f_prev):
            return zoom(alpha_prev, f_prev, dphi_prev, x_prev, g_prev, alpha, f)
        if abs(dphi) <= -c2 * dphi0:
            return accept(alpha, xt, f, g, dphi, ref=(alpha_prev, f_prev, dphi_prev))
        if dphi >= 0.0:
            return zoom(alpha, f, dphi, xt, g, alpha_prev, f_prev)
        if alpha >= alpha_max:
            # still descending at the box face; no longer step exists
            return accept(alpha, xt, f, g)
        next_alpha = min(_extend_step(alpha, dphi, alpha_prev, dphi_prev), alpha_max)
        alpha_prev, f_prev, dphi_prev = alpha, f, dphi
        x_prev, g_prev = xt, g
        alpha = next_alpha
        first = False
    fail(f"no acceptable step within {max_trials} trials")
