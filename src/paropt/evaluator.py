"""Coupled objective/gradient evaluation behind a single-entry cache.

Requesting the value or the gradient at some parameters triggers exactly
one (possibly parallel) evaluation of both; the companion query at the
same parameters is then served from the cache.  The cache holds only the
most recent evaluation and is keyed on bitwise equality of the full parameter
vector, so any change in any coordinate forces a fresh evaluation batch.
The objective contract is checked here and only here: a finite scalar value,
and a gradient of the parameters' shape with finite entries.  Every batch
reaches the pool through `_run_tasks`, which gives each task its own point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import stencil as st
from .engine import WorkerPool
from .errors import EvaluationError, NonFiniteError, check_choice, check_count

ANALYTIC = "analytic"


def _finite_value(value, x) -> float:
    if not isinstance(value, float) and np.ndim(value) != 0:
        raise EvaluationError(f"objective returned shape {np.shape(value)}, "
                              f"expected a scalar, at {x}", point=x)
    fv = float(value)
    if not math.isfinite(fv):
        raise NonFiniteError(f"objective returned non-finite value {fv} at {x}", point=x)
    return fv


def _run_tasks(pool, functions, points) -> list:
    """Run functions[i] on row i of one fresh float64 copy of the points, its
    own to write into as R passes by value, all as one batch.  Returns the
    results in submission order from any iterable the pool returns; raises
    RuntimeError unless it returns exactly one result per task."""
    tasks = [partial(f, row) for f, row in zip(functions, np.array(points, dtype=np.float64))]
    results = list(pool.run_batch(tasks))
    if len(results) != len(tasks):
        raise RuntimeError(f"pool returned {len(results)} results for {len(tasks)} tasks")
    return results


def evaluate_batch(pool, objective, points) -> list[float]:
    """Evaluate the objective at every point as one batch, in submission order.

    `points` are the rows of one matrix.  Raises NonFiniteError naming the
    first point (in submission order, as passed in) whose value is
    non-finite; the pool's own policy passes on what the objective raises.
    """
    pts = np.asarray(points, dtype=np.float64)
    values = _run_tasks(pool, [objective] * len(pts), pts)
    return [_finite_value(v, x) for x, v in zip(pts, values)]


def parallel_value_and_gradient(pool, objective, gradient, par):
    """Run objective(par) and gradient(par) as one batch of two tasks.

    With two or more slots the elapsed time approaches the longer call, and
    results match sequential execution.  Checks the gradient's shape and the
    value's finiteness, naming par as passed in; the caller checks its entries.
    """
    x = np.asarray(par, dtype=np.float64)
    value, grad = _run_tasks(pool, (objective, gradient), (x, x))
    gv = np.asarray(grad, dtype=np.float64)
    if gv.shape != x.shape:
        raise EvaluationError(f"gradient returned shape {gv.shape}, expected {x.shape}", point=x)
    return _finite_value(value, x), gv


@dataclass(frozen=True)
class EvalCounts:
    """Snapshot of raw evaluation work performed so far.

    fn_calls counts user-objective invocations, gr_calls analytic-gradient
    invocations, batches parallel dispatches.  All are monotonic.
    """

    fn_calls: int = 0
    gr_calls: int = 0
    batches: int = 0


class CoupledEvaluator:
    """Couples fn and gr evaluation behind a single-entry cache.

    Built with an empty cache and zeroed counters.

    Parameters
    ----------
    objective : callable
        Maps a length-dim float vector to a scalar.
    dim : int
        Number of parameters; fixed for the evaluator's lifetime.
    gradient : callable, optional
        Analytic gradient mapping a vector to a length-dim vector.  When
        given, finite differences are not used and `scheme` is ignored.
    scheme : {"central", "forward"}
        Difference scheme used when no analytic gradient is supplied.
    eps : float or array_like
        Per-coordinate finite-difference step, > 0.
    lower, upper : array_like, optional
        Box bounds; stencil steps are clamped so no point leaves the box.
        `has_box` records, once, whether any bound is finite.
    pool : object with run_batch(tasks), optional
        Runs each batch, as a WorkerPool does.  Defaults to a one-slot
        pool, which runs each batch on the calling thread and starts no
        thread, so the evaluator holds nothing to close.
    """

    def __init__(self, objective, dim, gradient=None, scheme=st.CENTRAL,
                 eps=1e-3, lower=None, upper=None, pool=None):
        self.dim = check_count("dimension", dim)
        self._objective = objective
        self._gradient = gradient
        self.mode = ANALYTIC if gradient is not None else check_choice(
            "difference scheme", scheme, st.SCHEMES)
        self.eps = st.validate_eps(eps, self.dim)
        self.lower, self.upper = st.validate_bounds(lower, upper, self.dim)
        # without a finite bound every in-box check, mask, cap and clip is a no-op
        self.has_box = bool(np.isfinite(self.lower).any() or np.isfinite(self.upper).any())
        self.pool = pool if pool is not None else WorkerPool(1)
        self._fn_calls = self._batches = 0
        # the last evaluation, keyed on the bytes of its parameter vector
        self._key = self._value = self._grad = None

    def value_and_gradient(self, par) -> tuple[float, np.ndarray]:
        """Objective value and gradient at par, from cache or one fresh batch."""
        x = st.as_parameter_vector(par, self.dim)
        key = x.tobytes()
        if key != self._key:
            self._value, self._grad = self._evaluate(x)
            self._key = key
        return self._value, self._grad.copy()

    def value(self, par) -> float:
        """Objective value at par; a cache miss evaluates both fn and gr."""
        return self.value_and_gradient(par)[0]

    def gradient(self, par) -> np.ndarray:
        """Gradient at par; a cache miss evaluates both fn and gr."""
        return self.value_and_gradient(par)[1]

    def counts(self) -> EvalCounts:
        """Snapshot of the evaluation counters; each analytic batch calls gr once."""
        gr_calls = self._batches if self.mode == ANALYTIC else 0
        return EvalCounts(self._fn_calls, gr_calls, self._batches)

    def _evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        # unbounded, as_parameter_vector has refused every point this could fail
        if self.has_box:
            st.check_inside(x, self.lower, self.upper)
        if self.mode == ANALYTIC:
            self._batches += 1
            self._fn_calls += 1
            value, grad = parallel_value_and_gradient(
                self.pool, self._objective, self._gradient, x
            )
        else:
            sten = st.build_stencil(x, self.eps, self.mode, self.lower, self.upper)
            self._batches += 1
            self._fn_calls += len(sten.points)
            values = evaluate_batch(self.pool, self._objective, sten.points)
            value, grad = st.assemble_gradient(values, sten)
        # an analytic gradient, or a quotient of finite values that overflowed
        if not np.isfinite(grad).all():
            raise NonFiniteError(f"gradient has non-finite entries {grad} at {x}", point=x)
        return value, grad
