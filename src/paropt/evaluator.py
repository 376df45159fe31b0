"""Coupled objective/gradient evaluation behind a single-entry cache.

Requesting the value or the gradient at some parameters triggers exactly
one (possibly parallel) evaluation of both; the companion query at the
same parameters is then served from the cache.  The cache holds only the
most recent evaluation and is keyed on bitwise equality of the full parameter
vector, so any change in any coordinate forces a fresh evaluation batch.
The objective contract is checked here and only here: a finite scalar value,
and a gradient of the parameters' shape with finite entries.  Which array a
task gets is decided here too: its own row of a fresh float64 matrix made at
dispatch, a copy of its point as R passes arguments by value, which the task
may write into.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import stencil as st
from .engine import WorkerPool
from .errors import EvaluationError, NonFiniteError, check_choice, check_count

ANALYTIC = "analytic"


def _finite_value(value, x) -> float:
    if np.ndim(value) != 0:
        raise EvaluationError(f"objective returned shape {np.shape(value)}, "
                              f"expected a scalar, at {x}", point=x)
    fv = float(value)
    if not np.isfinite(fv):
        raise NonFiniteError(f"objective returned non-finite value {fv} at {x}", point=x)
    return fv


def evaluate_batch(pool, objective, points) -> list[float]:
    """Evaluate the objective at every point as one batch, in submission order.

    `points` are the rows of one matrix.  Each task gets its own row of a
    fresh copy of it.  Raises NonFiniteError naming the first point (in
    submission order, as passed in) whose value is non-finite; the pool's
    own policy passes on what the objective raises.
    """
    pts = np.asarray(points, dtype=np.float64)
    values = pool.run_batch([partial(objective, x) for x in np.array(pts)])
    return [_finite_value(v, x) for x, v in zip(pts, values)]


def parallel_value_and_gradient(pool, objective, gradient, par):
    """Run objective(par) and gradient(par) as one batch of two tasks.

    The two tasks get the two rows of one fresh matrix, each its own copy
    of par.  With two or more slots the elapsed time approaches the longer
    of the two calls; results are identical to sequential execution.
    Checks the gradient's shape and the value's finiteness, naming par as
    passed in; the caller checks the gradient's entries.
    """
    x = np.asarray(par, dtype=np.float64)
    xf, xg = np.array([x, x])
    value, grad = pool.run_batch([partial(objective, xf), partial(gradient, xg)])
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
        self.pool = pool if pool is not None else WorkerPool(1)
        self._fn_calls = 0
        self._gr_calls = 0
        self._batches = 0
        # the last evaluation, keyed on the bytes of its parameter vector
        self._key = self._value = self._grad = None

    # -- evaluation --------------------------------------------------------

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
        """Snapshot of the evaluation counters."""
        return EvalCounts(self._fn_calls, self._gr_calls, self._batches)

    # -- internals ----------------------------------------------------------

    def _evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        if self.mode == ANALYTIC:
            self._batches += 1
            self._fn_calls += 1
            self._gr_calls += 1
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
        if not np.all(np.isfinite(grad)):
            raise NonFiniteError(f"gradient has non-finite entries {grad} at {x}", point=x)
        return value, grad
