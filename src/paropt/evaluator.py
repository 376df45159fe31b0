"""Coupled objective/gradient evaluation behind a single-entry cache.

Requesting the value or the gradient at some parameters triggers exactly
one (possibly parallel) evaluation of both; the companion query at the
same parameters is then served from the cache.  The cache holds only the
most recent evaluation and is keyed on bitwise equality of the full parameter
vector, so any change in any coordinate forces a fresh evaluation batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stencil as st
from .engine import WorkerPool, evaluate_batch, parallel_value_and_gradient
from .errors import ConfigError, EvaluationError

ANALYTIC = "analytic"


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
    pool : WorkerPool, optional
        Evaluation pool.  Defaults to a private single-slot pool.
    """

    def __init__(self, objective, dim, gradient=None, scheme=st.CENTRAL,
                 eps=1e-3, lower=None, upper=None, pool=None):
        self.dim = int(dim)
        if self.dim < 1:
            raise ConfigError(f"dimension must be >= 1, got {dim}")
        self._objective = objective
        self._gradient = gradient
        self.mode = ANALYTIC if gradient is not None else scheme
        if gradient is None and scheme not in (st.CENTRAL, st.FORWARD):
            raise ConfigError(f"unknown difference scheme {scheme!r}")
        self.eps = st.validate_eps(eps, self.dim)
        self.lower, self.upper = st.validate_bounds(lower, upper, self.dim)
        self._owns_pool = pool is None
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

    def objective_value(self, par) -> float:
        """Objective alone at par, without forming a gradient.

        For when no gradient can exist (degenerate bounds leave no stencil
        room); served from the cache when the point was already evaluated.
        """
        x = st.as_parameter_vector(par, self.dim)
        if x.tobytes() == self._key:
            return self._value
        self._batches += 1
        self._fn_calls += 1
        return evaluate_batch(self.pool, self._objective, [x])[0]

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
            values = evaluate_batch(
                self.pool, self._objective, [pt.point for pt in sten.points]
            )
            value, grad = st.assemble_gradient(values, sten)
            # finite values can still overflow in the difference quotient
            if not np.all(np.isfinite(grad)):
                raise EvaluationError(
                    f"gradient has non-finite entries {grad} at {x}", point=x
                )
        return value, grad

    def close(self):
        if self._owns_pool:
            self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


make_coupled_evaluator = CoupledEvaluator
