"""Worker pool and batched evaluation of independent objective calls.

The pool runs pure-function tasks on OS threads and hands results back in
submission order, so outputs are bitwise-independent of pool size and of
task completion order.  A pool of size 1 executes tasks inline on the
submitting thread.  Every pool size follows one error policy: a task's
Exception is held until the whole batch has drained, then the first in
submission order is re-raised; any other BaseException (such as
KeyboardInterrupt) propagates at once; a closed pool raises RuntimeError.

Wall-clock speedup requires the objective to release the GIL while it
works (time.sleep, I/O, numpy/BLAS kernels, other C extensions).  That
matches the pure-function contract these tasks already have to satisfy.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError, EvaluationError


def _outcome(task):
    """Run one task: (result, None), or (None, exc) when it raises an
    Exception.  Any other BaseException escapes."""
    try:
        return task(), None
    except Exception as exc:  # drained; re-raised by run_batch
        return None, exc


class WorkerPool:
    """Fixed-size pool of evaluation slots with a blocking batch-submit API.

    Safe to share across sequential optimization runs; a single run issues
    one batch at a time.  Use as a context manager or call close().
    """

    def __init__(self, size: int = 1):
        size = int(size)
        if size < 1:
            raise ConfigError(f"worker pool size must be >= 1, got {size}")
        self.size = size
        self._closed = False
        self._executor = ThreadPoolExecutor(max_workers=size) if size > 1 else None

    def run_batch(self, tasks):
        """Run zero-arg callables, returning results in submission order.

        If tasks raise Exceptions, the whole batch drains first and then the
        first of them in submission order is re-raised.  Any other
        BaseException, such as KeyboardInterrupt, propagates at once.  A
        closed pool raises RuntimeError.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        run = map if self._executor is None else self._executor.map
        outcomes = list(run(_outcome, tasks))
        for _, exc in outcomes:
            if exc is not None:
                raise exc
        return [result for result, _ in outcomes]

    def close(self):
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        return f"WorkerPool(size={self.size})"


def _finite_value(value, x) -> float:
    fv = float(value)
    if not np.isfinite(fv):
        raise EvaluationError(f"objective returned non-finite value {fv} at {x}", point=x)
    return fv


def evaluate_batch(pool: WorkerPool, objective, points) -> list[float]:
    """Evaluate the objective at every point, in parallel, results in
    submission order.

    Raises EvaluationError naming the first point (in submission order)
    whose value is non-finite; exceptions raised by the objective itself
    propagate after the batch drains.
    """
    pts = [np.asarray(pt, dtype=np.float64) for pt in points]
    values = pool.run_batch([lambda x=x: objective(x) for x in pts])
    return [_finite_value(v, x) for x, v in zip(pts, values)]


def parallel_value_and_gradient(pool: WorkerPool, objective, gradient, par):
    """Run objective(par) and gradient(par) as two concurrent tasks.

    With pool size >= 2 the elapsed time approaches max of the two call
    durations; results are identical to sequential execution.
    """
    x = np.asarray(par, dtype=np.float64)
    value, grad = pool.run_batch([lambda: objective(x), lambda: gradient(x)])
    gv = np.asarray(grad, dtype=np.float64)
    if gv.shape != x.shape:
        raise EvaluationError(
            f"gradient returned shape {gv.shape}, expected {x.shape}", point=x
        )
    fv = _finite_value(value, x)
    if not np.all(np.isfinite(gv)):
        raise EvaluationError(f"gradient returned non-finite entries {gv} at {x}", point=x)
    return fv, gv
