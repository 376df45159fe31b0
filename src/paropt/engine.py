"""Worker pool and batched evaluation of independent objective calls.

A pool of `size` evaluation slots runs pure-function tasks and hands the
results back in submission order, so outputs are bitwise-independent of
pool size and of task completion order.  Slot 0 is the calling thread; the
other `size - 1` slots are daemon threads, each with its own FIFO inbox.  A
batch goes out as at most `size` contiguous chunks of tasks, one per slot:
the caller runs the first chunk itself and then waits once, on a latch that
the last slot thread to finish opens.  A batch of one task, and every
batch on a pool of size 1, runs inline on the calling thread.

Every pool size follows one error policy: a task's Exception is held until
the whole batch has drained, then the first in submission order is
re-raised; any other BaseException (such as KeyboardInterrupt) goes ahead
of them, at once on the calling thread, and after the other chunks finish
when it ends a slot thread's chunk; a closed pool raises RuntimeError.

Wall-clock speedup requires the objective to release the GIL while it
works (time.sleep, I/O, numpy/BLAS kernels, other C extensions).  That
matches the pure-function contract these tasks already have to satisfy.
"""

from __future__ import annotations

import queue
import threading
import weakref

import numpy as np

from .errors import ConfigError, EvaluationError


def _outcome(task):
    """Run one task: (result, None), or (None, exc) when it raises an
    Exception.  Any other BaseException escapes."""
    try:
        return task(), None
    except Exception as exc:  # drained; re-raised by run_batch
        return None, exc


class _Batch:
    """One run_batch call: its tasks, their outcomes by task index, and a
    latch that the last of `waiting` slot threads to finish opens."""

    def __init__(self, tasks, waiting):
        self.tasks = tasks
        self.outcomes = [None] * len(tasks)
        self.interrupt = None
        self.waiting = waiting
        self._count = threading.Lock()
        self.latch = threading.Lock()
        self.latch.acquire()

    def run(self, lo, hi):
        for i in range(lo, hi):
            self.outcomes[i] = _outcome(self.tasks[i])

    def run_on_slot(self, lo, hi):
        """run() on a slot thread; a BaseException ends the chunk and is
        kept for run_batch to raise."""
        try:
            self.run(lo, hi)
        except BaseException as exc:  # re-raised on the calling thread
            self.interrupt = exc
        with self._count:
            self.waiting -= 1
            if self.waiting == 0:
                self.latch.release()


def _serve(inbox):
    """Body of a slot thread: run chunks in arrival order until None."""
    for batch, lo, hi in iter(inbox.get, None):
        batch.run_on_slot(lo, hi)


def _stop_slots(inboxes):
    for inbox in inboxes:
        inbox.put(None)


class WorkerPool:
    """Fixed-size pool of evaluation slots with a blocking batch-submit API.

    The calling thread is slot 0, and `size - 1` daemon threads are the
    rest; a batch is split into contiguous chunks, one per slot.  Safe to
    share across sequential optimization runs; a single run issues one
    batch at a time.  Use as a context manager or call close(); a pool
    that is dropped unclosed stops its threads when it is collected.
    """

    def __init__(self, size: int = 1):
        size = int(size)
        if size < 1:
            raise ConfigError(f"worker pool size must be >= 1, got {size}")
        self.size = size
        self._closed = False
        self._inboxes = [queue.SimpleQueue() for _ in range(size - 1)]
        self._threads = [threading.Thread(target=_serve, args=(inbox,), daemon=True,
                                          name=f"paropt-slot-{slot}")
                         for slot, inbox in enumerate(self._inboxes, 1)]
        for thread in self._threads:
            thread.start()
        self._stop = weakref.finalize(self, _stop_slots, self._inboxes)

    def run_batch(self, tasks):
        """Run zero-arg callables, returning results in submission order.

        If tasks raise Exceptions, the whole batch drains first and then the
        first of them in submission order is re-raised.  Any other
        BaseException, such as KeyboardInterrupt, goes ahead of them: at
        once when a task on the calling thread raises it, after the other
        chunks finish when one on a slot thread does.  A closed pool raises
        RuntimeError.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        tasks = list(tasks)
        chunks = min(self.size, len(tasks))
        outcomes = self._spread(tasks, chunks) if chunks > 1 else list(map(_outcome, tasks))
        for _, exc in outcomes:
            if exc is not None:
                raise exc
        return [result for result, _ in outcomes]

    def _spread(self, tasks, chunks):
        """Outcomes of tasks run as `chunks` contiguous chunks, the first on
        the calling thread and one on each of the first `chunks - 1` slot
        threads."""
        bounds = [len(tasks) * c // chunks for c in range(chunks + 1)]
        batch = _Batch(tasks, chunks - 1)
        for inbox, lo, hi in zip(self._inboxes, bounds[1:], bounds[2:]):
            inbox.put((batch, lo, hi))
        batch.run(0, bounds[1])
        batch.latch.acquire()
        if batch.interrupt is not None:
            raise batch.interrupt
        return batch.outcomes

    def close(self):
        self._closed = True
        self._stop()
        for thread in self._threads:
            thread.join()

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
