"""Worker pool: the default runner of a solve's evaluation batches.

A pool of `size` evaluation slots runs pure-function tasks and hands the
results back in submission order, so outputs are bitwise-independent of
pool size and of task completion order; any object whose run_batch(tasks)
does the same can replace it.  A calling thread is slot 0 of its own
batches and `size - 1` daemon threads share one FIFO inbox; each slot of a
batch takes its next task until none is left, so a slow task holds up only
its own slot, and K callers can run up to K + size - 1 tasks at once.

Every pool size follows one error policy: a task's Exception is held until
the whole batch has drained, then the first in submission order is
re-raised; any other BaseException (such as KeyboardInterrupt) goes ahead,
at once on the calling thread, after the rest of the batch on a slot thread.
close() lets batches already submitted finish; later ones raise RuntimeError.

Wall-clock speedup requires the objective to release the GIL while it
works (time.sleep, I/O, numpy/BLAS kernels, other C extensions).  That
matches the pure-function contract these tasks already have to satisfy.
"""

from __future__ import annotations

import queue
import threading
import weakref

from .errors import check_count


def _run(tasks, outcomes, todo):
    """Run tasks[i] into outcomes[i] for each index i taken from `todo`
    until it is empty: (result, None) per task, or (None, exc) when it
    raises an Exception.  Any other BaseException escapes."""
    for i in todo:
        try:
            outcomes[i] = tasks[i](), None
        except Exception as exc:  # drained; re-raised by run_batch
            outcomes[i] = None, exc


def _serve(inbox):
    """Body of a slot thread: help batches in arrival order until None, putting
    on each one's done queue None, or the BaseException that stopped this slot."""
    for tasks, outcomes, todo, done in iter(inbox.get, None):
        report = None
        try:
            _run(tasks, outcomes, todo)
        except BaseException as exc:  # re-raised on the calling thread
            report = exc
        done.put(report)


def _stop_slots(inbox, threads):
    for _ in range(threads):
        inbox.put(None)


class WorkerPool:
    """Fixed-size pool of evaluation slots with a blocking batch-submit API.

    Threads may run batches, or whole optimization runs, on one pool at
    once, each as slot 0 of its own.  Use as a context manager or call
    close(); a pool that is dropped unclosed stops its threads when it is
    collected.
    """

    def __init__(self, size: int = 1):
        self.size = check_count("worker pool size", size)
        self._closed = False
        self._lock = threading.Lock()  # orders close() against batch submission
        self._inbox = queue.SimpleQueue()
        self._threads = [threading.Thread(target=_serve, args=(self._inbox,), daemon=True,
                                          name=f"paropt-slot-{slot}")
                         for slot in range(1, self.size)]
        for thread in self._threads:
            thread.start()
        self._stop = weakref.finalize(self, _stop_slots, self._inbox, self.size - 1)

    def run_batch(self, tasks):
        """Run zero-arg callables, returning results in submission order.

        If tasks raise Exceptions, the whole batch drains first and then the
        first of them in submission order is re-raised.  Any other
        BaseException, such as KeyboardInterrupt, goes ahead of them: at
        once from the calling thread, whose untaken tasks the slot threads
        still run, and after the rest of the batch from a slot thread.  A
        batch submitted after close() raises RuntimeError; one submitted
        before it finishes.
        """
        tasks = list(tasks)
        n = len(tasks)
        # every slot takes indices from this one iterator, safe only because
        # next() is atomic under the GIL; a free-threaded build needs a lock
        todo = iter(range(n))
        outcomes = [None] * n
        done = queue.SimpleQueue()
        helpers = min(self.size, n) - 1
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            for _ in range(helpers):
                self._inbox.put((tasks, outcomes, todo, done))
        _run(tasks, outcomes, todo)
        for report in [done.get() for _ in range(helpers)]:
            if report is not None:
                raise report
        for _, exc in outcomes:
            if exc is not None:
                raise exc
        return [result for result, _ in outcomes]

    def close(self):
        with self._lock:
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
