"""Worker pool ordering, error draining, and batched evaluation."""

import gc
import os
import random
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paropt.engine import WorkerPool
from paropt.evaluator import evaluate_batch, parallel_value_and_gradient
from paropt.errors import ConfigError, EvaluationError


def test_results_keep_submission_order():
    def make(i, delay):
        def task():
            time.sleep(delay)
            return i
        return task

    with WorkerPool(4) as pool:
        out = pool.run_batch([make(i, d) for i, d in enumerate([0.05, 0.0, 0.03, 0.01])])
    assert out == [0, 1, 2, 3]


def test_size_one_runs_inline():
    with WorkerPool(1) as pool:
        seen = pool.run_batch([threading.get_ident])
    assert seen == [threading.get_ident()]


@pytest.mark.parametrize("size", [1, 3])
def test_batch_drains_before_raising(size):
    ran = []
    lock = threading.Lock()

    def ok(i):
        def task():
            with lock:
                ran.append(i)
            return i
        return task

    def boom(msg):
        def task():
            raise RuntimeError(msg)
        return task

    with WorkerPool(size) as pool:
        with pytest.raises(RuntimeError, match="first"):
            pool.run_batch([ok(0), boom("first"), ok(2), boom("second")])
    assert sorted(ran) == [0, 2]


def test_first_error_in_submission_order_wins():
    # the later-submitted failure finishes first; the earlier one must win
    def slow_fail():
        time.sleep(0.05)
        raise RuntimeError("early")

    def fast_fail():
        raise RuntimeError("late")

    with WorkerPool(2) as pool:
        with pytest.raises(RuntimeError, match="early"):
            pool.run_batch([slow_fail, fast_fail])


@pytest.mark.parametrize("size", [1, 3])
def test_interrupt_propagates_past_an_earlier_error(size):
    # an Exception is held until the batch drains; KeyboardInterrupt is not
    def boom():
        raise RuntimeError("ordinary failure")

    def interrupt():
        raise KeyboardInterrupt

    with WorkerPool(size) as pool:
        with pytest.raises(KeyboardInterrupt):
            pool.run_batch([boom, interrupt])
        assert pool.run_batch([lambda: 1, lambda: 2]) == [1, 2]


@pytest.mark.parametrize("size", [1, 3])
def test_closed_pool_refuses_batches(size):
    ran = []
    pool = WorkerPool(size)
    pool.close()
    with pytest.raises(RuntimeError, match="worker pool is closed"):
        pool.run_batch([lambda: ran.append(1)])
    assert ran == []


@pytest.mark.parametrize("size", [0, 2.5, "3"])
def test_pool_size_must_be_positive(size):
    with pytest.raises(ConfigError):
        WorkerPool(size)


def _in_a_thread(fn):
    """Run fn in a daemon thread for at most 5 s; its return value, or the
    Exception it raised.  A hang fails the test instead of stalling it."""
    out = []

    def call():
        try:
            out.append(fn())
        except Exception as exc:  # reported by the caller's assertion
            out.append(exc)

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive(), "run_batch hung"
    return out[0]


def test_close_while_the_tasks_are_listed_refuses_the_batch():
    # close() runs to the end while run_batch builds its task list, so the
    # slot threads are gone before the batch could ask them for help
    pool = WorkerPool(3)

    def tasks():
        closer = threading.Thread(target=pool.close)
        closer.start()
        closer.join()
        yield from (lambda i=i: i for i in range(3))

    err = _in_a_thread(lambda: pool.run_batch(tasks()))
    assert isinstance(err, RuntimeError) and str(err) == "worker pool is closed"


def test_close_lets_a_submitted_batch_finish():
    # one task closes the pool while the naps wait or run on the slot threads
    pool = WorkerPool(3)

    def nap(i):
        def task():
            time.sleep(0.05)
            return i
        return task

    assert _in_a_thread(lambda: pool.run_batch([pool.close, nap(1), nap(2)])) == [None, 1, 2]
    with pytest.raises(RuntimeError, match="worker pool is closed"):
        pool.run_batch([nap(0)])


class _Failure(Exception):
    pass


# a drawn task returns its integer, or raises _Failure(index) when drawn None
_task = st.one_of(st.integers(-99, 99), st.none())


def _counted_tasks(draws, interrupt_at=None):
    """Tasks for the draws, and the list counting each task's runs."""
    ran = [0] * len(draws)
    lock = threading.Lock()

    def make(i, draw):
        def task():
            with lock:
                ran[i] += 1
            if i == interrupt_at:
                raise KeyboardInterrupt
            if draw is None:
                raise _Failure(i)
            return draw
        return task

    return [make(i, d) for i, d in enumerate(draws)], ran


@given(size=st.integers(1, 4), draws=st.lists(_task, max_size=12))
def test_pool_contract_matches_a_serial_run(size, draws):
    tasks, ran = _counted_tasks(draws)
    failures = [i for i, d in enumerate(draws) if d is None]
    with WorkerPool(size) as pool:
        if failures:
            with pytest.raises(_Failure) as err:
                pool.run_batch(tasks)
            assert err.value.args == (failures[0],)
        else:
            assert pool.run_batch(tasks) == draws
    assert ran == [1] * len(draws)


@given(size=st.integers(1, 4), draws=st.lists(_task, min_size=1, max_size=12),
       data=st.data())
def test_pool_contract_survives_an_interrupt(size, draws, data):
    n = len(draws)
    tasks, _ = _counted_tasks(draws, interrupt_at=data.draw(st.integers(0, n - 1)))
    with WorkerPool(size) as pool:
        with pytest.raises(KeyboardInterrupt):
            pool.run_batch(tasks)
        assert pool.run_batch([lambda i=i: i for i in range(n)]) == list(range(n))


def test_sleep_tasks_overlap():
    def nap():
        time.sleep(0.1)
        return 1

    with WorkerPool(4) as pool:
        pool.run_batch([nap] * 4)  # spin up the threads
        start = time.perf_counter()
        pool.run_batch([nap] * 4)
        elapsed = time.perf_counter() - start
    assert elapsed < 0.3  # serial would take >= 0.4


def test_concurrent_batches_overlap():
    # any free slot thread helps the next batch, so the second tasks of
    # four 2-task batches run side by side rather than one after another
    def nap():
        time.sleep(0.1)

    with WorkerPool(8) as pool:
        pool.run_batch([nap] * 8)  # spin up the threads
        callers = [threading.Thread(target=pool.run_batch, args=([nap, nap],))
                   for _ in range(4)]
        start = time.perf_counter()
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join()
        elapsed = time.perf_counter() - start
    assert elapsed < 0.25  # one slot thread for every second task would take >= 0.4


def test_interrupt_on_the_calling_thread_leaves_the_pool_usable():
    # task 0 runs on the caller (slot 0); tasks 1-2 are still asleep on the
    # slot threads when the interrupt leaves run_batch
    def interrupt():
        raise KeyboardInterrupt

    def nap(i):
        def task():
            time.sleep(0.1)
            return i
        return task

    with WorkerPool(3) as pool:
        with pytest.raises(KeyboardInterrupt):
            pool.run_batch([interrupt, nap(1), nap(2)])
        assert pool.run_batch([lambda: 1, lambda: 2, lambda: 3]) == [1, 2, 3]


def test_a_free_slot_takes_the_next_task():
    # the two naps hold both slots; whichever ends first runs the two quick
    # tasks, where contiguous halves would queue a nap behind a nap
    def nap(delay):
        return lambda: time.sleep(delay)

    with WorkerPool(2) as pool:
        pool.run_batch([nap(0)] * 2)  # spin up the threads
        start = time.perf_counter()
        pool.run_batch([nap(0.1), nap(0.1), nap(0), nap(0)])
        elapsed = time.perf_counter() - start
    assert elapsed < 0.17  # a slot running both naps would take >= 0.2


def test_slot_threads_run_the_tasks_an_interrupted_caller_left():
    # the interrupt leaves run_batch at once, but the slot thread goes on
    # taking tasks; the next batch's request for help queues behind it, so
    # once that batch returns every recorder has run
    ran = []
    lock = threading.Lock()

    def interrupt():
        raise KeyboardInterrupt

    def record(i):
        def task():
            with lock:
                ran.append(i)
        return task

    with WorkerPool(2) as pool:
        with pytest.raises(KeyboardInterrupt):
            pool.run_batch([interrupt] + [record(i) for i in range(5)])
        assert pool.run_batch([lambda i=i: i for i in range(3)]) == [0, 1, 2]
    assert sorted(ran) == list(range(5))


def test_batch_longer_than_the_pool_keeps_order_and_width():
    lock = threading.Lock()
    running = [0]
    peak = [0]

    def make(i, delay):
        def task():
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(delay)
            with lock:
                running[0] -= 1
            return i
        return task

    delays = [0.002 * k for k in range(1, 11)]
    random.Random(10).shuffle(delays)
    with WorkerPool(3) as pool:
        out = pool.run_batch([make(i, d) for i, d in enumerate(delays)])
    assert out == list(range(10))
    assert peak[0] <= 3


@pytest.mark.parametrize("size", [1, 3])
def test_empty_batch(size):
    with WorkerPool(size) as pool:
        assert pool.run_batch([]) == []


def test_unclosed_pool_lets_the_interpreter_exit():
    code = ("from paropt import WorkerPool\n"
            "pool = WorkerPool(3)\n"
            "assert pool.run_batch([lambda: 1] * 3) == [1, 1, 1]\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=10)
    assert done.returncode == 0


@pytest.mark.parametrize("size", [1, 4])
def test_close_joins_the_slot_threads(size):
    # a one-slot pool starts no thread: its batches run on the caller
    before = threading.active_count()
    pool = WorkerPool(size)
    assert threading.active_count() == before + size - 1
    pool.run_batch([lambda: 1] * 4)
    pool.close()
    assert threading.active_count() == before


def test_dropped_pool_stops_its_threads():
    pool = WorkerPool(3)
    threads = list(pool._threads)
    del pool
    gc.collect()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_many_small_batches_under_fast_thread_switching():
    # a lost or misrouted end report would leave a batch waiting for ever,
    # or return before its slots have written their outcomes
    failures = []

    def hammer():
        try:
            with WorkerPool(6) as pool:
                for n in range(400):
                    tasks = [lambda i=i: i * i for i in range(n % 13)]
                    if pool.run_batch(tasks) != [i * i for i in range(n % 13)]:
                        failures.append(n)
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=hammer, daemon=True)
        worker.start()
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert failures == []


def test_evaluate_batch_bitwise_same_for_any_pool_size():
    def obj(x):
        return float(np.sin(x) @ np.cos(x))

    pts = [np.full(3, 0.1 * k) for k in range(8)]
    with WorkerPool(1) as p1, WorkerPool(5) as p5:
        assert evaluate_batch(p1, obj, pts) == evaluate_batch(p5, obj, pts)


def test_evaluate_batch_flags_first_nonfinite_point():
    def obj(x):
        return float("nan") if x[0] > 0.25 else float(x[0])

    def writer(x):
        value = obj(x)
        x[0] = -1.0
        return value

    # the error names the point as passed in, not the task's copy it wrote to
    for objective in (obj, writer):
        with WorkerPool(2) as pool:
            with pytest.raises(EvaluationError) as err:
                evaluate_batch(pool, objective, [[0.1], [0.3], [0.5]])
        assert err.value.point[0] == pytest.approx(0.3)


def test_coupled_call_runs_each_function_once(counted):
    obj = counted(lambda x: float(np.dot(x, x)))
    gr = counted(lambda x: 2.0 * np.asarray(x, dtype=np.float64))
    with WorkerPool(2) as pool:
        f, g = parallel_value_and_gradient(pool, obj, gr, [1.0, 2.0])
    assert f == 5.0
    assert g.tolist() == [2.0, 4.0]
    assert len(obj.calls) == 1
    assert len(gr.calls) == 1


def test_coupled_call_checks_gradient_shape():
    with WorkerPool(1) as pool:
        with pytest.raises(EvaluationError):
            parallel_value_and_gradient(pool, lambda x: 1.0,
                                        lambda x: np.zeros(3), [1.0, 2.0])


def test_coupled_call_rejects_nonfinite():
    # a non-finite gradient entry is the evaluator's check, for both kinds
    with WorkerPool(1) as pool:
        with pytest.raises(EvaluationError):
            parallel_value_and_gradient(pool, lambda x: float("inf"),
                                        lambda x: np.zeros(2), [1.0, 2.0])
