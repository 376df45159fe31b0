"""Worker pool ordering, error draining, and batched evaluation."""

import threading
import time

import numpy as np
import pytest

from paropt.engine import WorkerPool, evaluate_batch, parallel_value_and_gradient
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


def test_pool_size_must_be_positive():
    with pytest.raises(ConfigError):
        WorkerPool(0)


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


def test_evaluate_batch_bitwise_same_for_any_pool_size():
    def obj(x):
        return float(np.sin(x) @ np.cos(x))

    pts = [np.full(3, 0.1 * k) for k in range(8)]
    with WorkerPool(1) as p1, WorkerPool(5) as p5:
        assert evaluate_batch(p1, obj, pts) == evaluate_batch(p5, obj, pts)


def test_evaluate_batch_flags_first_nonfinite_point():
    def obj(x):
        return float("nan") if x[0] > 0.25 else float(x[0])

    with WorkerPool(2) as pool:
        with pytest.raises(EvaluationError) as err:
            evaluate_batch(pool, obj, [[0.1], [0.3], [0.5]])
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
    with WorkerPool(1) as pool:
        with pytest.raises(EvaluationError):
            parallel_value_and_gradient(pool, lambda x: float("inf"),
                                        lambda x: np.zeros(2), [1.0, 2.0])
        with pytest.raises(EvaluationError):
            parallel_value_and_gradient(pool, lambda x: 1.0,
                                        lambda x: np.array([np.nan, 0.0]), [1.0, 2.0])
