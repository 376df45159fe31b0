"""Any object whose run_batch(tasks) returns the tasks' results in submission
order can run a solve.  A process pool is the strictest such backend: every
task must pickle, objective and point included.  Whether processes speed up
a CPU-bound objective is not measured here."""

import operator
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import pytest

from paropt import WorkerPool, optimize

# read-only, as tools/bitwise_corpus.py imports the benchmark's workloads; the
# path is in place before the first worker process starts, so it finds them too
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import rosenbrock, rosenbrock_gradient  # noqa: E402


class ProcessPool:
    """The pool protocol over an executor, whose error policy it keeps."""

    def __init__(self, executor):
        self.executor = executor

    def run_batch(self, tasks):
        return list(self.executor.map(operator.call, tasks, timeout=60))


@pytest.fixture(scope="module")
def process_pool():
    with ProcessPoolExecutor(2, mp_context=get_context("forkserver")) as executor:
        yield ProcessPool(executor)


def outcome(pool, gradient):
    r = optimize(rosenbrock, [-1.2, 1.0, -1.2], gradient, pool=pool, eps=1e-5, loginfo=True)
    return r.par.tobytes(), r.value, r.code, r.message, r.counts, r.log.to_csv()


@pytest.mark.parametrize("gradient", [None, rosenbrock_gradient],
                         ids=["central", "analytic"])
def test_a_process_pool_solves_bitwise_as_one_slot(process_pool, gradient):
    with WorkerPool(1) as pool:
        expected = outcome(pool, gradient)
    assert expected[2] == 0
    assert outcome(process_pool, gradient) == expected
