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


def rosenbrock_in_place(x):
    """Rosenbrock after writing |x[1]| into its argument.  A process pool
    hands each task a pickled copy of its point, so a solve on one slot
    matches only when each task there gets its own copy too."""
    x[1] = abs(x[1])
    return rosenbrock(x)


PLAIN = rosenbrock, [-1.2, 1.0, -1.2]
# a negative x[1], so the in-place objective's write changes the point
IN_PLACE = rosenbrock_in_place, [-1.2, -1.0, -1.2]


def outcome(pool, problem, gradient):
    objective, start = problem
    r = optimize(objective, start, gradient, pool=pool, eps=1e-5, loginfo=True)
    return r.par.tobytes(), r.value, r.code, r.message, r.counts, r.log.to_csv()


@pytest.mark.parametrize("problem, gradient", [
    (PLAIN, None), (PLAIN, rosenbrock_gradient),
    (IN_PLACE, None), (IN_PLACE, rosenbrock_gradient),
], ids=["central", "analytic", "in-place-central", "in-place-analytic"])
def test_a_process_pool_solves_bitwise_as_one_slot(process_pool, problem, gradient):
    with WorkerPool(1) as pool:
        expected = outcome(pool, problem, gradient)
    assert expected[2] == 0
    assert outcome(process_pool, problem, gradient) == expected
