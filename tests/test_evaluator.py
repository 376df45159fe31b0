"""Coupled evaluation, single-entry caching, and call-count laws."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from paropt import CoupledEvaluator, WorkerPool, optimize
from paropt.errors import ConfigError, DimensionError, EvaluationError
from paropt.evaluator import (EvalCounts, _finite_value, evaluate_batch,
                               parallel_value_and_gradient)
from paropt.stencil import FORWARD

from objectives import rosen, sum_sq, sum_sq_grad


def test_value_then_gradient_is_one_batch(counted):
    obj = counted(sum_sq)
    ev = CoupledEvaluator(obj, 2, gradient=sum_sq_grad)
    x = np.array([1.0, 2.0])
    assert ev.value(x) == 5.0
    assert ev.gradient(x).tolist() == [2.0, 4.0]
    assert ev.counts() == EvalCounts(fn_calls=1, gr_calls=1, batches=1)
    assert len(obj.calls) == 1


@pytest.mark.parametrize("p", [1, 2, 5])
def test_central_difference_call_count(p, counted):
    obj = counted(sum_sq)
    ev = CoupledEvaluator(obj, p)
    ev.gradient(np.linspace(1.0, 2.0, p))
    counts = ev.counts()
    assert counts.fn_calls == 1 + 2 * p
    assert len(obj.calls) == 1 + 2 * p
    assert counts.batches == 1
    assert counts.gr_calls == 0


@pytest.mark.parametrize("p", [1, 3, 4])
def test_forward_difference_call_count(p, counted):
    obj = counted(sum_sq)
    ev = CoupledEvaluator(obj, p, scheme=FORWARD)
    ev.gradient(np.linspace(1.0, 2.0, p))
    assert ev.counts().fn_calls == 1 + p
    assert ev.counts().batches == 1


def test_cache_hit_reuses_record():
    ev = CoupledEvaluator(sum_sq, 2, gradient=sum_sq_grad)
    x = np.array([1.0, 2.0])
    f1, g1 = ev.value_and_gradient(x)
    f2, g2 = ev.value_and_gradient(x.copy())
    assert f1 == f2
    assert g1.tolist() == g2.tolist()
    assert ev.counts().batches == 1


def test_any_bit_change_misses_cache():
    ev = CoupledEvaluator(sum_sq, 2)
    ev.value([1.0, 2.0])
    ev.value([1.0, np.nextafter(2.0, 3.0)])
    assert ev.counts().batches == 2


def test_cache_depth_is_one():
    ev = CoupledEvaluator(sum_sq, 1)
    ev.value([1.0])
    ev.value([2.0])
    ev.value([1.0])  # evicted by the middle point
    assert ev.counts().batches == 3


def test_coupled_sum_and_product_single_batch(counted):
    obj = counted(lambda x: float(np.sum(x)))
    gr = counted(lambda x: np.full(x.size, float(np.prod(x))))
    ev = CoupledEvaluator(obj, 5, gradient=gr)
    f, g = ev.value_and_gradient([1.0, 2.0, 3.0, 4.0, 5.0])
    assert f == 15.0
    assert g.tolist() == [120.0] * 5
    assert ev.counts() == EvalCounts(fn_calls=1, gr_calls=1, batches=1)


def test_nonfinite_stencil_point_raises_with_location():
    def obj(x):
        return float("nan") if x[0] > 0.5005 else sum_sq(x)

    ev = CoupledEvaluator(obj, 1)
    with pytest.raises(EvaluationError) as err:
        ev.value([0.5])
    assert err.value.point[0] == pytest.approx(0.501)


@pytest.mark.filterwarnings("error")
def test_difference_quotient_overflow_raises():
    # every stencil value is finite, but their difference overflows to inf
    def obj(x):
        return 1e308 if x[0] > 0.5 else -1e308

    ev = CoupledEvaluator(obj, 1)
    with pytest.raises(EvaluationError, match="gradient") as err:
        ev.value([0.5])
    assert err.value.point.tolist() == [0.5]


def test_nonfinite_analytic_gradient_raises():
    ev = CoupledEvaluator(sum_sq, 1, gradient=lambda x: np.array([np.inf]))
    with pytest.raises(EvaluationError):
        ev.gradient([1.0])


def test_dimension_mismatch_rejected():
    ev = CoupledEvaluator(sum_sq, 2)
    with pytest.raises(DimensionError):
        ev.value([1.0, 2.0, 3.0])


def test_bad_configuration_rejected():
    with pytest.raises(ConfigError):
        CoupledEvaluator(sum_sq, 0)
    with pytest.raises(ConfigError):
        CoupledEvaluator(sum_sq, 2, scheme="sideways")
    with pytest.raises(ConfigError):
        CoupledEvaluator(sum_sq, 2, eps=-1.0)


def test_results_identical_across_pool_sizes():
    x = np.array([-1.2, 1.0])
    outs = []
    for size in (1, 4):
        with WorkerPool(size) as pool:
            ev = CoupledEvaluator(rosen, 2, pool=pool)
            outs.append(ev.value_and_gradient(x))
    (f1, g1), (f2, g2) = outs
    assert f1 == f2
    assert g1.tobytes() == g2.tobytes()


def test_returned_gradient_is_a_copy():
    ev = CoupledEvaluator(sum_sq, 2, gradient=sum_sq_grad)
    g = ev.gradient([1.0, 2.0])
    g[0] = 99.0
    assert ev.gradient([1.0, 2.0]).tolist() == [2.0, 4.0]


class FloatSubclass(float):
    pass


# value kinds an objective may return, each as a function of a float
KINDS = [float, lambda v: int(v * 8), lambda v: v > 0.5, np.float32, np.array, Fraction,
         np.float64, FloatSubclass]


def _batch(values):
    """(points, objective) where the objective at point k returns values[k]."""
    return [[float(k)] for k in range(len(values))], lambda x: values[int(x[0])]


@given(hst.lists(hst.tuples(hst.sampled_from(range(len(KINDS))),
                            hst.floats(-1e3, 1e3)), min_size=1, max_size=9))
def test_evaluate_batch_returns_each_value_as_its_float(draws):
    values = [KINDS[kind](v) for kind, v in draws]
    points, objective = _batch(values)
    got = evaluate_batch(WorkerPool(1), objective, points)
    assert [type(v) for v in got] == [float] * len(values)
    assert np.array(got).tobytes() == np.array([float(v) for v in values]).tobytes()


@pytest.mark.parametrize("bad", [float("nan"), -np.inf, np.float32("inf"), None,
                                 np.array([1.0]), np.ones((1, 1)), 1 + 2j, np.array(1 + 2j),
                                 10 ** 400],
                         ids=repr)
@pytest.mark.parametrize("k", [0, 3, 6])
def test_evaluate_batch_raises_the_per_value_rule_at_the_first_bad_value(bad, k):
    values = [0.5, 2, True, np.float32(0.25), np.array(1.5), Fraction(1, 3), 7.0]
    values[k] = bad
    points, objective = _batch(values)
    with pytest.raises(Exception) as want:
        _finite_value(bad, np.array(points[k], dtype=np.float64))
    with WorkerPool(3) as pool, pytest.raises(type(want.value)) as got:
        evaluate_batch(pool, objective, points)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    if isinstance(want.value, EvaluationError):
        assert got.value.point.tolist() == [float(k)]


class MiscountingPool:
    """Runs every task, then returns `extra` results more (or, below 0, fewer)
    than there were tasks."""

    def __init__(self, extra):
        self.extra = extra

    def run_batch(self, tasks):
        results = [task() for task in tasks]
        return results + results[:self.extra] if self.extra > 0 else results[:self.extra]


def _solve(gradient):
    return lambda pool: optimize(sum_sq, [1.0, 2.0], gradient, pool=pool)


# entry -> how many tasks its first batch holds
ANSWER_ENTRIES = {
    "central-solve": (_solve(None), 5),
    "analytic-solve": (_solve(sum_sq_grad), 2),
    "evaluate_batch": (lambda pool: evaluate_batch(pool, sum_sq, [[0.0], [1.0], [2.0]]), 3),
    "parallel_value_and_gradient":
        (lambda pool: parallel_value_and_gradient(pool, sum_sq, sum_sq_grad, [1.0, 2.0]), 2),
}


@pytest.mark.parametrize("extra", [1, -1], ids=["one-too-many", "one-short"])
@pytest.mark.parametrize("entry", ANSWER_ENTRIES)
def test_a_pool_must_return_one_result_per_task(entry, extra):
    run, tasks = ANSWER_ENTRIES[entry]
    want = f"pool returned {tasks + extra} results for {tasks} tasks"
    with pytest.raises(RuntimeError, match=re.escape(want)):
        run(MiscountingPool(extra))


class GeneratorPool:
    """Hands the results back as a generator, in submission order."""

    def run_batch(self, tasks):
        return (task() for task in tasks)


@pytest.mark.parametrize("analytic", [False, True], ids=["central", "analytic"])
def test_a_pool_may_return_any_iterable(analytic, chained_rosenbrock):
    fn, gr = chained_rosenbrock

    def outcome(pool):
        r = optimize(fn, [-1.2, 1.0, -1.2], gr if analytic else None, pool=pool,
                     eps=1e-5, loginfo=True)
        return r.par.tobytes(), r.value, r.code, r.counts, r.log.to_csv()

    assert outcome(GeneratorPool()) == outcome(WorkerPool(1))
