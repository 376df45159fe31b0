"""Coupled evaluation, single-entry caching, and call-count laws."""

import numpy as np
import pytest

from paropt import CoupledEvaluator, WorkerPool
from paropt.errors import ConfigError, DimensionError, EvaluationError
from paropt.evaluator import EvalCounts
from paropt.stencil import FORWARD


def sum_sq(x):
    return float(np.dot(x, x))


def sum_sq_grad(x):
    return 2.0 * np.asarray(x, dtype=np.float64)


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
    def rosen(v):
        return float(100.0 * (v[1] - v[0] ** 2) ** 2 + (1.0 - v[0]) ** 2)

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
