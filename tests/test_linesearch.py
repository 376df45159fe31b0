"""Strong Wolfe search: acceptance, capping, backtracking, and failure."""

import numpy as np
import pytest

from paropt import CoupledEvaluator
from paropt.optimizers import LineSearchFailure, wolfe_line_search
from paropt.optimizers.linesearch import max_feasible_step


def sum_sq(x):
    return float(np.dot(x, x))


def sum_sq_grad(x):
    return 2.0 * np.asarray(x, dtype=np.float64)


def rosen(v):
    return float(100.0 * (v[1] - v[0] ** 2) ** 2 + (1.0 - v[0]) ** 2)


def rosen_grad(v):
    x, y = float(v[0]), float(v[1])
    return np.array([-400.0 * x * (y - x * x) - 2.0 * (1.0 - x),
                     200.0 * (y - x * x)])


def start(ev, par):
    par = np.asarray(par, dtype=np.float64)
    f0, g0 = ev.value_and_gradient(par)
    return par, f0, g0


def test_quadratic_accepts_exact_minimum():
    ev = CoupledEvaluator(sum_sq, 2, gradient=sum_sq_grad)
    x0, f0, g0 = start(ev, [1.0, 1.0])
    ls = wolfe_line_search(ev, x0, f0, g0, -g0)
    assert ls.step == 0.5
    assert ls.par.tolist() == [0.0, 0.0]
    assert ls.value == 0.0
    assert ls.trials == 2


def test_each_trial_costs_one_batch():
    ev = CoupledEvaluator(rosen, 2, gradient=rosen_grad)
    x0, f0, g0 = start(ev, [-1.2, 1.0])
    ls = wolfe_line_search(ev, x0, f0, g0, -g0,
                           initial_step=min(1.0, 1.0 / float(np.abs(g0).max())))
    assert ls.value < f0
    assert ev.counts().batches == 1 + ls.trials


def test_nondescent_direction_rejected():
    ev = CoupledEvaluator(sum_sq, 2, gradient=sum_sq_grad)
    x0, f0, g0 = start(ev, [1.0, 1.0])
    with pytest.raises(ValueError):
        wolfe_line_search(ev, x0, f0, g0, g0)


def test_nan_trial_backtracks():
    def obj(x):
        return float("nan") if x[0] < -0.5 else float(x[0]) ** 2

    ev = CoupledEvaluator(obj, 1, gradient=lambda x: np.array([2.0 * x[0]]))
    x0, f0, g0 = start(ev, [1.0])
    ls = wolfe_line_search(ev, x0, f0, g0, np.array([-2.0]))
    # the full step lands in the NaN region; the halved retry is the minimum
    assert ls.par[0] == 0.0
    assert ls.step == 0.5
    assert ls.trials == 2


def test_cap_point_lands_exactly_on_bound():
    def obj(x):
        return float((x[0] - 2.0) ** 2)

    def grad(x):
        return np.array([2.0 * (x[0] - 2.0)])

    upper = np.array([1.0])
    lower = np.array([-np.inf])
    ev = CoupledEvaluator(obj, 1, gradient=grad, lower=lower, upper=upper)
    x0, f0, g0 = start(ev, [0.0])
    ls = wolfe_line_search(ev, x0, f0, g0, -g0, lower, upper)
    assert ls.par[0] == 1.0  # binding coordinate snapped to the bound
    assert ls.step == pytest.approx(0.25)
    # the refinement probe beyond the cap re-reads the cached cap point
    assert ev.counts().batches == 2


def test_failure_carries_best_point():
    # gradient claims descent but the objective rises along d
    ev = CoupledEvaluator(lambda x: float(x[0]) ** 2, 1,
                          gradient=lambda x: np.array([-1.0]))
    x0, f0, g0 = start(ev, [1.0])
    with pytest.raises(LineSearchFailure) as err:
        wolfe_line_search(ev, x0, f0, g0, np.array([1.0]))
    exc = err.value
    assert exc.best is not None
    assert exc.best[1] >= f0  # nothing beat the starting value
    assert 1 <= exc.trials <= 20


def test_trial_budget_is_enforced():
    ev = CoupledEvaluator(lambda x: float(x[0]) ** 2, 1,
                          gradient=lambda x: np.array([-1.0]))
    x0, f0, g0 = start(ev, [1.0])
    with pytest.raises(LineSearchFailure, match="3 trials"):
        wolfe_line_search(ev, x0, f0, g0, np.array([1.0]), max_trials=3)


def test_max_feasible_step_unbounded():
    x = np.array([0.0, 0.0])
    alpha_max, cap = max_feasible_step(x, np.array([1.0, -1.0]),
                                       np.full(2, -np.inf), np.full(2, np.inf))
    assert alpha_max == np.inf
    assert cap is None


def test_max_feasible_step_binds_exactly():
    x = np.array([0.0, 0.0])
    lower = np.array([-1.0, -0.25])
    upper = np.array([1.0, 1.0])
    alpha_max, cap = max_feasible_step(x, np.array([1.0, -1.0]), lower, upper)
    assert alpha_max == 0.25
    assert cap[1] == -0.25  # the binding coordinate sits exactly on its bound
    assert cap[0] == 0.25


def test_first_wolfe_point_on_a_non_quadratic_ray_costs_one_trial():
    # phi(alpha) = (1 - alpha)^4: the first trial meets strong Wolfe, and the
    # two points fit no quadratic, so no secant refinement is spent on it
    ev = CoupledEvaluator(lambda x: float(x[0]) ** 4, 1,
                          gradient=lambda x: np.array([4.0 * float(x[0]) ** 3]))
    x0, f0, g0 = start(ev, [1.0])
    ls = wolfe_line_search(ev, x0, f0, g0, np.array([-1.0]), initial_step=0.5)
    assert ls.step == 0.5
    assert ls.trials == 1
    assert ev.counts().batches == 2


def test_quadratic_ray_refines_to_the_exact_minimum():
    # the first trial meets strong Wolfe halfway to the minimum; the secant
    # trial lands the minimum itself
    ev = CoupledEvaluator(sum_sq, 2, gradient=sum_sq_grad)
    x0, f0, g0 = start(ev, [1.0, 1.0])
    ls = wolfe_line_search(ev, x0, f0, g0, -g0, initial_step=0.25)
    assert ls.step == 0.5
    assert ls.par.tolist() == [0.0, 0.0]
    assert ls.trials == 2
