"""Strong Wolfe search: acceptance, capping, backtracking, and failure."""

import math
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from paropt import CoupledEvaluator
from paropt.optimizers import LineSearchFailure, wolfe_line_search
from paropt.optimizers.linesearch import MAX_TRIALS, _interpolate, max_feasible_step

from objectives import rosen, rosen_grad, sum_sq, sum_sq_grad


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

    ev = CoupledEvaluator(obj, 1, gradient=grad, upper=[1.0])
    x0, f0, g0 = start(ev, [0.0])
    ls = wolfe_line_search(ev, x0, f0, g0, -g0)
    assert ls.par[0] == 1.0  # binding coordinate snapped to the bound
    assert ls.step == pytest.approx(0.25)
    # the refinement probe beyond the cap re-reads the cached cap point
    assert ev.counts().batches == 2


def test_search_takes_its_box_from_the_evaluator():
    # no box is passed to the search; a first trial at 4 would leave it
    ev = CoupledEvaluator(lambda x: float((x[0] - 2.0) ** 2), 1, upper=[0.5])
    x0, f0, g0 = start(ev, [0.0])
    ls = wolfe_line_search(ev, x0, f0, g0, -g0)
    assert ls.par[0] == 0.5


def test_failure_carries_the_trial_count():
    # gradient claims descent but the objective rises along d
    ev = CoupledEvaluator(lambda x: float(x[0]) ** 2, 1,
                          gradient=lambda x: np.array([-1.0]))
    x0, f0, g0 = start(ev, [1.0])
    with pytest.raises(LineSearchFailure) as err:
        wolfe_line_search(ev, x0, f0, g0, np.array([1.0]))
    exc = err.value
    assert 1 <= exc.trials <= 20
    assert not hasattr(exc, "best")  # no trial point leaves a failed search


def test_trial_budget_is_enforced():
    # every trial lowers the value, but too little for Armijo, so the
    # bracket shrinks without collapsing until the budget runs out
    ev = CoupledEvaluator(lambda x: -1e-5 * float(x[0]), 1,
                          gradient=lambda x: np.array([-1.0]))
    x0, f0, g0 = start(ev, [0.0])
    with pytest.raises(LineSearchFailure, match=f"{MAX_TRIALS} trials") as err:
        wolfe_line_search(ev, x0, f0, g0, np.array([1.0]))
    assert err.value.trials == MAX_TRIALS == 20


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


def test_zoom_trial_lands_on_the_minimizer_of_a_cubic_ray():
    # phi(alpha) = alpha^3 - 3 alpha, minimum at 1; the first trial at 2 fails
    # Armijo, and the cubic through both ends' values and slopes is phi itself
    ev = CoupledEvaluator(lambda x: float(x[0] ** 3 - 3.0 * x[0]), 1,
                          gradient=lambda x: np.array([3.0 * x[0] ** 2 - 3.0]))
    x0, f0, g0 = start(ev, [0.0])
    ls = wolfe_line_search(ev, x0, f0, g0, np.array([1.0]), initial_step=2.0)
    assert ls.trials == 2
    assert ls.step == pytest.approx(1.0, rel=1e-12)


def test_zoom_clamps_a_minimizer_near_the_low_end(counted):
    # the model's minimizer sits at 3% of the bracket [0, 1]; the trial goes
    # to 10% of it instead of bisecting
    obj = counted(lambda x: float((x[0] - 0.03) ** 2))
    ev = CoupledEvaluator(obj, 1, gradient=lambda x: np.array([2.0 * (x[0] - 0.03)]))
    x0, f0, g0 = start(ev, [0.0])
    wolfe_line_search(ev, x0, f0, g0, np.array([1.0]), initial_step=1.0)
    assert [float(c[0]) for c in obj.calls[:3]] == [0.0, 1.0, 0.1]


def test_zoom_stops_when_the_trial_rounds_onto_the_start(counted):
    # the objective rises along d although the gradient claims descent, so
    # the bracket shrinks toward 0 until x0 + alpha*d rounds to x0 = 1e4
    # (its spacing is 1.8e-12, before the bracket's width reaches 1e-14)
    obj = counted(lambda x: float(x[0]) ** 2)
    ev = CoupledEvaluator(obj, 1, gradient=lambda x: np.array([-1.0]))
    x0, f0, g0 = start(ev, [1e4])
    with pytest.raises(LineSearchFailure, match="rounds to zero") as err:
        wolfe_line_search(ev, x0, f0, g0, np.array([1.0]))
    assert err.value.rounded
    assert err.value.trials < 20
    assert [float(c[0]) for c in obj.calls].count(1e4) == 1  # x0 is never a trial


finite = st.floats(-1e3, 1e3, allow_nan=False)


@given(a_lo=finite, a_hi=finite, f_lo=finite, dphi_lo=finite,
       f_hi=st.none() | finite, dphi_hi=st.none() | finite)
def test_interpolate_stays_in_the_middle_of_the_bracket(a_lo, a_hi, f_lo, dphi_lo,
                                                        f_hi, dphi_hi):
    width = a_hi - a_lo
    a = _interpolate(a_lo, f_lo, dphi_lo, a_hi, f_hi, dphi_hi)
    if f_hi is None:
        assert a == a_lo + 0.5 * width
    else:
        ends = sorted((a_lo + 0.1 * width, a_lo + 0.9 * width))
        assert ends[0] <= a <= ends[1]


def test_zoom_on_a_quadratic_ray_leaves_out_the_high_slope():
    # difference-gradient slopes carry rounding error; on a quadratic ray the
    # zoom's quadratic model needs only the low one, and lands the minimum
    ev = CoupledEvaluator(sum_sq, 2)
    x0, f0, g0 = start(ev, [0.1, 0.1])
    ls = wolfe_line_search(ev, x0, f0, g0, -g0)
    assert ls.par.tolist() == [0.0, 0.0]
    assert ls.trials == 2


@given(wall=st.floats(1e-2, 1e3), minimum=st.floats(1e-2, 1e4),
       initial=st.floats(1e-3, 1e3))
@example(wall=50.0, minimum=1000.0, initial=1.0)  # once extrapolated past the wall
def test_no_trial_at_or_past_a_non_finite_one(wall, minimum, initial):
    # phi(alpha) = (alpha - minimum)^2 on the ray from 0 along +1, non-finite
    # from the wall on; a non-finite trial closes the bracket there
    steps = []

    def obj(x):
        steps.append(float(x[0]))
        return float((x[0] - minimum) ** 2) if x[0] < wall else math.nan

    ev = CoupledEvaluator(obj, 1, gradient=lambda x: np.array([2.0 * (x[0] - minimum)]))
    x0, f0, g0 = start(ev, [0.0])
    with suppress(LineSearchFailure):
        wolfe_line_search(ev, x0, f0, g0, np.array([1.0]), initial_step=initial)
    shortest = math.inf
    for step in steps[1:]:
        assert step < shortest
        if step >= wall:
            shortest = step


def test_nan_direction_rejected_before_any_trial():
    ev = CoupledEvaluator(sum_sq, 2, gradient=sum_sq_grad)
    x0, f0, g0 = start(ev, [1.0, 1.0])
    with pytest.raises(ValueError, match="descent direction") as info:
        wolfe_line_search(ev, x0, f0, g0, np.array([np.nan, -1.0]))
    assert type(info.value) is ValueError
    assert ev.counts().batches == 1


@pytest.mark.parametrize("initial", [0.0, -1.0, math.inf, math.nan])
def test_initial_step_not_finite_and_positive_rejected_before_any_trial(initial):
    ev = CoupledEvaluator(sum_sq, 2, gradient=sum_sq_grad)
    x0, f0, g0 = start(ev, [1.0, 1.0])
    with pytest.raises(ValueError, match="initial_step"):
        wolfe_line_search(ev, x0, f0, g0, -g0, initial_step=initial)
    assert ev.counts().batches == 1


def test_direction_out_of_the_box_at_a_face_rejected():
    # x0 sits on the lower face of coordinate 0 and d leaves the box there
    ev = CoupledEvaluator(sum_sq, 2, gradient=sum_sq_grad, lower=[1.0, -np.inf])
    x0, f0, g0 = start(ev, [1.0, 0.5])
    with pytest.raises(ValueError, match="no feasible movement"):
        wolfe_line_search(ev, x0, f0, g0, np.array([-1.0, 0.0]))
    assert ev.counts().batches == 1
