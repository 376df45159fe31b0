"""Agreement checks between analytic and difference gradients."""

import numpy as np
import pytest

from paropt import agreement_tolerance, check_gradient, gen_normal_dataset
from paropt.errors import ConfigError, EvaluationError
from paropt.gradcheck import sample_feasible_points
from paropt.problems import normal_negll_problem

from objectives import sum_sq, sum_sq_grad


def test_tolerance_floor_and_relative_scale():
    assert agreement_tolerance(np.array([0.0, 0.0])) == 1e-6
    assert agreement_tolerance(np.array([100.0, -5.0])) == pytest.approx(1e-2)


def test_quadratic_gradient_passes():
    report = check_gradient(sum_sq, sum_sq_grad, [1.0, 1.0])
    assert report.passed
    assert len(report.rows) == 10


def test_wrong_gradient_fails():
    report = check_gradient(sum_sq, lambda x: sum_sq_grad(x) + 0.5, [1.0, 1.0])
    assert not report.passed
    assert report.worst.max_abs_err >= 0.4


@pytest.mark.parametrize("gradient", [lambda x: np.array([1.0]), lambda x: 1.0],
                         ids=["length-1", "scalar"])
def test_gradient_of_the_wrong_shape_is_refused(gradient):
    # broadcasting would otherwise pass this against the gradient [1, 1, 1]
    with pytest.raises(EvaluationError, match=r"expected \(3,\)"):
        check_gradient(lambda x: float(np.sum(x)), gradient, [1.0, 2.0, 3.0])


def test_non_finite_gradient_entry_fails_its_row():
    report = check_gradient(sum_sq, lambda x: np.array([np.nan, 2.0 * x[1]]), [1.0, 1.0],
                            points=2)
    assert not any(row.ok for row in report.rows)


def test_sampled_points_respect_bounds():
    pts = sample_feasible_points([0.5], 50, 3, lower=[0.0], upper=[1.0], spread=5.0)
    assert len(pts) == 50
    for pt in pts:
        assert 0.01 <= pt[0] <= 0.99  # pushed inside by the margin


def test_sampling_is_seeded():
    a = sample_feasible_points([0.0, 0.0], 5, 7)
    b = sample_feasible_points([0.0, 0.0], 5, 7)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_missing_gradient_rejected():
    with pytest.raises(ConfigError):
        check_gradient(sum_sq, None, [1.0])


def test_likelihood_gradient_agrees():
    prob = normal_negll_problem(gen_normal_dataset(100, seed=5))
    report = check_gradient(prob.objective, prob.gradient, prob.par0,
                            lower=prob.lower, upper=prob.upper, spread=0.5)
    assert report.passed


def test_box_narrower_than_two_margins_keeps_points_two_sided():
    report = check_gradient(sum_sq, sum_sq_grad, [0.5], lower=[0.5], upper=[0.51],
                            points=3)
    assert report.passed
    assert all(0.5 < row.point[0] < 0.51 for row in report.rows)


def test_fixed_coordinate_is_refused_by_name():
    with pytest.raises(ConfigError, match="coordinate 0"):
        check_gradient(sum_sq, sum_sq_grad, [0.0], lower=[0.0], upper=[0.0])
