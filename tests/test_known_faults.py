"""Open faults, each pinned as a strict expected failure: the change that
mends one makes its test pass, and strict=True then asks it to drop the
marker."""

import numpy as np
import pytest

from paropt import gen_normal_dataset, get_problem, optimize


@pytest.mark.xfail(strict=True, reason="a search along d = [0, 1.2e-12], a slope "
                                       "below f's rounding, accepts a step with no decrease")
def test_every_accepted_step_in_a_box_lowers_the_value():
    rosenbrock = get_problem("rosenbrock").objective
    r = optimize(rosenbrock, [-1.2, 1.0], eps=1e-5, upper=[0.8, 0.8], loginfo=True)
    values = [row.fn for row in r.log.rows]
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.xfail(strict=True, reason="the forward quotient's bias points uphill, and "
                                       "the search fails after 20 halvings")
def test_forward_differences_started_at_the_minimum_converge():
    r = optimize(lambda x: float(x @ x), [0.0, 0.0], scheme="forward")
    assert r.code == 0


@pytest.mark.xfail(strict=True, reason="bfgs's first update, scaled by s.y / y.y where "
                                       "sigma is tiny, ends with code 0 at gradient [-28.4, 7.09]")
def test_bfgs_on_the_normal_likelihood_ends_at_the_estimate():
    data = gen_normal_dataset(200, seed=1)
    spec = get_problem("normal_negll", data=data)
    r = optimize(spec.objective, [4.0, 1e-3], spec.gradient, method="bfgs")
    # the closed-form maximum-likelihood estimate
    assert np.abs(r.par - [data.mean(), data.std()]).max() < 1e-2
