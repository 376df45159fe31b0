"""Problem registry contents and the data-driven likelihood."""

import time

import numpy as np
import pytest

from paropt import (ConfigError, DatasetError, EvaluationError, gen_normal_dataset,
                    get_problem, optimize, problem_names)
from paropt.problems import DATA_PROBLEMS, LOG_2PI, normal_negll_problem


def test_registry_names_in_order():
    assert problem_names() == ["quadratic", "rosenbrock", "normal_negll", "sleep"]


def test_unknown_problem_rejected():
    with pytest.raises(ConfigError):
        get_problem("banana")


def test_data_problem_needs_data():
    with pytest.raises(DatasetError):
        get_problem("normal_negll")


def test_quadratic_values():
    q = get_problem("quadratic")
    x = np.array([1.0, 2.0])
    assert q.objective(x) == 5.0
    assert q.gradient(x).tolist() == [2.0, 4.0]
    assert q.p is None  # any dimension


def test_rosenbrock_values():
    r = get_problem("rosenbrock")
    assert r.objective(np.array([1.0, 1.0])) == 0.0
    assert r.objective(r.par0) == pytest.approx(24.2)
    assert r.gradient(np.array([1.0, 1.0])).tolist() == [0.0, 0.0]
    with pytest.raises(ConfigError):
        r.check_dimension([1.0, 2.0, 3.0])


def test_negll_matches_direct_formula():
    data = np.array([1.0, 2.0, 4.0])
    prob = normal_negll_problem(data)
    mu, sigma = 2.0, 1.5
    resid = data - mu
    expect = (3.0 * np.log(sigma) + 1.5 * LOG_2PI
              + float(resid @ resid) / (2.0 * sigma * sigma))
    assert prob.objective([mu, sigma]) == pytest.approx(expect, rel=1e-15)


@pytest.mark.parametrize("method", ["lbfgsb", "bfgs", "cg"])
def test_negll_stencil_reaches_zero_sigma_without_bounds(method):
    # the first central stencil's minus point lands on sigma = 0 before any
    # line search can back off from it
    prob = normal_negll_problem(np.array([3.0, 4.0, 6.0]))
    with pytest.raises(EvaluationError):
        optimize(prob.objective, [4.0, 1e-3], method=method)


def test_negll_default_lower_bound_clamps_the_stencil():
    data = np.array([3.0, 4.0, 6.0])
    prob = normal_negll_problem(data)
    r = optimize(prob.objective, [4.0, 1e-3], lower=prob.lower)
    assert r.code == 0, r.message
    assert abs(r.par[0] - data.mean()) <= 1e-3


def test_negll_gradient_vanishes_at_the_estimate():
    data = np.array([0.0, 1.0, 2.0, 5.0])
    prob = normal_negll_problem(data)
    mu = float(data.mean())
    sigma = float(np.sqrt(((data - mu) ** 2).mean()))
    assert np.abs(prob.gradient([mu, sigma])).max() <= 1e-12


def test_negll_outside_domain():
    prob = normal_negll_problem([1.0, 2.0])
    assert prob.objective([0.0, 0.0]) == np.inf
    assert np.isnan(prob.gradient([0.0, -1.0])).all()


def test_negll_rejects_bad_data():
    with pytest.raises(DatasetError):
        normal_negll_problem([])
    with pytest.raises(DatasetError):
        normal_negll_problem([1.0, np.nan])


def test_negll_small_sample_estimate_recovered():
    data = np.array([3.0, 5.0, 7.0, 9.0])
    prob = normal_negll_problem(data)
    r = optimize(prob.objective, prob.par0, prob.gradient, lower=prob.lower)
    assert r.converged
    mu = float(data.mean())
    sigma = float(np.sqrt(((data - mu) ** 2).mean()))
    assert abs(r.par[0] - mu) <= 1e-6
    assert abs(r.par[1] - sigma) <= 1e-6


@pytest.mark.parametrize("par0", [[-2.0, 0.1], [0.0, 1e-3], [-2.0, 1e-2]])
def test_negll_cg_search_stays_short_of_a_non_finite_trial(par0):
    # the first steps overshoot into sigma <= 0, where the likelihood is
    # non-finite; the search must not extrapolate past such a trial again
    data = gen_normal_dataset(200, seed=1)
    prob = normal_negll_problem(data)
    r = optimize(prob.objective, par0, prob.gradient, method="cg")
    assert r.code == 0, r.message
    assert np.abs(r.par - [data.mean(), data.std()]).max() <= 1e-3


def test_negll_cg_stops_where_no_steepest_step_decreases():
    # at the estimate no representable step along -g lowers f before the
    # reltol test fires; like optim's cgmin, that is a converged solve
    data = gen_normal_dataset(200, seed=1)
    prob = normal_negll_problem(data)
    r = optimize(prob.objective, [6.0, 0.1], prob.gradient, method="cg")
    assert r.code == 0, r.message
    assert r.message == "no decrease along steepest descent before the step rounds to zero"
    assert np.abs(r.par - [data.mean(), data.std()]).max() <= 1e-6


def test_negll_default_shape():
    prob = get_problem("normal_negll", data=[1.0, 2.0, 3.0])
    assert prob.p == 2
    assert prob.lower.tolist() == [-np.inf, 1e-4]
    assert prob.par0.tolist() == [1.0, 1.0]
    assert "normal_negll" in DATA_PROBLEMS


def test_sleep_registry_entry_is_instant():
    s = get_problem("sleep")
    assert s.gradient is not None
    start = time.perf_counter()
    value = s.objective(np.array([0.1, 0.1]))
    assert time.perf_counter() - start < 0.05
    assert value == pytest.approx(0.02)


def test_problem_summaries_present():
    for name in problem_names():
        data = [1.0, 2.0] if name == "normal_negll" else None
        assert get_problem(name, data=data).summary
