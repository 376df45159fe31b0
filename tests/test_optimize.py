"""End-to-end optimization behavior for the three methods."""

import numpy as np
import pytest

from paropt import ConfigError, EvaluationError, OptimOptions, optimize
from paropt.optimizers import LineSearchFailure, driver, wolfe_line_search


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


def test_quadratic_reaches_origin():
    r = optimize(sum_sq, [1.0, 1.0], sum_sq_grad)
    assert r.converged
    assert np.abs(r.par).max() <= 1e-6
    assert r.value <= 1e-10


def test_quadratic_without_gradient():
    r = optimize(sum_sq, [1.0, 1.0])
    assert r.converged
    assert np.abs(r.par).max() <= 1e-6
    assert r.value <= 1e-10


def test_pgtol_stops_on_projected_gradient():
    r = optimize(sum_sq, [1.0, 1.0], sum_sq_grad, pgtol=1e-8, factr=0.0)
    assert r.converged
    assert "projected gradient" in r.message


@pytest.mark.parametrize("method", ["lbfgsb", "bfgs", "cg"])
def test_rosenbrock_with_analytic_gradient(method):
    r = optimize(rosen, [-1.2, 1.0], rosen_grad, method=method)
    assert r.converged
    assert np.abs(r.par - 1.0).max() <= 1e-5
    assert r.value < 1e-10


def test_rosenbrock_with_central_differences():
    r = optimize(rosen, [-1.2, 1.0])
    assert r.converged
    assert np.abs(r.par - 1.0).max() <= 5e-3
    assert r.value < 1e-6


@pytest.mark.parametrize("gradient", [None, sum_sq_grad],
                         ids=["differences", "analytic"])
def test_active_upper_bound_is_exact(gradient):
    def shifted(x):
        return float((x[0] - 2.0) ** 2)

    def shifted_grad(x):
        return np.array([2.0 * (x[0] - 2.0)])

    gr = shifted_grad if gradient is not None else None
    r = optimize(shifted, [0.0], gr, lower=[-1.0], upper=[1.0])
    assert r.converged
    assert r.par[0] == 1.0
    assert "projected gradient" in r.message


def test_iterates_decrease_and_stay_feasible():
    r = optimize(rosen, [-1.2, 1.0], rosen_grad,
                 lower=[-2.0, -2.0], upper=[2.0, 2.0], loginfo=True)
    assert r.converged
    fns = [row.fn for row in r.log.rows]
    assert all(b < a for a, b in zip(fns, fns[1:]))
    for row in r.log.rows:
        assert np.all(row.par >= -2.0) and np.all(row.par <= 2.0)
    assert r.log.rows[-1].fn == r.value
    assert r.log.rows[-1].par.tolist() == r.par.tolist()


def test_difference_stencils_never_leave_the_box(counted):
    obj = counted(lambda x: float((x[0] - 2.0) ** 2))
    r = optimize(obj, [0.0], lower=[-1.0], upper=[1.0])
    assert r.par[0] == 1.0
    for pt in obj.calls:
        assert -1.0 <= pt[0] <= 1.0


DIAG_CASES = [
    (1.0, 10.0),
    (2.0, 2.0),
    (1.0, 3.0, 9.0),
    (1.0, 5.0, 25.0, 125.0),
    (0.5, 1.0, 2.0),
    (1.0, 2.0, 4.0, 8.0, 16.0),
]


def quadratic_termination_iters(A, p):
    def obj(v):
        return 0.5 * float(v @ A @ v)

    def grad(v):
        return A @ np.asarray(v, dtype=np.float64)

    r = optimize(obj, np.ones(p), grad, method="lbfgsb", memory_m=max(5, p),
                 pgtol=1e-8, factr=0.0, maxit=50, loginfo=True)
    assert r.converged
    assert np.abs(grad(r.par)).max() <= 1e-8
    return len(r.log) - 1


@pytest.mark.parametrize("diag", DIAG_CASES, ids=[str(d) for d in DIAG_CASES])
def test_quadratic_terminates_quickly_diagonal(diag):
    p = len(diag)
    assert quadratic_termination_iters(np.diag(diag), p) <= p + 2


@pytest.mark.parametrize("seed", range(12))
def test_quadratic_terminates_quickly_dense(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    p = 2 + seed % 4
    M = rng.standard_normal((p, p))
    A = M @ M.T + p * np.eye(p)
    assert quadratic_termination_iters(A, p) <= p + 2


def test_cg_on_ill_scaled_quadratic():
    def obj(v):
        return float(v[0] ** 2 + 10.0 * v[1] ** 2)

    def grad(v):
        return np.array([2.0 * v[0], 20.0 * v[1]])

    r = optimize(obj, [1.0, 1.0], grad, method="cg", loginfo=True)
    assert r.converged
    assert r.value <= 1e-8
    fns = [row.fn for row in r.log.rows]
    assert all(b <= a for a, b in zip(fns, fns[1:]))


def test_iteration_limit_returns_code_1():
    r = optimize(rosen, [-1.2, 1.0], rosen_grad, maxit=2)
    assert r.code == 1
    assert "limit" in r.message


def test_fixed_coordinate_with_differences_is_degenerate():
    r = optimize(sum_sq, [0.5, 0.5], lower=[0.0, 0.5], upper=[1.0, 0.5], maxit=5)
    assert r.code == 3
    assert r.value == 0.5
    assert r.counts.fn_calls == 1
    assert r.counts.batches == 1


def test_fixed_coordinate_with_analytic_gradient_still_optimizes():
    r = optimize(sum_sq, [0.5, 0.5], sum_sq_grad,
                 lower=[0.0, 0.5], upper=[1.0, 0.5])
    assert r.converged
    assert r.par.tolist() == [0.0, 0.5]


def test_misleading_gradient_fails_the_line_search():
    r = optimize(lambda x: float(x[0]) ** 2, [1.0],
                 lambda x: np.array([-1.0]), method="bfgs", maxit=5)
    assert r.code == 2
    assert "line search failed" in r.message
    assert r.par[0] == 1.0  # no trial beat the start, so it is kept


def test_nonfinite_start_raises():
    with pytest.raises(EvaluationError):
        optimize(lambda x: float("nan"), [1.0])


def test_bounds_only_for_the_constrained_method():
    with pytest.raises(ConfigError):
        optimize(sum_sq, [1.0], sum_sq_grad, method="bfgs", lower=[0.0])
    with pytest.raises(ConfigError):
        optimize(sum_sq, [1.0], sum_sq_grad, method="cg", upper=[2.0])


def test_options_and_overrides_are_exclusive():
    with pytest.raises(ConfigError):
        optimize(sum_sq, [1.0], options=OptimOptions(), maxit=5)


@pytest.mark.parametrize("bad", [
    dict(method="newton"),
    dict(maxit=0),
    dict(maxit="5"),
    dict(maxit=2.5),
    dict(workers=0),
    dict(memory_m=0),
    dict(factr=-1.0),
    dict(pgtol=-0.5),
    dict(eps=0.0),
])
def test_invalid_options_rejected(bad):
    with pytest.raises(ConfigError):
        optimize(sum_sq, [1.0, 1.0], sum_sq_grad, **bad)


def test_inverted_bounds_rejected():
    with pytest.raises(ConfigError):
        optimize(sum_sq, [0.5], lower=[1.0], upper=[0.0])


def test_start_outside_box_is_projected():
    r = optimize(sum_sq, [5.0], sum_sq_grad, lower=[-1.0], upper=[2.0],
                 loginfo=True)
    assert r.log.rows[0].par[0] == 2.0
    assert r.converged
    assert abs(r.par[0]) <= 1e-6


def test_value_is_reported_from_the_final_record():
    r = optimize(rosen, [-1.2, 1.0], rosen_grad, loginfo=True)
    assert r.value == r.log.rows[-1].fn
    assert r.value == rosen(r.par)


@pytest.mark.parametrize("gradient", [None, sum_sq_grad],
                         ids=["differences", "analytic"])
def test_worker_count_does_not_change_results(gradient):
    par0 = np.array([0.7, -0.3, 0.9])
    runs = [optimize(sum_sq, par0, gradient, workers=w) for w in (1, 8)]
    a, b = runs
    assert a.par.tobytes() == b.par.tobytes()
    assert a.value == b.value
    assert a.counts == b.counts
    assert a.code == b.code


def test_rosenbrock_10d_batch_budget(chained_rosenbrock):
    # most line searches accept their first trial, so batches stay close to
    # iterations (76 here); an extra trial on every search would be ~150
    fn, gr = chained_rosenbrock
    x0 = np.ones(10)
    x0[0::2] = -1.2
    r = optimize(fn, x0, gr)
    assert r.converged
    assert np.abs(r.par - 1.0).max() <= 1e-4
    assert r.counts.batches <= 100


def test_failed_line_search_refreshes_the_lbfgs_memory(monkeypatch):
    # with the default difference step the quasi-Newton direction from this
    # start is too poor for the line search near the minimum; L-BFGS-B drops
    # its memory and succeeds along projected steepest descent instead
    failures = []

    def spy(*args, **kwargs):
        try:
            return wolfe_line_search(*args, **kwargs)
        except LineSearchFailure:
            failures.append(1)
            raise

    monkeypatch.setattr(driver, "wolfe_line_search", spy)
    r = optimize(rosen, [-1.2, 0.92])
    assert failures
    assert r.converged
    assert np.abs(r.par - 1.0).max() <= 5e-3


def test_failed_line_search_without_memory_is_code_2():
    # steepest descent is already the fallback, so the failure stands
    r = optimize(lambda x: float(x[0]) ** 2, [1.0],
                 lambda x: np.array([-1.0]), maxit=5)
    assert r.code == 2
    assert "line search failed" in r.message


@pytest.mark.parametrize("upper", [np.full(10, 0.8), np.r_[0.5, np.full(9, np.inf)]],
                         ids=["x<=0.8", "x[0]<=0.5"])
def test_quasi_newton_direction_out_of_a_bound_face(upper, chained_rosenbrock,
                                                    rosenbrock_starts):
    # on a bound face the quasi-Newton direction can point out of the box in
    # a coordinate the active mask leaves free; that coordinate must be pinned
    # or no step is feasible ("no feasible movement along the search direction")
    fn, gr = chained_rosenbrock
    for x0 in rosenbrock_starts(10, 30, seed=7):
        r = optimize(fn, x0, gr, lower=np.full(10, -np.inf), upper=upper)
        assert r.code == 0, r.message
        assert np.all(r.par <= upper)
