"""End-to-end optimization behavior for the three methods."""

import collections
import concurrent.futures
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from paropt import (ConfigError, CoupledEvaluator, EvaluationError, IterationLog,
                    OptimOptions, WorkerPool, build_stencil, errors, optimize, stencil)
from paropt.errors import NonFiniteError
from paropt.optimizers import (LineSearchFailure, cg_direction, driver, linesearch,
                               wolfe_line_search)

from objectives import rosen, rosen_grad, sum_sq, sum_sq_grad


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


GRADIENT_KINDS = {"analytic": dict(gradient=sum_sq_grad), "central": {},
                  "forward": dict(scheme="forward")}


@pytest.mark.parametrize("kind", GRADIENT_KINDS.values(), ids=GRADIENT_KINDS.keys())
def test_fixed_coordinate_is_held(kind):
    r = optimize(sum_sq, [0.5, 0.5], lower=[0.0, 0.5], upper=[1.0, 0.5], **kind)
    assert r.converged
    assert r.par.tolist() == [0.0, 0.5]


@st.composite
def held_boxes(draw):
    """(start, shift, fixed): a start, the minimizer of a shifted quadratic,
    and the coordinates a box fixes at that minimizer."""
    dim = draw(st.integers(1, 4))
    vectors = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim).map(np.array)
    fixed = draw(st.lists(st.booleans(), min_size=dim, max_size=dim).filter(any))
    return draw(vectors), draw(vectors), np.array(fixed)


def solve_shifted_quadratic(start, shift, kind, **options):
    gradient = (lambda x: 2.0 * (x - shift)) if kind == "analytic" else None
    return optimize(lambda x: float(np.dot(x - shift, x - shift)), start, gradient,
                    scheme="forward" if kind == "forward" else "central",
                    loginfo=True, **options)


@given(box=held_boxes(), kind=st.sampled_from(sorted(GRADIENT_KINDS)))
def test_fixed_coordinates_are_held_bitwise_on_1_and_3_workers(box, kind):
    start, shift, fixed = box
    with WorkerPool(1) as one, WorkerPool(3) as three:
        a, b = [solve_shifted_quadratic(start, shift, kind, pool=pool,
                                        lower=np.where(fixed, shift, -np.inf),
                                        upper=np.where(fixed, shift, np.inf))
                for pool in (one, three)]
    for par in [a.par] + [row.par for row in a.log.rows]:
        assert par[fixed].tobytes() == shift[fixed].tobytes()
    assert a.par.tobytes() == b.par.tobytes()
    assert (a.value, a.code, a.message, a.counts) == (b.value, b.code, b.message, b.counts)
    assert a.log.to_csv() == b.log.to_csv()
    if fixed.all():
        assert (a.code, a.counts.batches) == (0, 1)
        return
    # a held term adds exactly 0.0, so the run is the run on the free
    # coordinates alone, however that one ends
    free = solve_shifted_quadratic(start[~fixed], shift[~fixed], kind)
    assert a.par[~fixed].tobytes() == free.par.tobytes()
    assert (a.value, a.code, a.message, a.counts) == (free.value, free.code, free.message,
                                                      free.counts)


@st.composite
def drawn_solves(draw, kinds=GRADIENT_KINDS):
    """(method, kind, start, eps, lower, upper, size): a solve with one of
    `kinds` of gradient and an optional box (L-BFGS-B only; None when
    absent), whose sides may be open or coincide, on a pool of `size` slots."""
    dim = draw(st.integers(1, 4))
    start = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)))
    lower = upper = None
    if draw(st.booleans()):
        lower, upper = np.full(dim, -np.inf), np.full(dim, np.inf)
        for i in range(dim):
            lo, width = draw(st.floats(-2.0, 1.0)), draw(st.floats(0.0, 2.0))
            side = draw(st.sampled_from(["lower", "upper", "both"]))
            lower[i] = lo if side != "upper" else -np.inf
            upper[i] = lo + width if side != "lower" else np.inf
        method = "lbfgsb"
    else:
        method = draw(st.sampled_from(["lbfgsb", "bfgs", "cg"]))
    return (method, draw(st.sampled_from(sorted(kinds))), start,
            draw(st.floats(1e-6, 1e-2)), lower, upper, draw(st.integers(1, 4)))


def quartic(x):
    return float(np.dot(x - 0.5, x - 0.5) + 0.1 * np.sum(x ** 4))


def quartic_grad(x):
    return 2.0 * (x - 0.5) + 0.4 * x ** 3


@settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=drawn_solves())
def test_counts_follow_the_count_laws(case, counted):
    method, kind, start, eps, lower, upper, size = case
    p = start.size
    runs = []
    for slots in sorted({1, 3, size}):
        fn, gr = counted(quartic), counted(quartic_grad)
        requests = []

        def request(ev, par, original=CoupledEvaluator.value_and_gradient):
            requests.append(np.array(par, dtype=np.float64))
            return original(ev, par)

        with pytest.MonkeyPatch.context() as mp, WorkerPool(slots) as pool:
            mp.setattr(CoupledEvaluator, "value_and_gradient", request)
            r = optimize(fn, start, gr if kind == "analytic" else None, pool=pool,
                         scheme="forward" if kind == "forward" else "central", eps=eps,
                         lower=lower, upper=upper, method=method)
        c = r.counts
        assert (c.fn_calls, c.gr_calls) == (len(fn.calls), len(gr.calls))
        # the evaluator's cache holds one point, so a batch runs on each change
        misses = [x for i, x in enumerate(requests)
                  if i == 0 or x.tobytes() != requests[i - 1].tobytes()]
        assert c.batches == len(misses)
        if kind == "analytic":
            assert c.fn_calls == c.gr_calls == c.batches
        else:
            assert c.gr_calls == 0
            if lower is None:
                assert c.fn_calls == (1 + (2 if kind == "central" else 1) * p) * c.batches
            h, box = stencil.validate_eps(eps, p), stencil.validate_bounds(lower, upper, p)
            assert c.fn_calls == sum(len(build_stencil(x, h, kind, *box).points)
                                     for x in misses)
        runs.append(c)
    assert all(c == runs[0] for c in runs)


def test_misleading_gradient_fails_the_line_search():
    r = optimize(lambda x: float(x[0]) ** 2, [1.0],
                 lambda x: np.array([-1.0]), method="bfgs", maxit=5)
    assert r.code == 2
    assert "line search failed" in r.message
    assert r.par[0] == 1.0  # a failed search leaves the start in place


@pytest.mark.parametrize("method", ["lbfgsb", "bfgs", "cg"])
def test_failed_search_ends_at_the_last_accepted_iterate(method):
    # every trial lowers the value, but too little for Armijo: the run ends
    # where it started, and the log holds only the start
    r = optimize(lambda x: -1e-5 * float(x[0]), [0.0], lambda x: np.array([-1.0]),
                 method=method, loginfo=True)
    assert (r.code, r.counts.batches) == (2, 21)
    assert r.message == "line search failed: no acceptable step within 20 trials"
    assert r.par.tolist() == [0.0]
    assert r.value == 0.0
    assert [row.par.tolist() for row in r.log.rows] == [[0.0]]


def test_nonfinite_start_raises():
    with pytest.raises(EvaluationError):
        optimize(lambda x: float("nan"), [1.0])


@pytest.mark.parametrize("method", ["lbfgsb", "bfgs", "cg"])
def test_underflowing_steepest_slope_is_converged(method):
    # the gradient is not zero, but d.g = -g.g underflows to 0.0, so no
    # representable step can lower the value, which is already 0.0
    s = np.array([0.0, 5.9e-307])
    r = optimize(lambda x: float(np.dot(x - s, x - s)), [0.0, 0.0],
                 lambda x: 2.0 * (x - s), method=method)
    assert (r.code, r.counts.batches) == (0, 1)
    assert r.message == "the steepest-descent slope underflows to zero"
    assert (r.par.tolist(), r.value) == ([0.0, 0.0], 0.0)


def test_wrong_gradient_shape_at_a_trial_raises():
    # the start's gradient has the right shape, the first trial's does not;
    # a search must not take that for a non-finite value and go on
    calls = []

    def gradient(x):
        calls.append(x)
        return np.zeros(3) if len(calls) == 2 else 2.0 * x

    with pytest.raises(EvaluationError, match=r"shape \(3,\), expected \(2,\)"):
        optimize(sum_sq, [1.0, 2.0], gradient)
    assert len(calls) == 2


def solve_quartic(case, objective=quartic, gradient=quartic_grad, **options):
    method, kind, start, eps, lower, upper, size = case
    with WorkerPool(size) as pool:
        return optimize(objective, start, gradient if kind == "analytic" else None,
                        pool=pool, scheme="forward" if kind == "forward" else "central",
                        eps=eps, lower=lower, upper=upper, method=method, **options)


@settings(max_examples=10)
@given(case=drawn_solves())
def test_log_csv_round_trips_bitwise(case):
    r = solve_quartic(case, loginfo=True)
    text = r.log.to_csv()
    back = IterationLog.from_csv(text)
    assert back == r.log and back.to_csv() == text
    assert len(back) == len(r.log)
    for row, parsed in zip(r.log.rows, back.rows):
        assert row.iter == parsed.iter
        assert row.par.tobytes() == parsed.par.tobytes()
        assert np.float64(row.fn).tobytes() == np.float64(parsed.fn).tobytes()
        assert row.gr.tobytes() == parsed.gr.tobytes()
    assert r.log.rows[-1].par.tobytes() == r.par.tobytes()


def batch_centers(case):
    """The point of every batch of the fault-free solve, in order."""
    centers = []

    def request(ev, par, original=CoupledEvaluator.value_and_gradient):
        x = np.array(par, dtype=np.float64)
        if not centers or x.tobytes() != centers[-1].tobytes():
            centers.append(x)
        return original(ev, par)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CoupledEvaluator, "value_and_gradient", request)
        solve_quartic(case)
    return centers


@pytest.mark.parametrize("where", ["start", "trial"])
@pytest.mark.parametrize("fault", ["value", "gradient", "shape", "value-shape"])
@settings(max_examples=5)
@given(data=st.data())
def test_each_evaluation_fault_has_one_outcome(fault, where, data):
    # the objective returns NaN or a 1-element array, or the gradient NaNs
    # or one entry too many, at the point of the start's batch or of a later
    # one (a trial); a difference gradient sees values only.  At the start
    # every fault raises; at a trial a non-finite value or gradient closes
    # the search's bracket and the run goes on, while a wrong shape still
    # raises.
    value_fault = fault in ("value", "value-shape")
    case = data.draw(drawn_solves(GRADIENT_KINDS if value_fault else ["analytic"]))
    centers = batch_centers(case)
    if where == "trial":
        assume(len(centers) > 1)
        bad = centers[min(data.draw(st.integers(1, 6)), len(centers) - 1)].tobytes()
        assume(bad != centers[0].tobytes())
    else:
        bad = centers[0].tobytes()

    def objective(x):
        if not value_fault or x.tobytes() != bad:
            return quartic(x)
        return math.nan if fault == "value" else np.array([quartic(x)])

    def gradient(x):
        if value_fault or x.tobytes() != bad:
            return quartic_grad(x)
        return np.full(x.size + (fault == "shape"), math.nan)

    if fault in ("shape", "value-shape"):
        with pytest.raises(EvaluationError, match="shape") as err:
            solve_quartic(case, objective, gradient)
        assert not isinstance(err.value, NonFiniteError)
    elif where == "start":
        with pytest.raises(NonFiniteError):
            solve_quartic(case, objective, gradient)
    else:
        r = solve_quartic(case, objective, gradient, loginfo=True)
        assert math.isfinite(r.value)
        assert all(row.par.tobytes() != bad for row in r.log.rows)


def test_bounds_only_for_the_constrained_method():
    with pytest.raises(ConfigError):
        optimize(sum_sq, [1.0], sum_sq_grad, method="bfgs", lower=[0.0])
    with pytest.raises(ConfigError):
        optimize(sum_sq, [1.0], sum_sq_grad, method="cg", upper=[2.0])


def test_settings_are_keywords_only():
    # an OptimOptions bundle is not a setting; its fields are
    with pytest.raises(TypeError, match="options"):
        optimize(sum_sq, [1.0], options=OptimOptions())


def test_pool_size_is_not_a_setting():
    # a solve runs where its pool= runs it, so there is no workers= to size one
    with pytest.raises(TypeError, match="workers"):
        optimize(sum_sq, [1.0], workers=2)


@pytest.mark.parametrize("bad", [
    dict(method="newton"),
    dict(maxit=0),
    dict(maxit="5"),
    dict(maxit=2.5),
    dict(memory_m=0),
    dict(factr=-1.0),
    dict(pgtol=-0.5),
    dict(eps=0.0),
    dict(scheme="bogus"),
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
    with WorkerPool(1) as one, WorkerPool(8) as eight:
        a, b = [optimize(sum_sq, par0, gradient, pool=pool) for pool in (one, eight)]
    assert a.par.tobytes() == b.par.tobytes()
    assert a.value == b.value
    assert a.counts == b.counts
    assert a.code == b.code


def test_rosenbrock_10d_batch_budget(chained_rosenbrock):
    # most line searches accept their first trial, so batches stay close to
    # iterations (71 here); an extra trial on every search would be ~150
    fn, gr = chained_rosenbrock
    x0 = np.ones(10)
    x0[0::2] = -1.2
    r = optimize(fn, x0, gr)
    assert r.converged
    assert np.abs(r.par - 1.0).max() <= 1e-4
    assert r.counts.batches <= 100


@pytest.mark.parametrize("method, failing", [("lbfgsb", 3), ("bfgs", 3), ("cg", 2)],
                         ids=["lbfgsb", "bfgs", "cg"])
def test_failed_line_search_refreshes_the_memory(monkeypatch, method, failing):
    # the failing search runs on curvature memory (L-BFGS pairs, the BFGS
    # inverse Hessian, CG's previous direction; CG restarts on its third
    # search in 2-D); when it fails, the method drops the memory and retries
    # from the same point along steepest descent
    calls = []

    def spy(ev, par, f, g, d, *args, **kwargs):
        calls.append((par, g, d))
        if len(calls) == failing:
            raise LineSearchFailure("injected failure")
        return wolfe_line_search(ev, par, f, g, d, *args, **kwargs)

    monkeypatch.setattr(driver, "wolfe_line_search", spy)
    r = optimize(rosen, [-1.2, 0.92], method=method, maxit=1000)
    assert "injected" not in r.message
    assert r.converged
    assert np.abs(r.par - 1.0).max() <= 5e-3
    (par, g, d), (retry_par, retry_g, retry_d) = calls[failing - 1], calls[failing]
    assert not np.array_equal(d, -g)
    assert retry_par.tobytes() == par.tobytes()
    assert np.array_equal(retry_d, -retry_g)


def test_cg_never_retries_the_search_that_just_failed(monkeypatch, chained_rosenbrock,
                                                      rosenbrock_starts):
    # from this start a Fletcher-Reeves direction is not downhill, and the
    # steepest-descent search the driver restarts with fails; a retry would
    # run the same search again
    fn, _ = chained_rosenbrock
    calls = []

    def spy(ev, par, f, g, d, *args, **kwargs):
        calls.append((par.tobytes(), d.tobytes(), kwargs["initial_step"]))
        return wolfe_line_search(ev, par, f, g, d, *args, **kwargs)

    monkeypatch.setattr(driver, "wolfe_line_search", spy)
    r = optimize(fn, rosenbrock_starts(2, 4, seed=2)[3], method="cg", maxit=1000)
    assert r.code == 0, r.message
    assert all(a != b for a, b in zip(calls, calls[1:]))


def test_cg_restarts_its_cycle_along_steepest_descent_when_not_downhill(
        monkeypatch, chained_rosenbrock, rosenbrock_starts):
    # the driver spends no evaluation on an uphill Fletcher-Reeves direction:
    # it drops the previous direction and searches along -g from the same point
    fn, _ = chained_rosenbrock
    events = []

    def direction_spy(g, prev_g, prev_d):
        # whether the Fletcher-Reeves direction from this state is uphill
        uphill = prev_d is not None and float(np.dot(
            -g + float(np.dot(g, g)) / float(np.dot(prev_g, prev_g)) * prev_d, g)) >= 0.0
        events.append(("direction", prev_d is None, uphill))
        return cg_direction(g, prev_g, prev_d)

    def search_spy(ev, par, f, g, d, *args, **kwargs):
        events.append(("search", par.tobytes(), np.array_equal(d, -g)))
        ls = wolfe_line_search(ev, par, f, g, d, *args, **kwargs)
        events.append(("accepted", ls.par.tobytes()))
        return ls

    monkeypatch.setattr(driver, "cg_direction", direction_spy)
    monkeypatch.setattr(driver, "wolfe_line_search", search_spy)
    # the start of the test above, where one Fletcher-Reeves direction is uphill
    r = optimize(fn, rosenbrock_starts(2, 4, seed=2)[3], method="cg", maxit=1000)
    assert r.code == 0, r.message
    uphill = [i for i, e in enumerate(events) if e == ("direction", False, True)]
    assert uphill
    for i in uphill:
        point = events[i - 1][1]
        assert events[i + 1][:2] == ("direction", True)
        assert events[i + 2] == ("search", point, True)


@pytest.mark.parametrize("method", ["lbfgsb", "bfgs"])
def test_difference_gradient_noise_floor_is_converged(method):
    # near the minimum the default step's difference gradient is too poor to
    # give a decrease; the search shrinks until its step rounds to zero
    r = optimize(rosen, [-1.2, 1.0], method=method)
    assert r.code == 0
    assert r.message == ("no decrease along the difference gradient "
                         "before the step rounds to zero")
    assert np.abs(r.par - 1.0).max() <= 1e-3


@pytest.mark.parametrize("method", ["lbfgsb", "bfgs", "cg"])
def test_failed_line_search_without_memory_is_code_2(method):
    # steepest descent is already the fallback, so the failure stands
    r = optimize(lambda x: float(x[0]) ** 2, [1.0],
                 lambda x: np.array([-1.0]), method=method, maxit=5)
    assert r.code == 2
    assert "line search failed" in r.message


@settings(max_examples=10)
@given(method=st.sampled_from(["bfgs", "cg"]),
       jitter=st.tuples(*[st.floats(-0.1, 0.1)] * 2))
@example(method="bfgs", jitter=(0.0, 0.0))  # a failed search there is retried
def test_rosenbrock_is_bitwise_the_same_on_1_and_3_workers(method, jitter):
    # central differences at the default eps reach the noise floor, where
    # quasi-Newton and conjugate searches fail and are retried
    with WorkerPool(1) as one, WorkerPool(3) as three:
        a, b = [optimize(rosen, np.add([-1.2, 1.0], jitter), method=method,
                         pool=pool, loginfo=True) for pool in (one, three)]
    assert a.par.tobytes() == b.par.tobytes()
    assert (a.value, a.code, a.message, a.counts) == (b.value, b.code, b.message, b.counts)
    assert a.log.to_csv() == b.log.to_csv()


def outcome(r):
    """Everything a solve reports, in a form that compares bitwise."""
    return r.par.tobytes(), r.value, r.code, r.message, r.counts, r.log.to_csv()


def solve_chained_rosenbrock(functions, start, kind, **options):
    fn, gr = functions
    return optimize(fn, start, gr if kind == "analytic" else None,
                    scheme="forward" if kind == "forward" else "central",
                    loginfo=True, **options)


def starts(dim):
    return st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim).map(np.array)


# the fixture only hands out two pure functions, so sharing it across
# examples is safe
@settings(max_examples=8, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(size=st.integers(1, 8), dim=st.integers(2, 4), data=st.data())
def test_concurrent_solves_on_one_pool_equal_their_solo_runs(size, dim, data,
                                                             chained_rosenbrock):
    solves = data.draw(st.lists(st.tuples(st.sampled_from(["lbfgsb", "bfgs", "cg"]),
                                          st.sampled_from(sorted(GRADIENT_KINDS)),
                                          starts(dim)),
                                min_size=2, max_size=4))

    def run(pool, method, kind, start):
        return outcome(solve_chained_rosenbrock(chained_rosenbrock, start, kind,
                                                method=method, pool=pool))

    with WorkerPool(1) as pool:
        solo = [run(pool, *solve) for solve in solves]
    with WorkerPool(size) as pool, \
            concurrent.futures.ThreadPoolExecutor(len(solves)) as callers:
        shared = list(callers.map(lambda solve: run(pool, *solve), solves))
    assert shared == solo


@st.composite
def boxed_solves(draw):
    """(start, kind, eps, lower, upper) with a stencil longer than 3 slots:
    central differences in 2-5 dimensions, forward in 3-5."""
    kind = draw(st.sampled_from(["central", "forward"]))
    dim = draw(st.integers(2 if kind == "central" else 3, 5))
    ends = draw(st.tuples(*[st.lists(st.one_of(st.just(inf), st.floats(-2.0, 2.0)),
                                     min_size=dim, max_size=dim)
                            for inf in (-np.inf, np.inf)]).filter(lambda e: np.isfinite(e).any()))
    eps = 10.0 ** draw(st.floats(-7.0, -2.0))
    return draw(starts(dim)), kind, eps, np.minimum(*ends), np.maximum(*ends)


@settings(max_examples=15, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=boxed_solves())
def test_boxed_lbfgsb_is_bitwise_the_same_on_1_and_3_workers(case, chained_rosenbrock):
    start, kind, eps, lower, upper = case
    with WorkerPool(1) as one, WorkerPool(3) as three:
        a, b = [outcome(solve_chained_rosenbrock(chained_rosenbrock, start, kind, eps=eps,
                                                 lower=lower, upper=upper, pool=pool))
                for pool in (one, three)]
    assert a == b


@settings(max_examples=6, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dim=st.sampled_from([2, 3, 10]), kind=st.sampled_from(["analytic", "central"]),
       seed=st.integers(0, 2**16))
def test_a_box_that_never_binds_solves_bitwise_as_no_box(dim, kind, seed, chained_rosenbrock,
                                                         rosenbrock_starts):
    # a solve without a finite bound skips the box arithmetic; one whose box
    # never binds runs it, and the two must agree to the bit
    start = rosenbrock_starts(dim, 1, seed)[0]
    wide = {"lower": start - 1e6, "upper": start + 1e6}
    with WorkerPool(1) as one, WorkerPool(3) as three:
        runs = [outcome(solve_chained_rosenbrock(chained_rosenbrock, start, kind, eps=1e-5,
                                                 pool=pool, **box))
                for pool in (one, three) for box in ({}, wide)]
    assert all(run == runs[0] for run in runs[1:])


BOX_STEPS = [(driver, "active_mask"), (linesearch, "max_feasible_step"),
             (stencil, "check_inside")]


@pytest.mark.parametrize("box", [{}, {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]}],
                         ids=["unbounded", "bounded"])
def test_only_a_solve_with_a_box_runs_the_box_arithmetic(monkeypatch, box):
    calls = dict.fromkeys([name for _, name in BOX_STEPS], 0)
    for module, name in BOX_STEPS:
        def counting(*args, _step=getattr(module, name), _name=name):
            calls[_name] += 1
            return _step(*args)
        monkeypatch.setattr(module, name, counting)
    for gradient in (rosen_grad, None):  # analytic, then central differences
        r = optimize(rosen, [-1.2, 1.0], gradient, **box)
        assert r.converged
        if box:
            assert all(calls.values()), calls
        else:
            assert not any(calls.values()), calls
        calls.update(dict.fromkeys(calls, 0))


def test_a_difference_solve_checks_its_inputs_once(monkeypatch):
    # the evaluator checks eps, the bounds and the scheme when it is built,
    # and no batch checks them again
    calls = collections.Counter()
    for name in ("validate_eps", "validate_bounds"):
        def counting(*args, _check=getattr(stencil, name), _name=name):
            calls[_name] += 1
            return _check(*args)
        monkeypatch.setattr(stencil, name, counting)

    original = errors.check_choice

    def choice(name, value, allowed):
        calls[name] += 1
        return original(name, value, allowed)
    for module in list(sys.modules.values()):  # wherever the package imported it
        if (getattr(module, "__name__", "").startswith("paropt.")
                and getattr(module, "check_choice", None) is original):
            monkeypatch.setattr(module, "check_choice", choice)
    r = optimize(rosen, [-1.2, 1.0])
    assert r.converged and r.counts.batches > 1
    assert [calls[name] for name in ("validate_eps", "validate_bounds",
                                     "difference scheme")] == [1, 1, 1], calls


def on_a_copy(f):
    """f computed on a copy of its argument: the pure twin of a writer."""
    return lambda x: f(np.array(x))


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("kind", ["analytic", "central"])
@pytest.mark.parametrize("writer", ["objective", "gradient"])
def test_a_task_writing_into_its_point_solves_as_its_pure_twin(writer, kind, size,
                                                                chained_rosenbrock):
    # each task gets its own copy of its point, as R passes arguments by value;
    # the sleeps let the objective's write land while the gradient still runs
    fn, gr = chained_rosenbrock

    def objective(x):
        time.sleep(0.002)
        x[1] = abs(x[1])
        return fn(x)

    def gradient(x):
        g = gr(x)
        time.sleep(0.001)
        return g

    def gradient_in_place(x):
        x[:] = gr(x)
        return x

    functions = (objective, gradient) if writer == "objective" else (fn, gradient_in_place)
    start = [-1.2, -1.0, -1.2]
    with WorkerPool(size) as pool, WorkerPool(1) as one:
        r = solve_chained_rosenbrock(functions, start, kind, eps=1e-5, pool=pool)
        pure = solve_chained_rosenbrock(tuple(map(on_a_copy, functions)), start, kind,
                                        eps=1e-5, pool=one)
    assert pure.code == 0
    assert outcome(r) == outcome(pure)
    assert r.par.tobytes() == r.log.rows[-1].par.tobytes()


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
