"""Acceptance checks for the package's headline guarantees.

Each test exercises one user-facing promise end to end and prints a
PASS line with the measured quantity, so a verbose run doubles as a
short report.  Timing tests use the sleep problem, whose waits release
the GIL, so they overlap on any machine, even one with fewer cores than
workers.
"""

import math
import statistics

import numpy as np
import pytest

from paropt.bench import BenchConfig, run_benchmark
from paropt.data import gen_normal_dataset
from paropt.engine import WorkerPool
from paropt.evaluator import ANALYTIC, CoupledEvaluator, EvalCounts
from paropt.gradcheck import check_gradient
from paropt.iterlog import IterationLog
from paropt.optimizers import optimize
from paropt.problems import get_problem
from paropt.stencil import CENTRAL, FORWARD


def quad(x):
    return float(np.sum(x * x))


def quad_grad(x):
    return 2.0 * x


def identical(a, b):
    return (a.par.tobytes() == b.par.tobytes() and a.value == b.value
            and a.counts == b.counts)


def test_results_identical_across_worker_counts():
    """The pool size may change wall time, never a single result bit."""
    runs = []

    for p in range(1, 6):
        par0 = np.linspace(-2.0, 1.5, p)
        runs.append(dict(objective=quad, par0=par0, scheme=CENTRAL))
        runs.append(dict(objective=quad, par0=par0, gradient=quad_grad))

    rosen = get_problem("rosenbrock")
    runs.append(dict(objective=rosen.objective, par0=rosen.par0,
                     gradient=rosen.gradient))

    negll = get_problem("normal_negll",
                        data=gen_normal_dataset(1000, mean=5.0, sd=2.0, seed=0))
    runs.append(dict(objective=negll.objective, par0=negll.par0,
                     gradient=negll.gradient, lower=negll.lower))

    with WorkerPool(1) as one, WorkerPool(8) as eight:
        for kwargs in runs:
            objective = kwargs.pop("objective")
            par0 = kwargs.pop("par0")
            gradient = kwargs.pop("gradient", None)
            serial = optimize(objective, par0, gradient, pool=one, **kwargs)
            wide = optimize(objective, par0, gradient, pool=eight, **kwargs)
            assert identical(serial, wide)

    print(f"PASS worker counts 1 and 8 agree bitwise on {len(runs)} runs")


def test_normal_mle_matches_closed_form():
    """Fitting a normal sample recovers the analytic estimates to 1e-4."""
    data = gen_normal_dataset(1000, mean=5.0, sd=2.0, seed=0)
    mu_hat = float(np.mean(data))
    sigma_hat = math.sqrt(float(np.mean((data - mu_hat) ** 2)))

    problem = get_problem("normal_negll", data=data)
    worst = 0.0
    for mode in ("analytic", "central"):
        gradient = problem.gradient if mode == "analytic" else None
        result = optimize(problem.objective, [1.0, 1.0], gradient,
                          lower=problem.lower, scheme=CENTRAL)
        assert result.code == 0
        err = max(abs(result.par[0] - mu_hat), abs(result.par[1] - sigma_hat))
        assert err < 1e-4, f"{mode}: off by {err}"
        worst = max(worst, err)

    print(f"PASS normal MLE within 1e-4 of closed form (worst err {worst:.3g})")


def test_evaluation_count_laws():
    """Batch and call counters follow the stencil sizes exactly."""
    x = np.array([0.3, -0.7, 1.1])

    ev = CoupledEvaluator(quad, 3, scheme=CENTRAL)
    ev.value_and_gradient(x)
    assert ev.counts() == EvalCounts(fn_calls=7, gr_calls=0, batches=1)

    ev = CoupledEvaluator(quad, 3, scheme=FORWARD)
    ev.value_and_gradient(x)
    assert ev.counts() == EvalCounts(fn_calls=4, gr_calls=0, batches=1)

    ev = CoupledEvaluator(quad, 3, scheme=CENTRAL)
    ev.value(x)
    ev.gradient(x)
    assert ev.counts() == EvalCounts(fn_calls=7, gr_calls=0, batches=1)

    ev = CoupledEvaluator(quad, 3, gradient=quad_grad, scheme=ANALYTIC)
    ev.value_and_gradient(x)
    assert ev.counts() == EvalCounts(fn_calls=1, gr_calls=1, batches=1)

    print("PASS evaluation counts match stencil sizes exactly")


def test_difference_gradient_fidelity():
    """Central differences track analytic gradients at tight tolerance."""
    rng = np.random.Generator(np.random.PCG64(7))
    worst = 0.0
    for k in range(100):
        p = 1 + k % 5
        x = rng.uniform(-5.0, 5.0, size=p)
        approx = CoupledEvaluator(quad, p, eps=1e-3).gradient(x)
        worst = max(worst, float(np.max(np.abs(approx - quad_grad(x)))))
    assert worst <= 1e-9

    rosen = get_problem("rosenbrock")
    report = check_gradient(rosen.objective, rosen.gradient, rosen.par0,
                            points=10, seed=2, spread=1.0)
    assert report.passed
    assert all(row.ok for row in report.rows)

    print(f"PASS difference gradients faithful "
          f"(quadratic worst {worst:.3g}, valley check ok)")


def test_analytic_speedup_factor_two():
    """Coupling value and gradient halves the per-iteration wait."""
    cfg = BenchConfig(dims=(3,), sleeps=(0.2,),
                      modes=("serial_analytic", "parallel_analytic"),
                      repetitions=3, iterations=5, workers=7)
    rows = run_benchmark(cfg)
    serial = [r.elapsed_per_iter_s for r in rows if r.mode == "serial_analytic"]
    parallel = [r.elapsed_per_iter_s for r in rows if r.mode == "parallel_analytic"]
    assert len(serial) == len(parallel) == 3
    for t in serial:
        assert 0.36 <= t <= 0.44, f"serial per-iteration {t}"
    for t in parallel:
        assert t <= 0.30, f"parallel per-iteration {t}"

    print(f"PASS analytic coupling speedup "
          f"(serial {statistics.fmean(serial):.3f}s, "
          f"parallel {statistics.fmean(parallel):.3f}s per iteration)")


def test_approx_speedup_scales_with_dimension():
    """Parallel stencils hide the factor 1+2p that serial runs pay."""
    cfg = BenchConfig(dims=(3,), sleeps=(0.2,),
                      modes=("serial_approx", "parallel_approx"),
                      repetitions=3, iterations=5, workers=7)
    rows = run_benchmark(cfg)
    serial = [r.elapsed_per_iter_s for r in rows if r.mode == "serial_approx"]
    parallel = [r.elapsed_per_iter_s for r in rows if r.mode == "parallel_approx"]
    for t in serial:
        assert 1.26 <= t <= 1.54, f"serial per-iteration {t}"
    for t in parallel:
        assert t <= 0.30, f"parallel per-iteration {t}"

    print(f"PASS stencil speedup "
          f"(serial {statistics.fmean(serial):.3f}s, "
          f"parallel {statistics.fmean(parallel):.3f}s per iteration)")


def test_zero_sleep_overhead_budget():
    """Pool orchestration costs stay under 50ms per iteration."""
    cfg = BenchConfig(dims=(3,), sleeps=(0.0,), modes=("parallel_approx",),
                      repetitions=3, iterations=5, workers=7)
    rows = run_benchmark(cfg)
    assert len(rows) == 3
    for r in rows:
        assert r.elapsed_per_iter_s < 0.05, f"overhead {r.elapsed_per_iter_s}"

    peak = max(r.elapsed_per_iter_s for r in rows)
    print(f"PASS zero-sleep overhead under 50ms (peak {peak * 1e3:.1f}ms)")


def test_bound_activation_lands_exactly(counted):
    """A binding upper bound is hit exactly, never probed beyond."""
    upper = np.array([1.0])

    def shifted(x):
        return float((x[0] - 2.0) ** 2)

    def shifted_grad(x):
        return np.array([2.0 * (x[0] - 2.0)])

    for gradient in (shifted_grad, None):
        probe = counted(shifted)
        result = optimize(probe, [0.0], gradient, upper=upper, loginfo=True)
        assert result.code == 0
        assert result.par[0] == 1.0
        assert all(call[0] <= 1.0 for call in probe.calls)
        assert all(row.par[0] <= 1.0 for row in result.log.rows)

    print("PASS binding bound reached exactly, every probe feasible")


def test_iteration_log_contract():
    """Logs open at the start point, close at the result, round-trip CSV."""
    par0 = np.array([1.5, -0.5])
    result = optimize(quad, par0, loginfo=True)
    log = result.log
    assert log is not None and len(log) >= 2

    ev = CoupledEvaluator(quad, 2, eps=1e-3)
    f0 = ev.value(par0)
    g0 = ev.gradient(par0)
    first, last = log.rows[0], log.rows[-1]
    assert first.iter == 1
    assert first.par.tobytes() == par0.tobytes()
    assert first.fn == f0
    assert first.gr.tobytes() == g0.tobytes()
    assert last.par.tobytes() == result.par.tobytes()
    assert last.fn == result.value

    assert IterationLog.from_csv(log.to_csv()) == log

    print(f"PASS iteration log contract holds over {len(log)} rows")


def test_bench_grid_flatness():
    """Parallel stencil timing is flat in p; serial scales like 1+2p."""
    cfg = BenchConfig(dims=(1, 2, 3), sleeps=(0.0, 0.1, 0.2),
                      modes=("serial_approx", "parallel_approx"),
                      repetitions=3, iterations=5, workers=7)
    rows = run_benchmark(cfg)

    def cell_mean(mode, p, sleep_s):
        picked = [r.elapsed_per_iter_s for r in rows
                  if r.mode == mode and r.p == p and r.sleep_s == sleep_s]
        assert len(picked) == 3
        return statistics.fmean(picked)

    for sleep_s in cfg.sleeps:
        means = [cell_mean("parallel_approx", p, sleep_s) for p in cfg.dims]
        spread = max(means) - min(means)
        assert spread < 0.05 + 0.1 * min(means), \
            f"sleep {sleep_s}: per-p means {means}"

    for sleep_s in (0.1, 0.2):
        normalized = [cell_mean("serial_approx", p, sleep_s) / (1 + 2 * p)
                      for p in cfg.dims]
        ratio = max(normalized) / min(normalized)
        assert ratio - 1.0 <= 0.15, \
            f"sleep {sleep_s}: normalized times {normalized}"

    print("PASS timing grid flat in dimension for parallel stencils")
