"""Timing benchmark: elapsed time per coupled evaluation across a grid of
dimension, per-call delay, and evaluation mode.

Serial modes run every stencil point sequentially in the calling thread;
parallel modes dispatch each batch to a worker pool.  The response is
wall time per batch: with an exactly quadratic objective the line search
lands on the one-dimensional minimum, so batches coincide with accepted
iterations plus the initial evaluation, and the per-batch quotient stays
well defined when the run converges before exhausting its budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .engine import WorkerPool
from .errors import ConfigError, check_count, check_nonnegative
from .optimizers import LBFGSB, OptimOptions, optimize
from .problems import sleep_problem
from .stencil import CENTRAL, FORWARD
from .iterlog import format_float

SERIAL_ANALYTIC = "serial_analytic"
SERIAL_APPROX = "serial_approx"
PARALLEL_ANALYTIC = "parallel_analytic"
PARALLEL_APPROX = "parallel_approx"
PARALLEL_FORWARD = "parallel_forward"
MODES = (SERIAL_ANALYTIC, SERIAL_APPROX, PARALLEL_ANALYTIC,
         PARALLEL_APPROX, PARALLEL_FORWARD)

BENCH_CSV_HEADER = "mode,p,sleep,rep,elapsed_per_iter,batches,fn_calls"


@dataclass(frozen=True)
class BenchConfig:
    dims: tuple = (1, 2, 3)
    sleeps: tuple = (0.0, 0.05, 0.2, 0.4, 0.6, 0.8, 1.0)
    modes: tuple = MODES
    repetitions: int = 5
    iterations: int = 5
    workers: int = 7

    def validated(self) -> "BenchConfig":
        if not self.dims or not self.sleeps:
            raise ConfigError("dims and sleeps must be non-empty lists")
        for p in self.dims:
            check_count("dims entry", p)
        for name in ("repetitions", "iterations", "workers"):
            check_count(name, getattr(self, name))
        for s in self.sleeps:
            check_nonnegative("sleeps entry", s)
        unknown = [m for m in self.modes if m not in MODES]
        if unknown or not self.modes:
            raise ConfigError(f"modes must be a non-empty subset of {MODES}, "
                              f"got unknown {unknown}")
        return self


@dataclass(frozen=True)
class BenchRow:
    mode: str
    p: int
    sleep_s: float
    rep: int
    elapsed_per_iter_s: float
    batches: int
    fn_calls: int


def _mode_setup(mode, p, config):
    """(pool size, use analytic gradient, difference scheme) for one mode."""
    if mode == SERIAL_ANALYTIC:
        return 1, True, CENTRAL
    if mode == SERIAL_APPROX:
        return 1, False, CENTRAL
    if mode == PARALLEL_ANALYTIC:
        return config.workers, True, CENTRAL
    if mode == PARALLEL_APPROX:
        return config.workers, False, CENTRAL
    # forward stencils have 1+p points, so 1+p workers cover a full wave
    return min(config.workers, 1 + p), False, FORWARD


def _run_once(problem, opts, pool, use_gradient):
    gradient = problem.gradient if use_gradient else None
    start = time.perf_counter()
    result = optimize(problem.objective, problem.par0, gradient,
                      options=opts, pool=pool)
    elapsed = time.perf_counter() - start
    batches = result.counts.batches
    return elapsed / batches, batches, result.counts.fn_calls


def run_benchmark(config: BenchConfig, progress=None) -> list[BenchRow]:
    """Measure every (mode, p, sleep, repetition) cell of the grid.

    Each cell gets a dedicated pool and one discarded warm-up run, so
    pool spin-up never pollutes the per-iteration numbers.  Rows come
    back in mode-major order matching the configuration lists.
    """
    config = config.validated()
    rows = []
    for mode in config.modes:
        for p in config.dims:
            size, use_gradient, scheme = _mode_setup(mode, p, config)
            for sleep_s in config.sleeps:
                problem = sleep_problem(p, sleep_s)
                opts = OptimOptions(method=LBFGSB, maxit=config.iterations,
                                    scheme=scheme, workers=size)
                if progress is not None:
                    progress(f"bench {mode} p={p} sleep={sleep_s}")
                with WorkerPool(size) as pool:
                    _run_once(problem, opts, pool, use_gradient)  # warm-up
                    for rep in range(1, config.repetitions + 1):
                        per_iter, batches, fn_calls = _run_once(
                            problem, opts, pool, use_gradient)
                        rows.append(BenchRow(mode, p, sleep_s, rep,
                                             per_iter, batches, fn_calls))
    return rows


def emit_bench_csv(rows) -> str:
    """Render benchmark rows as CSV under the fixed header."""
    lines = [BENCH_CSV_HEADER]
    for row in rows:
        lines.append(",".join([
            row.mode,
            str(row.p),
            format_float(row.sleep_s),
            str(row.rep),
            format_float(row.elapsed_per_iter_s),
            str(row.batches),
            str(row.fn_calls),
        ]))
    return "\n".join(lines) + "\n"
