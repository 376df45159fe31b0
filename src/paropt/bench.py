"""Timing benchmark: elapsed time per coupled evaluation across a grid of
dimension, per-call delay, and evaluation mode.

Serial modes run every stencil point sequentially in the calling thread;
parallel modes dispatch each batch to one shared pool.  The response is
wall time per batch: with an exactly quadratic objective the line search
lands on the one-dimensional minimum, so batches coincide with accepted
iterations plus the initial evaluation, and the per-batch quotient stays
well defined when the run converges before exhausting its budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .engine import WorkerPool
from .errors import ConfigError, check_choice, check_count, check_nonnegative
from .optimizers import LBFGSB, optimize
from .problems import sleep_problem
from .stencil import CENTRAL, FORWARD
from .iterlog import format_float

# mode -> (runs on the shared pool, analytic gradient, difference scheme)
MODE_SETUP = {
    "serial_analytic": (False, True, CENTRAL),
    "serial_approx": (False, False, CENTRAL),
    "parallel_analytic": (True, True, CENTRAL),
    "parallel_approx": (True, False, CENTRAL),
    "parallel_forward": (True, False, FORWARD),
}
MODES = tuple(MODE_SETUP)

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
        if not self.dims or not self.sleeps or not self.modes:
            raise ConfigError("dims, sleeps and modes must be non-empty lists")
        for p in self.dims:
            check_count("dims entry", p)
        for name in ("repetitions", "iterations", "workers"):
            check_count(name, getattr(self, name))
        for s in self.sleeps:
            check_nonnegative("sleeps entry", s)
        for mode in self.modes:
            check_choice("modes entry", mode, MODES)
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


def run_benchmark(config: BenchConfig, progress=None) -> list[BenchRow]:
    """Measure every (mode, p, sleep, repetition) cell of the grid.

    One pool of `config.workers` slots, started before the first cell,
    serves every parallel mode; serial modes pass no pool, so each batch
    runs on the calling thread.  Every repetition is one timed solve with no
    warm-up, so a zero-sleep cell right after a sleeping one also times the
    cold-cache wake-up in its first repetitions.  Rows come back in
    mode-major order matching the configuration lists.
    """
    config = config.validated()
    rows = []
    with WorkerPool(config.workers) as shared:
        for mode in config.modes:
            parallel, analytic, scheme = MODE_SETUP[mode]
            pool = shared if parallel else None
            for p in config.dims:
                for sleep_s in config.sleeps:
                    problem = sleep_problem(p, sleep_s)
                    gradient = problem.gradient if analytic else None
                    if progress is not None:
                        progress(f"bench {mode} p={p} sleep={sleep_s}")
                    for rep in range(1, config.repetitions + 1):
                        start = time.perf_counter()
                        result = optimize(problem.objective, problem.par0, gradient,
                                          pool=pool, method=LBFGSB,
                                          maxit=config.iterations, scheme=scheme)
                        elapsed = time.perf_counter() - start
                        counts = result.counts
                        rows.append(BenchRow(mode, p, sleep_s, rep,
                                             elapsed / counts.batches,
                                             counts.batches, counts.fn_calls))
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
