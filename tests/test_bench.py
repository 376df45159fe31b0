"""Benchmark grid construction, timing rows, and CSV output."""

import time

import numpy as np
import pytest

from paropt.bench import (BENCH_CSV_HEADER, BenchConfig, emit_bench_csv,
                          run_benchmark, sleep_problem)
from paropt.errors import ConfigError


def test_sleep_problem_arithmetic():
    prob = sleep_problem(3, 0.0)
    x = np.array([1.0, 2.0, 3.0])
    assert prob.objective(x) == 14.0
    assert prob.gradient(x).tolist() == [2.0, 4.0, 6.0]
    assert prob.par0.tolist() == [0.1, 0.1, 0.1]


def test_sleep_problem_stalls_each_call():
    prob = sleep_problem(1, 0.2)
    for call in (prob.objective, prob.gradient):
        start = time.perf_counter()
        call(np.array([0.1]))
        elapsed = time.perf_counter() - start
        assert 0.2 <= elapsed < 0.35


def test_sleep_problem_validation():
    with pytest.raises(ConfigError):
        sleep_problem(0, 0.1)
    with pytest.raises(ConfigError):
        sleep_problem(1, -0.1)


def test_config_validation():
    BenchConfig().validated()
    bad_fields = [
        dict(dims=()),
        dict(dims=(0,)),
        dict(dims=(2.5,)),
        dict(sleeps=()),
        dict(sleeps=(-1.0,)),
        dict(modes=("warpspeed",)),
        dict(modes=()),
        dict(repetitions=0),
        dict(repetitions=2.5),
        dict(iterations=0),
        dict(workers=0),
    ]
    for fields in bad_fields:
        with pytest.raises(ConfigError):
            BenchConfig(**fields).validated()


def test_default_grid_shape():
    cfg = BenchConfig()
    assert cfg.dims == (1, 2, 3)
    assert cfg.sleeps == (0.0, 0.05, 0.2, 0.4, 0.6, 0.8, 1.0)
    assert cfg.repetitions == 5
    assert cfg.workers == 7


def test_run_benchmark_rows_and_csv():
    cfg = BenchConfig(dims=(1, 2), sleeps=(0.0,),
                      modes=("serial_analytic", "parallel_approx"),
                      repetitions=2, iterations=3, workers=2)
    rows = run_benchmark(cfg)
    assert [(r.mode, r.p, r.rep) for r in rows] == [
        ("serial_analytic", 1, 1), ("serial_analytic", 1, 2),
        ("serial_analytic", 2, 1), ("serial_analytic", 2, 2),
        ("parallel_approx", 1, 1), ("parallel_approx", 1, 2),
        ("parallel_approx", 2, 1), ("parallel_approx", 2, 2),
    ]
    for r in rows:
        assert r.elapsed_per_iter_s > 0.0
        assert r.batches >= 1
        assert r.sleep_s == 0.0
        if r.mode == "serial_analytic":
            assert r.fn_calls == r.batches  # one coupled call per batch
        else:
            assert r.fn_calls == (1 + 2 * r.p) * r.batches  # full stencils

    text = emit_bench_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == BENCH_CSV_HEADER
    assert BENCH_CSV_HEADER == "mode,p,sleep,rep,elapsed_per_iter,batches,fn_calls"
    assert len(lines) == 1 + len(rows)
    fields = lines[1].split(",")
    assert fields[0] == "serial_analytic"
    assert fields[1] == "1"
    assert fields[2] == "0"
    assert fields[3] == "1"
    float(fields[4])
    int(fields[5])
    int(fields[6])


def test_forward_mode_uses_smaller_stencils():
    cfg = BenchConfig(dims=(2,), sleeps=(0.0,), modes=("parallel_forward",),
                      repetitions=1, iterations=3, workers=7)
    rows = run_benchmark(cfg)
    assert len(rows) == 1
    assert rows[0].fn_calls == (1 + 2) * rows[0].batches


def test_progress_callback_reports_cells():
    seen = []
    cfg = BenchConfig(dims=(1,), sleeps=(0.0,), modes=("serial_analytic",),
                      repetitions=1, iterations=2, workers=1)
    run_benchmark(cfg, progress=seen.append)
    assert seen and "serial_analytic" in seen[0]
