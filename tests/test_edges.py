"""Every public entry point that takes a count, a seed, a duration or a
named choice rules out the same bad values, with ConfigError, before any work
starts."""

import math

import numpy as np
import pytest

from paropt import (BenchConfig, ConfigError, CoupledEvaluator, IterationLog,
                    build_stencil, check_gradient, gen_normal_dataset, get_problem,
                    optimize, sleep_problem)
from paropt.cli import main


def sum_sq(x):
    return float(np.dot(x, x))


def sum_sq_grad(x):
    return 2.0 * np.asarray(x, dtype=np.float64)


EDGES = {
    "evaluator dim 2.5": lambda: CoupledEvaluator(sum_sq, 2.5),
    "log dim 2.5": lambda: IterationLog(2.5),
    "sleep p 2.5": lambda: sleep_problem(2.5, 0),
    "sleep nan": lambda: sleep_problem(1, math.nan),
    "sleep inf": lambda: sleep_problem(1, math.inf),
    "bench sleeps nan": lambda: BenchConfig(sleeps=(math.nan,)).validated(),
    "bench sleeps inf": lambda: BenchConfig(sleeps=(math.inf,)).validated(),
    "dataset n 2.5": lambda: gen_normal_dataset(2.5),
    "dataset sd nan": lambda: gen_normal_dataset(4, sd=math.nan),
    "dataset sd inf": lambda: gen_normal_dataset(4, sd=math.inf),
    "dataset mean inf": lambda: gen_normal_dataset(4, mean=math.inf),
    "dataset mean nan": lambda: gen_normal_dataset(4, mean=math.nan),
    "dataset seed -1": lambda: gen_normal_dataset(5, seed=-1),
    "dataset seed 2.5": lambda: gen_normal_dataset(5, seed=2.5),
    "gradcheck points 0": lambda: check_gradient(sum_sq, sum_sq_grad, [1.0], points=0),
    "gradcheck spread nan": lambda: check_gradient(sum_sq, sum_sq_grad, [1.0],
                                                   spread=math.nan),
    "gradcheck seed -1": lambda: check_gradient(sum_sq, sum_sq_grad, [1.0], seed=-1),
    "factr as text": lambda: optimize(sum_sq, [1.0], sum_sq_grad, factr="1e7"),
}


@pytest.mark.parametrize("call", EDGES.values(), ids=EDGES.keys())
def test_edge_rejects_bad_scalar(call):
    with pytest.raises(ConfigError):
        call()


CHOICES = {
    "method": lambda: optimize(sum_sq, [1.0], method="newton"),
    "scheme": lambda: optimize(sum_sq, [1.0], scheme="backward"),
    "evaluator scheme": lambda: CoupledEvaluator(sum_sq, 1, scheme="backward"),
    "stencil scheme": lambda: build_stencil([1.0], 1e-3, scheme="backward"),
    "bench mode": lambda: BenchConfig(modes=("serial_analytic", "warp")).validated(),
    "problem": lambda: get_problem("banana"),
}


@pytest.mark.parametrize("call", CHOICES.values(), ids=CHOICES.keys())
def test_edge_rejects_unknown_choice(call):
    with pytest.raises(ConfigError, match="unknown .*, expected one of"):
        call()


def test_gradcheck_with_no_points_exits_2(capsys):
    assert main(["gradcheck", "--problem", "quadratic", "--points", "0"]) == 2
    assert "points must be an integer >= 1" in capsys.readouterr().err
