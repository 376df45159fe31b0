"""Every public entry point that takes a count or a duration rules out the
same bad values, with ConfigError, before any work starts."""

import math

import numpy as np
import pytest

from paropt import (BenchConfig, ConfigError, CoupledEvaluator, IterationLog,
                    check_gradient, gen_normal_dataset, optimize, sleep_problem)
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
    "gradcheck points 0": lambda: check_gradient(sum_sq, sum_sq_grad, [1.0], points=0),
    "gradcheck spread nan": lambda: check_gradient(sum_sq, sum_sq_grad, [1.0],
                                                   spread=math.nan),
    "factr as text": lambda: optimize(sum_sq, [1.0], sum_sq_grad, factr="1e7"),
}


@pytest.mark.parametrize("call", EDGES.values(), ids=EDGES.keys())
def test_edge_rejects_bad_scalar(call):
    with pytest.raises(ConfigError):
        call()


def test_gradcheck_with_no_points_exits_2(capsys):
    assert main(["gradcheck", "--problem", "quadratic", "--points", "0"]) == 2
    assert "points must be an integer >= 1" in capsys.readouterr().err
