"""Objectives the test modules share: the sum of squares and 2-D Rosenbrock,
each with its analytic gradient."""

import numpy as np


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
