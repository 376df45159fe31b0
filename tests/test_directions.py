"""Two-loop recursion, dense BFGS updates, and Fletcher-Reeves directions."""

import numpy as np
import pytest

from paropt import ConfigError
from paropt.optimizers import LbfgsHistory, bfgs_update, cg_direction


def test_empty_history_is_steepest_descent():
    h = LbfgsHistory(5)
    assert h.direction(np.array([1.0, -2.0])).tolist() == [-1.0, 2.0]
    assert h.gamma() == 1.0


def test_identity_quadratic_pair_recovers_minus_g():
    # on f(x) = x.x/2 the gradient change equals the step, so the recursion
    # must reproduce the identity inverse Hessian
    h = LbfgsHistory(5)
    s = np.array([0.3, -0.7, 0.2])
    assert h.update(s, s)
    g = np.array([1.0, 2.0, -3.0])
    assert np.abs(h.direction(g) + g).max() <= 1e-12


def test_nonpositive_curvature_pair_skipped():
    h = LbfgsHistory(5)
    assert not h.update([1.0, 0.0], [-1.0, 0.0])
    assert len(h) == 0
    assert h.direction(np.array([2.0, 2.0])).tolist() == [-2.0, -2.0]


def test_skip_keeps_prior_history():
    h = LbfgsHistory(5)
    s = np.array([1.0, 0.0])
    h.update(s, s)
    probe = np.array([1.0, 1.0])
    before = h.direction(probe).copy()
    assert not h.update([0.0, 1.0], [0.0, -1.0])
    assert h.direction(probe).tolist() == before.tolist()


def test_memory_is_bounded():
    h = LbfgsHistory(3)
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(7):
        s = rng.standard_normal(4)
        h.update(s, 2.0 * s)
    assert len(h) == 3


@pytest.mark.parametrize("memory", [2.5, 0, -1, "5"])
def test_memory_must_be_a_count(memory):
    with pytest.raises(ConfigError, match="memory"):
        LbfgsHistory(memory)


def test_gamma_uses_newest_pair():
    h = LbfgsHistory(5)
    h.update([1.0, 0.0], [2.0, 0.0])
    assert h.gamma() == 0.5
    h.update([0.0, 1.0], [0.0, 4.0])
    assert h.gamma() == 0.25

    def gamma_of(s, y):
        return float(np.dot(s, y) / np.dot(y, y))

    # a skipped pair (s.y <= 0) leaves gamma at the newest kept pair
    rng = np.random.default_rng(3)
    steps = rng.normal(size=(3, 4))
    pairs = [(s, s * rng.uniform(0.3, 3.0, 4)) for s in steps]  # each s.y > 0
    h = LbfgsHistory(2)
    assert h.update(*pairs[0])
    assert not h.update(pairs[0][0], -pairs[0][1])
    assert h.gamma() == gamma_of(*pairs[0])
    # with memory 2 the third pair evicts the first
    assert h.update(*pairs[1]) and h.update(*pairs[2])
    assert len(h) == 2
    assert h.gamma() == gamma_of(*pairs[2])
    assert not h.update(-pairs[2][0], pairs[2][1])
    assert h.gamma() == gamma_of(*pairs[2])


def test_bfgs_update_satisfies_secant_and_symmetry():
    s = np.array([0.5, 1.0, -0.25])
    y = np.array([1.0, 3.0, 0.5])
    H = bfgs_update(None, s, y)
    assert np.abs(H @ y - s).max() <= 1e-12
    assert np.abs(H - H.T).max() == 0.0


def test_bfgs_update_skips_nonpositive_curvature():
    H = np.eye(2)
    assert bfgs_update(H, [1.0, 0.0], [-2.0, 0.0]) is H


def test_bfgs_first_update_rescales_identity():
    s = np.array([1.0, 0.0])
    y = np.array([4.0, 0.0])
    H_first = bfgs_update(None, s, y)
    assert H_first[1, 1] == 0.25  # untouched subspace carries s.y/y.y
    H_later = bfgs_update(np.eye(2), s, y)
    assert H_later[1, 1] == 1.0
    assert np.abs(H_later @ y - s).max() <= 1e-12


def test_cg_first_iteration_is_steepest_descent():
    assert cg_direction([2.0, 4.0]).tolist() == [-2.0, -4.0]


def test_cg_no_progress_gives_beta_one():
    g = np.array([2.0, 4.0])
    d_prev = np.array([-3.0, -1.0])
    assert cg_direction(g, g, d_prev).tolist() == (-g + d_prev).tolist()


def test_cg_returns_an_uphill_direction_as_is():
    # beta = 1 gives (99, 0), an ascent direction; restarting is the driver's
    g = np.array([1.0, 0.0])
    assert cg_direction(g, g, np.array([100.0, 0.0])).tolist() == [99.0, 0.0]


def test_cg_zero_previous_gradient_is_steepest_descent():
    # Fletcher-Reeves beta = g.g / prev_g.prev_g has no value after a zero
    # gradient, so the direction falls back to -g, not to a NaN vector
    g = np.array([0.5, -1.5])
    d = cg_direction(g, np.zeros(2), np.array([-3.0, 2.0]))
    assert d.tolist() == [-0.5, 1.5]


def test_cg_two_exact_steps_solve_2d_quadratic():
    # conjugacy with exact line minima: x^2 + 10 y^2 is solved in p=2 steps
    A = np.diag([2.0, 20.0])
    x = np.array([1.0, 1.0])
    g = A @ x
    prev_g = prev_d = None
    for _ in range(2):
        d = cg_direction(g, prev_g, prev_d)
        alpha = -float(d @ g) / float(d @ A @ d)
        x = x + alpha * d
        prev_g, prev_d = g, d
        g = A @ x
    assert float(x[0] ** 2 + 10.0 * x[1] ** 2) <= 1e-16
    assert np.abs(g).max() <= 1e-8
