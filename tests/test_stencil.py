"""Stencil construction, bound clamping, and gradient assembly."""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as hst

from paropt import CoupledEvaluator
from paropt.errors import ConfigError, DimensionError
from paropt.stencil import (CENTRAL, FORWARD, SCHEMES, as_parameter_vector,
                            assemble_gradient, build_stencil, validate_bounds,
                            validate_eps)


def test_central_point_count_and_order():
    x = np.array([1.0, 2.0, 3.0])
    st = build_stencil(x, 1e-3)
    assert st.points.shape == (7, 3) and st.points.dtype == np.float64
    assert np.array_equal(st.points[0], x)
    # per coordinate ascending, plus row before minus row
    assert st.plus_index.tolist() == [1, 3, 5]
    assert st.minus_index.tolist() == [2, 4, 6]


def test_forward_point_count():
    st = build_stencil(np.array([1.0, 2.0]), 1e-3, scheme=FORWARD)
    assert st.points.shape == (3, 2)
    assert st.plus_index.tolist() == [1, 2]
    assert st.minus_index.tolist() == [0, 0]  # no minus rows


def test_points_displace_exactly_one_coordinate():
    x = np.array([0.5, -1.5])
    st = build_stencil(x, 1e-3)
    for i in range(x.size):
        for row, sign in ((st.plus_index[i], 1.0), (st.minus_index[i], -1.0)):
            diff = st.points[row] - x
            assert np.count_nonzero(diff) == 1
            assert diff[i] == pytest.approx(sign * 1e-3)


def test_scalar_eps_broadcasts_and_vector_eps_applies_per_coordinate():
    st = build_stencil(np.array([1.0, 1.0]), [1e-3, 1e-2])
    assert st.h_plus.tolist() == [1e-3, 1e-2]
    assert st.plus_index[1] == 3
    assert st.points[3, 1] == pytest.approx(1.01)


def test_clamp_at_bound_drops_side_and_reads_center():
    # no room above: the quotient becomes a backward difference
    st = build_stencil(np.array([1.0]), 1e-3, upper=[1.0])
    assert st.h_plus[0] == 0.0
    assert st.h_minus[0] == pytest.approx(1e-3)
    assert len(st.points) == 2
    assert st.plus_index[0] == 0  # plus side served by the center value


def test_partial_clamp_keeps_points_inside():
    st = build_stencil(np.array([0.9995]), 1e-3, upper=[1.0])
    assert st.h_plus[0] == pytest.approx(0.0005)
    assert np.all(st.points[:, 0] <= 1.0)


def test_forward_falls_back_to_backward_at_bound():
    st = build_stencil(np.array([1.0]), 1e-3, scheme=FORWARD, upper=[1.0])
    assert st.h_plus[0] == 0.0
    assert st.h_minus[0] > 0.0


def test_fixed_coordinate_gets_no_point_and_a_zero_quotient():
    for scheme in SCHEMES:
        st = build_stencil(np.array([0.5, 0.5]), 1e-3, scheme=scheme,
                           lower=[0.0, 0.5], upper=[1.0, 0.5])
        assert np.all(st.points[:, 1] == 0.5)
        assert st.plus_index[1] == st.minus_index[1] == 0  # no row of its own
        assert len(st.points) == 1 + np.count_nonzero([st.plus_index[0], st.minus_index[0]])
        values = np.arange(len(st.points), dtype=np.float64)
        assert assemble_gradient(values, st)[1][1] == 0.0


def test_center_outside_bounds_raises():
    with pytest.raises(ConfigError):
        build_stencil(np.array([2.0]), 1e-3, upper=[1.0])


def test_unknown_scheme_raises():
    with pytest.raises(ConfigError):
        build_stencil(np.array([1.0]), 1e-3, scheme="sideways")


def test_assemble_known_values():
    st = build_stencil(np.array([3.0]), 1e-3)
    value, grad = assemble_gradient([9.0, 9.006001, 8.994001], st)
    assert value == 9.0
    assert grad[0] == pytest.approx(6.0, abs=1e-9)


def test_assemble_exact_on_quadratic():
    st = build_stencil(np.array([3.0]), 1e-3)
    vals = [float(row @ row) for row in st.points]
    value, grad = assemble_gradient(vals, st)
    assert value == 9.0
    assert grad[0] == pytest.approx(6.0, abs=1e-9)


def test_one_sided_quotient_uses_center_value():
    # x^2 pinned at upper bound 1: (f(1) - f(0.999)) / 0.001
    st = build_stencil(np.array([1.0]), 1e-3, upper=[1.0])
    vals = [float(row @ row) for row in st.points]
    _, grad = assemble_gradient(vals, st)
    assert grad[0] == pytest.approx((1.0 - 0.999 ** 2) / 1e-3)


def test_assemble_rejects_wrong_value_count():
    st = build_stencil(np.array([3.0]), 1e-3)
    with pytest.raises(DimensionError):
        assemble_gradient([9.0, 9.1], st)


def test_parameter_vector_validation():
    assert as_parameter_vector(3.0).shape == (1,)
    with pytest.raises(DimensionError):
        as_parameter_vector([[1.0, 2.0]])
    with pytest.raises(DimensionError):
        as_parameter_vector([1.0, 2.0], dim=3)
    with pytest.raises(ConfigError):
        as_parameter_vector([np.nan])


def test_eps_validation():
    assert validate_eps(1e-3, 3).tolist() == [1e-3, 1e-3, 1e-3]
    with pytest.raises(ConfigError):
        validate_eps(0.0, 2)
    with pytest.raises(ConfigError):
        validate_eps([1e-3, -1e-3], 2)
    with pytest.raises(DimensionError):
        validate_eps([1e-3], 2)


def test_bounds_validation():
    lo, hi = validate_bounds(None, 1.0, 2)
    assert np.all(lo == -np.inf)
    assert hi.tolist() == [1.0, 1.0]
    with pytest.raises(ConfigError):
        validate_bounds([0.0, 2.0], [1.0, 1.0], 2)
    with pytest.raises(ConfigError):
        validate_bounds([np.nan, 0.0], None, 2)
    with pytest.raises(DimensionError):
        validate_bounds([0.0], None, 2)
    with pytest.raises(DimensionError):
        validate_bounds(None, [1.0, 2.0, 3.0], 2)


# room between the center and a bound: none, tight, ordinary, or unbounded
ROOM = hst.one_of(hst.just(0.0), hst.sampled_from([1e-300, 1e-12, 1e-6]),
                  hst.floats(0.0, 10.0), hst.just(np.inf))


@hst.composite
def stencil_cases(draw):
    """(center, eps, scheme, lower, upper), the center inside the box and
    each coordinate with room on at least one side."""
    p = draw(hst.integers(1, 4))
    center = np.array(draw(hst.lists(hst.floats(-10.0, 10.0), min_size=p, max_size=p)))
    lower = center - np.array(draw(hst.lists(ROOM, min_size=p, max_size=p)))
    upper = center + np.array(draw(hst.lists(ROOM, min_size=p, max_size=p)))
    assume(np.all((lower < center) | (center < upper)))
    eps = np.array(draw(hst.lists(hst.floats(1e-8, 1.0), min_size=p, max_size=p)))
    return center, eps, draw(hst.sampled_from(SCHEMES)), lower, upper


@given(stencil_cases())
# unclamped, the plus point x + (upper - x) rounds to 0.008277025938204424
@example((np.array([-0.05495936876730595]), np.array([0.1]), CENTRAL,
          np.array([-np.inf]), np.array([0.008277025938204417])))
def test_stencil_stays_in_the_box_in_contract_order(case):
    center, eps, scheme, lower, upper = case
    sten = build_stencil(center, eps, scheme, lower, upper)
    points = sten.points
    assert points.dtype == np.float64 and points.shape == (len(points), center.size)
    assert np.array_equal(points[0], center)
    # per coordinate ascending, plus before minus, and no stray row
    sides = [(i, row) for i in range(center.size)
             for row in (sten.plus_index[i], sten.minus_index[i]) if row != 0]
    assert [row for _, row in sides] == list(range(1, len(points)))
    assert np.all(lower <= points) and np.all(points <= upper)
    for i, row in sides:
        others = np.arange(center.size) != i
        assert np.array_equal(points[row][others], center[others])
    # the moved coordinate, bitwise as the scalar reference computes it
    for i in range(center.size):
        for row, step in ((sten.plus_index[i], sten.h_plus[i]),
                          (sten.minus_index[i], -sten.h_minus[i])):
            if row != 0:
                assert points[row][i] == min(max(center[i] + step, lower[i]), upper[i])

    calls = []
    ev = CoupledEvaluator(lambda x: calls.append(x) or float(np.sum(x)), center.size,
                          scheme=scheme, eps=eps, lower=lower, upper=upper)
    ev.value_and_gradient(center)
    assert ev.counts().fn_calls == len(calls) == len(points)
    assert ev.counts().batches == 1
