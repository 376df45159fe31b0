"""Stencil construction, bound clamping, and gradient assembly."""

import numpy as np
import pytest

from paropt.errors import ConfigError, DegenerateBoundsError, DimensionError
from paropt.stencil import (FORWARD, as_parameter_vector, assemble_gradient,
                            build_stencil, validate_bounds, validate_eps)


def test_central_point_count_and_order():
    st = build_stencil(np.array([1.0, 2.0, 3.0]), 1e-3)
    assert len(st.points) == 7
    assert st.points[0].role == "center"
    assert [(pt.role, pt.coord) for pt in st.points[1:]] == [
        ("plus", 0), ("minus", 0),
        ("plus", 1), ("minus", 1),
        ("plus", 2), ("minus", 2),
    ]


def test_forward_point_count():
    st = build_stencil(np.array([1.0, 2.0]), 1e-3, scheme=FORWARD)
    assert len(st.points) == 3
    assert [pt.role for pt in st.points] == ["center", "plus", "plus"]


def test_points_displace_exactly_one_coordinate():
    x = np.array([0.5, -1.5])
    st = build_stencil(x, 1e-3)
    for pt in st.points[1:]:
        diff = pt.point - x
        assert np.count_nonzero(diff) == 1
        assert abs(diff[pt.coord]) == pytest.approx(1e-3)


def test_scalar_eps_broadcasts_and_vector_eps_applies_per_coordinate():
    st = build_stencil(np.array([1.0, 1.0]), [1e-3, 1e-2])
    assert st.h_plus.tolist() == [1e-3, 1e-2]
    assert st.points[3].point[1] == pytest.approx(1.01)


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
    assert all(pt.point[0] <= 1.0 for pt in st.points)


def test_forward_falls_back_to_backward_at_bound():
    st = build_stencil(np.array([1.0]), 1e-3, scheme=FORWARD, upper=[1.0])
    assert st.h_plus[0] == 0.0
    assert st.h_minus[0] > 0.0


def test_degenerate_interval_raises():
    with pytest.raises(DegenerateBoundsError):
        build_stencil(np.array([0.5, 0.5]), 1e-3, lower=[0.0, 0.5], upper=[1.0, 0.5])


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
    vals = [float(pt.point @ pt.point) for pt in st.points]
    value, grad = assemble_gradient(vals, st)
    assert value == 9.0
    assert grad[0] == pytest.approx(6.0, abs=1e-9)


def test_one_sided_quotient_uses_center_value():
    # x^2 pinned at upper bound 1: (f(1) - f(0.999)) / 0.001
    st = build_stencil(np.array([1.0]), 1e-3, upper=[1.0])
    vals = [float(pt.point @ pt.point) for pt in st.points]
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
