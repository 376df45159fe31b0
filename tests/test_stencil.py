"""Stencil construction, bound clamping, and gradient assembly."""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as hst

from paropt import CoupledEvaluator, optimize
from paropt.errors import ConfigError, DimensionError
from paropt.stencil import (CENTRAL, FORWARD, SCHEMES, as_parameter_vector,
                            assemble_gradient, build_stencil, validate_bounds,
                            validate_eps)


def stencil_at(center, eps, scheme=CENTRAL, lower=None, upper=None):
    """build_stencil on its inputs validated as CoupledEvaluator validates them."""
    x = as_parameter_vector(center)
    return build_stencil(x, validate_eps(eps, x.size), scheme,
                         *validate_bounds(lower, upper, x.size))


def test_central_point_count_and_order():
    x = np.array([1.0, 2.0, 3.0])
    st = stencil_at(x, 1e-3)
    assert st.points.shape == (7, 3) and st.points.dtype == np.float64
    assert np.array_equal(st.points[0], x)
    # per coordinate ascending, plus row before minus row
    assert st.plus_index.tolist() == [1, 3, 5]
    assert st.minus_index.tolist() == [2, 4, 6]


def test_forward_point_count():
    st = stencil_at(np.array([1.0, 2.0]), 1e-3, scheme=FORWARD)
    assert st.points.shape == (3, 2)
    assert st.plus_index.tolist() == [1, 2]
    assert st.minus_index.tolist() == [0, 0]  # no minus rows


def test_points_displace_exactly_one_coordinate():
    x = np.array([0.5, -1.5])
    st = stencil_at(x, 1e-3)
    for i in range(x.size):
        for row, sign in ((st.plus_index[i], 1.0), (st.minus_index[i], -1.0)):
            diff = st.points[row] - x
            assert np.count_nonzero(diff) == 1
            assert diff[i] == pytest.approx(sign * 1e-3)


def test_scalar_eps_broadcasts_and_vector_eps_applies_per_coordinate():
    st = stencil_at(np.array([1.0, 1.0]), [1e-3, 1e-2])
    assert st.h_plus.tolist() == [1e-3, 1e-2]
    assert st.plus_index[1] == 3
    assert st.points[3, 1] == pytest.approx(1.01)


def test_clamp_at_bound_drops_side_and_reads_center():
    # no room above: the quotient becomes a backward difference
    st = stencil_at(np.array([1.0]), 1e-3, upper=[1.0])
    assert st.h_plus[0] == 0.0
    assert st.h_minus[0] == pytest.approx(1e-3)
    assert len(st.points) == 2
    assert st.plus_index[0] == 0  # plus side served by the center value


def test_partial_clamp_keeps_points_inside():
    st = stencil_at(np.array([0.9995]), 1e-3, upper=[1.0])
    assert st.h_plus[0] == pytest.approx(0.0005)
    assert np.all(st.points[:, 0] <= 1.0)


def test_forward_falls_back_to_backward_at_bound():
    st = stencil_at(np.array([1.0]), 1e-3, scheme=FORWARD, upper=[1.0])
    assert st.h_plus[0] == 0.0
    assert st.h_minus[0] > 0.0


def test_fixed_coordinate_gets_no_point_and_a_zero_quotient():
    for scheme in SCHEMES:
        st = stencil_at(np.array([0.5, 0.5]), 1e-3, scheme=scheme,
                        lower=[0.0, 0.5], upper=[1.0, 0.5])
        assert np.all(st.points[:, 1] == 0.5)
        assert st.plus_index[1] == st.minus_index[1] == 0  # no row of its own
        assert len(st.points) == 1 + np.count_nonzero([st.plus_index[0], st.minus_index[0]])
        values = np.arange(len(st.points), dtype=np.float64)
        assert assemble_gradient(values, st)[1][1] == 0.0


def test_assemble_known_values():
    st = stencil_at(np.array([3.0]), 1e-3)
    value, grad = assemble_gradient([9.0, 9.006001, 8.994001], st)
    assert value == 9.0
    assert grad[0] == pytest.approx(6.0, abs=1e-9)


def test_assemble_exact_on_quadratic():
    st = stencil_at(np.array([3.0]), 1e-3)
    vals = [float(row @ row) for row in st.points]
    value, grad = assemble_gradient(vals, st)
    assert value == 9.0
    assert grad[0] == pytest.approx(6.0, abs=1e-9)


def test_one_sided_quotient_uses_center_value():
    # x^2 pinned at upper bound 1: (f(1) - f(0.999)) / 0.001
    st = stencil_at(np.array([1.0]), 1e-3, upper=[1.0])
    vals = [float(row @ row) for row in st.points]
    _, grad = assemble_gradient(vals, st)
    assert grad[0] == pytest.approx((1.0 - 0.999 ** 2) / 1e-3)


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


def reference_stencil(x, eps, scheme, lower, upper):
    """build_stencil's result, one coordinate and one side at a time."""
    rows, p = [x.copy()], x.size
    h_plus, h_minus = np.empty(p), np.empty(p)
    plus_index, minus_index = np.zeros(p, dtype=np.intp), np.zeros(p, dtype=np.intp)
    for i in range(p):
        h_plus[i] = min(eps[i], upper[i] - x[i])
        h_minus[i] = min(eps[i], x[i] - lower[i])
        if scheme == FORWARD and h_plus[i] > 0.0:
            h_minus[i] = 0.0
        for step, index in ((h_plus[i], plus_index), (-h_minus[i], minus_index)):
            if step != 0.0:
                row = x.copy()  # the same rounding guard, on a one-entry array
                row[i] = np.clip(x[i:i + 1] + step, lower[i:i + 1], upper[i:i + 1])[0]
                rows.append(row)
                index[i] = len(rows) - 1
    return np.array(rows), h_plus, h_minus, plus_index, minus_index


@hst.composite
def boxed_stencil_cases(draw):
    """(center, eps, scheme, lower, upper) with signed-zero bounds, centers on
    a face and coordinates the box fixes among the draws."""
    p = draw(hst.integers(1, 4))
    x, lo, hi = [], [], []
    for _ in range(p):
        c = draw(hst.floats(-2.0, 2.0) | hst.sampled_from([0.0, -0.0, 1e-5, -1e-5]))
        room = draw(ROOM)
        below = [b for b in (-np.inf, c, c - room, 0.0, -0.0) if b <= c]
        above = [b for b in (np.inf, c, c + room, 0.0, -0.0) if b >= c]
        x.append(c)
        lo.append(draw(hst.sampled_from(below)))
        hi.append(draw(hst.sampled_from(above)))
    eps = draw(hst.lists(hst.floats(1e-8, 1.0) | hst.just(1e-5), min_size=p, max_size=p))
    return (np.array(x), np.array(eps), draw(hst.sampled_from(SCHEMES)),
            np.array(lo), np.array(hi))


@given(boxed_stencil_cases())
# a point that lands on a signed-zero bound with the other sign
@example((np.array([1e-5, -1e-5]), np.array([1e-5, 1e-5]), CENTRAL,
          np.array([-0.0, -np.inf]), np.array([np.inf, -0.0])))
def test_stencil_is_bitwise_the_per_coordinate_reference(case):
    sten = build_stencil(*case)
    got = (sten.points, sten.h_plus, sten.h_minus, sten.plus_index, sten.minus_index)
    for a, b in zip(got, reference_stencil(*case)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def evaluator_at(center, eps=1e-3, lower=None, upper=None, gradient=None):
    ev = CoupledEvaluator(lambda x: float(x @ x), len(center), gradient=gradient, eps=eps,
                          lower=lower, upper=upper)
    return ev.value(center)


# (center, eps, lower, upper) -> the one message each input fault raises,
# checked where it enters: an evaluator of each gradient kind and, unless the
# center lies outside the box (optimize moves a start into it), optimize
FAULTS = [
    (([0.5, 0.5], 1e-3, [np.nan, 0.0], None), "bounds must not contain NaN"),
    (([0.5, 0.5], 1e-3, [0.0, 2.0], [np.nan, 1.0]), "bounds must not contain NaN"),
    (([0.5, 0.5], 1e-3, [0.0, 2.0], [1.0, 1.0]),
     "inverted bounds at coordinate 1: lower=2.0 > upper=1.0"),
    (([0.5, 0.5], 1e-3, [2.0, 0.0], [1.0, -1.0]),
     "inverted bounds at coordinate 0: lower=2.0 > upper=1.0"),
    (([0.5, 0.5], [1e-3, np.nan], None, None),
     "eps entries must be finite and > 0, got [0.001   nan]"),
    (([0.5, 0.5], [np.inf, 1e-3], None, None),
     "eps entries must be finite and > 0, got [  inf 0.001]"),
    (([0.5, 0.5], [1e-3, 0.0], None, None),
     "eps entries must be finite and > 0, got [0.001 0.   ]"),
    (([0.5, 0.5], [-1e-3, 1e-3], None, None),
     "eps entries must be finite and > 0, got [-0.001  0.001]"),
    (([np.nan, 0.5], 1e-3, None, None),
     "parameter vector contains non-finite entries: [nan 0.5]"),
    (([0.5, -np.inf], 1e-3, None, None),
     "parameter vector contains non-finite entries: [ 0.5 -inf]"),
    (([0.5, 2.0, 3.0], 1e-3, None, [1.0, 1.0, 1.0]),
     "center outside bounds at coordinate 1: 2.0 not in [-inf, 1.0]"),
    (([0.5, 0.5, -3.0], 1e-3, [0.0, 0.5, -1.0], None),
     "center outside bounds at coordinate 2: -3.0 not in [-1.0, inf]"),
]


@pytest.mark.parametrize("case, message", FAULTS)
def test_each_input_fault_raises_its_own_message(case, message):
    center, eps, lower, upper = case
    entries = [lambda: evaluator_at(center, eps, lower, upper),
               lambda: evaluator_at(center, eps, lower, upper, gradient=lambda x: 2 * x)]
    if not message.startswith("center outside"):
        entries.append(lambda: optimize(lambda x: float(x @ x), center, eps=eps,
                                        lower=lower, upper=upper))
    for entry in entries:
        with pytest.raises(ConfigError) as err:
            entry()
        assert str(err.value) == message
