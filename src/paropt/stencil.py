"""Finite-difference stencil construction and gradient assembly.

A stencil is the ordered set of points at which the objective must be
evaluated to produce both its value and a difference-quotient gradient at
a center point.  Construction clamps steps so every point stays inside
box bounds; assembly turns the evaluated values back into a gradient.

Point order is fixed: center first, then per coordinate in ascending
order, plus point before minus point.  Evaluation counts and error
reporting depend on this order, so it is part of the contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateBoundsError, DimensionError

CENTRAL = "central"
FORWARD = "forward"

_SCHEMES = (CENTRAL, FORWARD)


@dataclass(frozen=True)
class StencilPoint:
    """One evaluation point: the center, or a plus/minus displacement of
    coordinate `coord` (coord is -1 for the center)."""

    point: np.ndarray
    role: str  # "center" | "plus" | "minus"
    coord: int


@dataclass
class Stencil:
    """Evaluation points for one coupled value/gradient computation.

    For every coordinate i the assembled quotient is

        (f(x + h_plus[i] e_i) - f(x - h_minus[i] e_i)) / (h_plus[i] + h_minus[i])

    where a zero step on either side means that side's value is read from
    the center evaluation instead of a separate point.  `plus_index` and
    `minus_index` map each coordinate to the position (in `points`) holding
    that side's value; index 0 is always the center.
    """

    points: list[StencilPoint]
    h_plus: np.ndarray
    h_minus: np.ndarray
    plus_index: np.ndarray
    minus_index: np.ndarray


def as_parameter_vector(values, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 vector, optionally checking length."""
    par = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if par.ndim != 1 or par.size < 1:
        raise DimensionError(f"expected a 1-D parameter vector, got shape {par.shape}")
    if dim is not None and par.size != dim:
        raise DimensionError(f"parameter vector has length {par.size}, expected {dim}")
    if not np.all(np.isfinite(par)):
        raise ConfigError(f"parameter vector contains non-finite entries: {par}")
    return par


def _per_coordinate(values, dim: int, name: str) -> np.ndarray:
    """Broadcast a scalar to a length-dim vector, else require shape (dim,)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise DimensionError(f"{name} has shape {arr.shape}, expected ({dim},)")
    return arr


def validate_eps(eps, dim: int) -> np.ndarray:
    """Coerce the per-coordinate step to a positive vector of length dim."""
    arr = _per_coordinate(eps, dim, "eps")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ConfigError(f"eps entries must be finite and > 0, got {arr}")
    return arr


def validate_bounds(lower, upper, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Coerce bounds to length-dim vectors, filling missing sides with +-inf."""
    lo = _per_coordinate(-np.inf if lower is None else lower, dim, "lower")
    hi = _per_coordinate(np.inf if upper is None else upper, dim, "upper")
    if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
        raise ConfigError("bounds must not contain NaN")
    if np.any(lo > hi):
        bad = int(np.argmax(lo > hi))
        raise ConfigError(
            f"inverted bounds at coordinate {bad}: lower={lo[bad]} > upper={hi[bad]}"
        )
    return lo, hi


def build_stencil(center, eps, scheme: str = CENTRAL, lower=None, upper=None) -> Stencil:
    """Build the evaluation stencil for a difference-quotient gradient.

    Away from bounds a central stencil holds 1+2p points and a forward
    stencil 1+p.  Near a bound the step on the violating side is clamped to
    the remaining room (capped at eps); a side clamped to zero drops its
    point and the quotient falls back to the one-sided difference using the
    other side.  Both sides collapsing is an error.
    """
    x = as_parameter_vector(center)
    p = x.size
    if scheme not in _SCHEMES:
        raise ConfigError(f"unknown difference scheme {scheme!r}, expected one of {_SCHEMES}")
    h = validate_eps(eps, p)
    lo, hi = validate_bounds(lower, upper, p)
    if np.any(x < lo) or np.any(x > hi):
        bad = int(np.argmax((x < lo) | (x > hi)))
        raise ConfigError(
            f"center outside bounds at coordinate {bad}: "
            f"{x[bad]} not in [{lo[bad]}, {hi[bad]}]"
        )

    room_plus = hi - x
    room_minus = x - lo
    h_plus = np.minimum(h, room_plus)
    h_minus = np.minimum(h, room_minus)
    if scheme == FORWARD:
        # Forward uses the plus side only; fall back to backward at a bound.
        h_minus = np.where(h_plus > 0.0, 0.0, h_minus)

    if np.any(h_plus + h_minus <= 0.0):
        bad = int(np.argmax(h_plus + h_minus <= 0.0))
        raise DegenerateBoundsError(
            f"coordinate {bad}: interval [{lo[bad]}, {hi[bad]}] leaves no room "
            f"for a finite-difference step at x={x[bad]}"
        )

    points = [StencilPoint(x.copy(), "center", -1)]
    plus_index = np.zeros(p, dtype=np.intp)
    minus_index = np.zeros(p, dtype=np.intp)
    for i in range(p):
        for role, step, index in (("plus", h_plus[i], plus_index),
                                  ("minus", -h_minus[i], minus_index)):
            if step != 0.0:
                xs = x.copy()
                xs[i] = min(max(x[i] + step, lo[i]), hi[i])  # rounding guard
                index[i] = len(points)
                points.append(StencilPoint(xs, role, i))

    return Stencil(points, h_plus, h_minus, plus_index, minus_index)


def assemble_gradient(values, stencil: Stencil) -> tuple[float, np.ndarray]:
    """Turn stencil-point objective values into (center value, gradient).

    `values` must align with `stencil.points`.  The center value is
    returned alongside the gradient so the caller can cache it.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != (len(stencil.points),):
        raise DimensionError(
            f"got {vals.shape[0] if vals.ndim == 1 else vals.shape} values "
            f"for a stencil of {len(stencil.points)} points"
        )
    denom = stencil.h_plus + stencil.h_minus
    with np.errstate(over="ignore"):  # the evaluator reports a non-finite quotient
        grad = (vals[stencil.plus_index] - vals[stencil.minus_index]) / denom
    return float(vals[0]), grad
