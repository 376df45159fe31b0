"""Finite-difference stencil construction and gradient assembly.

A stencil is the matrix of points, one per row, at which the objective must
be evaluated to produce both its value and a difference-quotient gradient
at a center point.  Construction clamps steps so every point stays inside
box bounds; assembly reads the evaluated values back through two index
vectors, one row per coordinate and side, into a gradient.
Both are kernels over `CoupledEvaluator`'s validated arrays and check
nothing; the evaluator checks each input once with the checks defined here.

Row order is fixed: the center first, then per coordinate in ascending
order, the plus row before the minus row.  Evaluation counts and error
reporting depend on this order, so it is part of the contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

CENTRAL = "central"
FORWARD = "forward"

SCHEMES = (CENTRAL, FORWARD)


@dataclass
class Stencil:
    """Evaluation points for one coupled value/gradient computation.

    For every coordinate i the assembled quotient is

        (f(x + h_plus[i] e_i) - f(x - h_minus[i] e_i)) / (h_plus[i] + h_minus[i])

    where a zero step on either side means that side's value is read from
    the center evaluation instead of a separate point.  A coordinate the
    box fixes has both steps zero, no point and a quotient of 0.0.
    `points` is a (k, p) matrix, row 0 the center; `plus_index` and
    `minus_index`, the only record of which row serves which side, map
    each coordinate to the row holding that side's value.
    """

    points: np.ndarray
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
    if not np.isfinite(par).all():
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
    if not ((arr > 0.0) & (arr < np.inf)).all():  # False for a NaN too
        raise ConfigError(f"eps entries must be finite and > 0, got {arr}")
    return arr


def validate_bounds(lower, upper, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Coerce bounds to length-dim vectors, filling missing sides with +-inf."""
    lo = _per_coordinate(-np.inf if lower is None else lower, dim, "lower")
    hi = _per_coordinate(np.inf if upper is None else upper, dim, "upper")
    if not (lo <= hi).all():  # False for a NaN too
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ConfigError("bounds must not contain NaN")
        bad = int(np.argmax(lo > hi))
        raise ConfigError(
            f"inverted bounds at coordinate {bad}: lower={lo[bad]} > upper={hi[bad]}"
        )
    return lo, hi


def check_inside(x, lo, hi) -> None:
    """Raise ConfigError naming the first coordinate of x outside [lo, hi]."""
    if not ((lo <= x) & (x <= hi)).all():
        bad = int(np.argmax((x < lo) | (x > hi)))
        raise ConfigError(f"center outside bounds at coordinate {bad}: "
                          f"{x[bad]} not in [{lo[bad]}, {hi[bad]}]")


def build_stencil(x, eps, scheme, lower, upper) -> Stencil:
    """Build the evaluation stencil for a difference-quotient gradient.

    `x`, `eps`, `lower` and `upper` are float64 length-p vectors, x inside
    the box, and `scheme` one of SCHEMES, as `CoupledEvaluator` holds them.
    Away from bounds a central stencil holds 1+2p points and a forward
    stencil 1+p.  Near a bound the step on the violating side is clamped to
    the remaining room (capped at eps); a side clamped to zero drops its
    point and the quotient falls back to the one-sided difference using the
    other side.  A coordinate with no room on either side (lower == upper)
    gets no point, and its quotient is 0.0.
    """
    p = x.size
    h_plus = np.minimum(eps, upper - x)
    h_minus = np.minimum(eps, x - lower)
    if scheme == FORWARD:
        # Forward uses the plus side only; fall back to backward at a bound.
        h_minus = np.where(h_plus > 0.0, 0.0, h_minus)

    # per coordinate, a plus then a minus row wherever that side's step is nonzero
    steps = np.empty(2 * p)
    steps[0::2], steps[1::2] = h_plus, -h_minus
    live = steps.nonzero()[0]
    rows, i = np.arange(1, live.size + 1), live // 2
    points = np.empty((live.size + 1, p))
    points[:] = x
    points[rows, i] = (x[i] + steps[live]).clip(lower[i], upper[i])  # rounding guard
    index = np.zeros(2 * p, dtype=np.intp)
    index[live] = rows
    return Stencil(points, h_plus, h_minus, index[0::2], index[1::2])


def assemble_gradient(values, stencil: Stencil) -> tuple[float, np.ndarray]:
    """Turn stencil-point objective values into (center value, gradient).

    `values` holds one value per row of `stencil.points`, as the evaluator's
    batch returns them.  The center value is returned for the cache.
    """
    vals = np.asarray(values, dtype=np.float64)
    denom = stencil.h_plus + stencil.h_minus
    denom[denom == 0.0] = np.inf  # a fixed coordinate: center minus center, over inf
    with np.errstate(over="ignore"):  # the evaluator reports a non-finite quotient
        grad = (vals[stencil.plus_index] - vals[stencil.minus_index]) / denom
    return float(vals[0]), grad
