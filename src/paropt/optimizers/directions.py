"""Search-direction machinery: L-BFGS two-loop recursion, dense BFGS
inverse-Hessian updates, and Fletcher-Reeves conjugate directions."""

from __future__ import annotations

import numpy as np

from ..errors import check_count


class LbfgsHistory:
    """Bounded history of (s, y) displacement/gradient-change pairs.

    Pairs violating the curvature condition s.y > 0 are skipped at update
    time, so the two-loop recursion only ever sees valid pairs.
    """

    def __init__(self, memory: int):
        self.memory = check_count("memory", memory)
        self._pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
        self._gamma = 1.0  # s.y / y.y of the newest pair

    def __len__(self) -> int:
        return len(self._pairs)

    def update(self, s, y) -> bool:
        """Record a pair; returns False (pair skipped) when s.y <= 0."""
        s = np.asarray(s, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        sy = float(np.dot(s, y))
        if sy <= 0.0:
            return False
        self._pairs.append((s.copy(), y.copy(), 1.0 / sy))
        self._gamma = float(sy / np.dot(y, y))
        if len(self._pairs) > self.memory:
            self._pairs.pop(0)
        return True

    def gamma(self) -> float:
        """Initial inverse-Hessian scaling s.y / y.y from the newest pair."""
        return self._gamma

    def direction(self, grad) -> np.ndarray:
        """Two-loop recursion: the quasi-Newton descent direction -H @ grad.

        With empty history this is steepest descent scaled by gamma().
        """
        g = np.asarray(grad, dtype=np.float64)
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(self._pairs):
            a = rho * float(np.dot(s, q))
            q -= a * y
            alphas.append(a)
        r = self.gamma() * q
        for (s, y, rho), a in zip(self._pairs, reversed(alphas)):
            b = rho * float(np.dot(y, r))
            r += (a - b) * s
        return -r


def bfgs_update(H: np.ndarray | None, s, y) -> np.ndarray | None:
    """Dense inverse-Hessian BFGS update; returns H unchanged when s.y <= 0.

    H None is the unscaled identity before the first update, which rescales
    it to (s.y / y.y) I before applying the update, the standard
    initial-scale heuristic.
    """
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sy = float(np.dot(s, y))
    if sy <= 0.0:
        return H
    if H is None:
        H = (sy / float(np.dot(y, y))) * np.eye(len(s))
    rho = 1.0 / sy
    Hy = H @ y
    return (H
            + (rho * rho * (sy + float(np.dot(y, Hy)))) * np.outer(s, s)
            - rho * (np.outer(Hy, s) + np.outer(s, Hy)))


def cg_direction(grad, prev_grad=None, prev_direction=None) -> np.ndarray:
    """Fletcher-Reeves conjugate direction -g + beta * d_prev.

    The first iteration (no previous state) is steepest descent.  A direction
    that is not downhill is returned as is: restarting is the caller's job.
    """
    g = np.asarray(grad, dtype=np.float64)
    if prev_grad is None or prev_direction is None:
        return -g
    gg_prev = float(np.dot(prev_grad, prev_grad))
    if gg_prev <= 0.0:
        return -g
    beta = float(np.dot(g, g)) / gg_prev
    return -g + beta * np.asarray(prev_direction, dtype=np.float64)
