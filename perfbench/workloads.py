"""Workloads of the paropt benchmark.

Each workload fixes a problem, a pool size and a per-call stall.  Its seed
draws the start points; the user objective is the benchmark's own callable,
which times every call it serves.  A reference solve per start point, made
with no stall on a 1-worker pool, is what every timed solve must equal
bitwise.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

# every solve must land this close (max norm) to the known minimum, all ones
MINIMUM_TOL = 1e-3
# start points are the classic start plus a uniform jitter of this half-width
JITTER = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dim: int
    workers: int
    sleep_s: float     # stall per objective (and gradient) call
    analytic: bool     # analytic gradient instead of central differences
    starts: int        # start points drawn from the seed, one pass of a run

    def options(self) -> dict:
        """Keyword options passed to paropt.optimize on every solve."""
        # A central-difference step near the cube root of machine epsilon;
        # at the package default of 1e-3 the gradient error stalls the line
        # search near the minimum on one start in four to six.
        return {} if self.analytic else {"scheme": "central", "eps": 1e-5}

    def base_start(self) -> np.ndarray:
        """The classic Rosenbrock start (-1.2, 1, -1.2, ...)."""
        x = np.ones(self.dim)
        x[0::2] = -1.2
        return x

    def start_points(self, seed: int) -> list[np.ndarray]:
        rng = np.random.default_rng([seed, self.dim])
        base = self.base_start()
        return [base + rng.uniform(-JITTER, JITTER, self.dim)
                for _ in range(self.starts)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "fd-sleep",
        "3-D Rosenbrock, central differences, 5 ms per call on 7 threads: "
        "batch count and per-batch overhead beyond the call decide the time",
        dim=3, workers=7, sleep_s=0.005, analytic=False, starts=28),
    Workload(
        "fd-cheap",
        "10-D Rosenbrock, central differences, microsecond calls on 2 threads: "
        "stencil, dispatch and line-search orchestration is nearly all the time",
        dim=10, workers=2, sleep_s=0.0, analytic=False, starts=64),
    Workload(
        "analytic-sleep",
        "10-D Rosenbrock, analytic gradient, 5 ms per call on 2 threads: "
        "bypasses the stencil, so only batch count should move it",
        dim=10, workers=2, sleep_s=0.005, analytic=True, starts=24),
)}


def rosenbrock(x: np.ndarray) -> float:
    """Chained Rosenbrock; minimum 0 at all ones."""
    r = x[1:] - x[:-1] ** 2
    return float(np.sum(100.0 * r * r + (1.0 - x[:-1]) ** 2))


def rosenbrock_gradient(x: np.ndarray) -> np.ndarray:
    r = x[1:] - x[:-1] ** 2
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * r
    return g


class Objective:
    """The user callable of one run: Rosenbrock behind a stall.

    Every call, value or gradient, appends its duration to `durations`, so
    the benchmark knows the serial cost of the calls a solve made; `take`
    hands those over and starts a fresh list.  With `nan_at=k` the k-th
    value call of the run returns NaN, to exercise the failure count.
    """

    def __init__(self, sleep_s: float, nan_at: int | None = None):
        self.sleep_s = sleep_s
        self.nan_at = nan_at
        self.durations: list[float] = []   # list.append is atomic across threads
        self._calls = 0
        self._lock = threading.Lock()

    def value(self, x):
        t0 = time.perf_counter()
        if self.sleep_s:
            time.sleep(self.sleep_s)
        f = rosenbrock(x)
        if self.nan_at is not None and self._count() == self.nan_at:
            f = float("nan")
        self.durations.append(time.perf_counter() - t0)
        return f

    def gradient(self, x):
        t0 = time.perf_counter()
        if self.sleep_s:
            time.sleep(self.sleep_s)
        g = rosenbrock_gradient(x)
        self.durations.append(time.perf_counter() - t0)
        return g

    def take(self) -> list[float]:
        durations, self.durations = self.durations, []
        return durations

    def _count(self) -> int:
        with self._lock:
            self._calls += 1
            return self._calls


def solve(paropt, workload: Workload, objective: Objective, start, pool):
    """One paropt.optimize call from `start`, as the benchmark makes it."""
    gradient = objective.gradient if workload.analytic else None
    return paropt.optimize(objective.value, start, gradient, pool=pool,
                           **workload.options())


@dataclass(frozen=True)
class Reference:
    par: bytes
    value: float
    counts: tuple

    @classmethod
    def of(cls, result) -> "Reference":
        c = result.counts
        return cls(result.par.tobytes(), result.value,
                   (c.fn_calls, c.gr_calls, c.batches))


def reference(paropt, workload: Workload, start) -> Reference:
    """The solve made with no stall on a 1-worker pool; since results do not
    depend on the worker count, every timed solve must equal it bitwise."""
    with paropt.WorkerPool(1) as pool:
        return Reference.of(solve(paropt, workload, Objective(0.0), start, pool))


def check(result, ref: Reference) -> str | None:
    """None when a timed solve is correct, else why it is not."""
    if result.code != 0:
        return f"code {result.code}: {result.message}"
    if Reference.of(result) != ref:
        return "result differs bitwise from the 1-worker reference"
    err = float(np.max(np.abs(result.par - 1.0)))
    if not err <= MINIMUM_TOL:
        return f"lands {err:.3g} from the minimum, tolerance {MINIMUM_TOL}"
    return None
