import threading

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run and keep tier-1 fast
settings.register_profile("paropt", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("paropt")


@pytest.fixture
def counted():
    """Wrap a function so every call records its argument (thread-safe)."""

    def wrap(fn):
        lock = threading.Lock()
        calls = []

        def wrapped(x):
            with lock:
                calls.append(np.array(x, dtype=np.float64, copy=True))
            return fn(x)

        wrapped.calls = calls
        return wrapped

    return wrap


def _chained_rosenbrock(x):
    r = x[1:] - x[:-1] ** 2
    return float(np.sum(100.0 * r * r + (1.0 - x[:-1]) ** 2))


def _chained_rosenbrock_gradient(x):
    r = x[1:] - x[:-1] ** 2
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * r
    return g


@pytest.fixture
def chained_rosenbrock():
    """Rosenbrock chained over any dimension, minimum 0 at all ones, and its
    gradient."""
    return _chained_rosenbrock, _chained_rosenbrock_gradient


@pytest.fixture
def rosenbrock_starts():
    """Start points: the classic start (-1.2, 1, -1.2, ...) plus a seeded
    uniform jitter of +-0.1 per coordinate."""

    def starts(p, n, seed):
        rng = np.random.default_rng(seed)
        base = np.ones(p)
        base[0::2] = -1.2
        return [base + rng.uniform(-0.1, 0.1, p) for _ in range(n)]

    return starts
