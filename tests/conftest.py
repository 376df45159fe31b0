import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# read-only, as tools/bitwise_corpus.py imports the benchmark's workloads
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import rosenbrock, rosenbrock_gradient  # noqa: E402

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


@pytest.fixture
def chained_rosenbrock():
    """Rosenbrock chained over any dimension, minimum 0 at all ones, and its
    gradient."""
    return rosenbrock, rosenbrock_gradient


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
