"""Record of the machine a benchmark run measured."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import threading
import time

import numpy as np

_BLOCK = b"\0" * (1 << 20)


def _hash_work(rounds: int) -> None:
    # sha256 releases the interpreter lock on buffers this large
    for _ in range(rounds):
        hashlib.sha256(_BLOCK).digest()


def effective_parallelism(rounds: int = 24) -> float:
    """Two GIL-releasing CPU-bound threads against one: 2.0 means two
    real cores, 1.0 means the threads took turns."""
    t0 = time.perf_counter()
    _hash_work(rounds)
    one = time.perf_counter() - t0
    threads = [threading.Thread(target=_hash_work, args=(rounds,)) for _ in range(2)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    two = time.perf_counter() - t0
    return 2.0 * one / two


def sleep_overshoot_us(samples: int = 40, sleep_s: float = 0.005):
    """Median and maximum by which time.sleep(5 ms) overshoots, in us."""
    over = []
    for _ in range(samples):
        t0 = time.perf_counter()
        time.sleep(sleep_s)
        over.append((time.perf_counter() - t0 - sleep_s) * 1e6)
    return statistics.median(over), max(over)


def git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_record(root) -> dict:
    median_us, max_us = sleep_overshoot_us()
    return {
        "nproc": os.cpu_count(),
        "effective_parallelism": round(effective_parallelism(), 3),
        "sleep_5ms_overshoot_us_p50": round(median_us, 1),
        "sleep_5ms_overshoot_us_max": round(max_us, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
    }
