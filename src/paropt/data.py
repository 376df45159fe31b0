"""Dataset file loading and reproducible sample generation."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DatasetError, check_count, check_seed


def load_dataset(path) -> np.ndarray:
    """Read newline-delimited decimal numbers from a text file.

    Blank lines are skipped and everything after a ``#`` is a comment.
    Non-numeric tokens raise DatasetError naming the offending line.
    """
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise DatasetError(
                    f"{path}: line {lineno}: not a number: {line!r}") from None
    return np.asarray(values, dtype=np.float64)


def gen_normal_dataset(n: int, mean: float = 5.0, sd: float = 2.0,
                       seed: int = 0) -> np.ndarray:
    """Draw n values from N(mean, sd^2), reproducibly for a given seed.

    Uniform variates come from numpy's PCG64 bit generator and are mapped
    to normals with the Box-Muller transform, spelled out here so the
    stream does not depend on numpy's choice of normal algorithm.
    """
    n = check_count("n", n)
    seed = check_seed(seed)
    if not (np.isfinite(mean) and np.isfinite(sd) and sd > 0.0):
        raise ConfigError(f"need a finite mean and a finite sd > 0, got mean={mean}, sd={sd}")
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = (n + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1] keeps the log finite
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]
    return mean + sd * z
