"""Options and result types for the optimization drivers."""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..evaluator import EvalCounts
from ..iterlog import IterationLog

LBFGSB = "lbfgsb"
BFGS = "bfgs"
CG = "cg"

METHODS = (LBFGSB, BFGS, CG)

MACHINE_EPS = float(np.finfo(np.float64).eps)


class Convergence(enum.IntEnum):
    """Termination status; integer values follow the 0=ok, 1=maxit convention."""

    CONVERGED = 0
    MAXIT_REACHED = 1
    LINE_SEARCH_FAILURE = 2
    DEGENERATE = 3


@dataclass
class OptimOptions:
    """Controls for optimize().

    Defaults mirror the ubiquitous general-purpose optimizer controls:
    maxit 100, L-BFGS memory 5, factr 1e7 (relative-reduction multiplier on
    machine epsilon, lbfgsb), pgtol 0 (projected-gradient test effectively
    disabled, lbfgsb), reltol sqrt(machine eps) (bfgs/cg), per-coordinate
    finite-difference step 1e-3.
    """

    method: str = LBFGSB
    lower: object = None
    upper: object = None
    maxit: int = 100
    memory_m: int = 5
    factr: float = 1e7
    pgtol: float = 0.0
    reltol: float = float(np.sqrt(MACHINE_EPS))
    eps: object = 1e-3
    scheme: str = "central"
    workers: int = 1
    loginfo: bool = False

    def validated(self) -> "OptimOptions":
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}, expected one of {METHODS}")
        for name in ("maxit", "memory_m", "workers"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or v < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")
        for name in ("factr", "pgtol", "reltol"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if self.method != LBFGSB and (self.lower is not None or self.upper is not None):
            raise ConfigError(f"bounds are only supported by method {LBFGSB!r}")
        return self


@dataclass
class OptimResult:
    """Final parameters and run metadata.

    `value` is re-reported from the last cached evaluation record at `par`,
    never re-evaluated.  `code` is the integer form of `convergence`.
    """

    par: np.ndarray
    value: float
    counts: EvalCounts
    convergence: Convergence
    message: str
    log: IterationLog | None = field(default=None)

    @property
    def code(self) -> int:
        return int(self.convergence)

    @property
    def converged(self) -> bool:
        return self.convergence == Convergence.CONVERGED
