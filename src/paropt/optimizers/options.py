"""Options and result types for the optimization drivers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, check_choice, check_count, check_nonnegative
from ..evaluator import EvalCounts
from ..iterlog import IterationLog
from ..stencil import SCHEMES

LBFGSB = "lbfgsb"
BFGS = "bfgs"
CG = "cg"

METHODS = (LBFGSB, BFGS, CG)

MACHINE_EPS = float(np.finfo(np.float64).eps)


class Convergence(enum.IntEnum):
    """Termination status: 0 converged and 1 iteration limit reached, as in
    optim, and 2 line search failed.  A coordinate the box fixes is held at
    its bound, so it has no code of its own."""

    CONVERGED = 0
    MAXIT_REACHED = 1
    LINE_SEARCH_FAILURE = 2


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
    loginfo: bool = False

    def validated(self) -> "OptimOptions":
        check_choice("method", self.method, METHODS)
        check_choice("scheme", self.scheme, SCHEMES)
        for name in ("maxit", "memory_m"):
            check_count(name, getattr(self, name))
        for name in ("factr", "pgtol", "reltol"):
            check_nonnegative(name, getattr(self, name))
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
