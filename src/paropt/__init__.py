"""Parallel-evaluation optimization: L-BFGS-B, BFGS, and CG with coupled
objective/gradient evaluation, finite-difference stencils executed as
worker-pool batches, iteration logging, and a timing benchmark."""

from .bench import BenchConfig, BenchRow, emit_bench_csv, run_benchmark
from .data import gen_normal_dataset, load_dataset
from .engine import WorkerPool, evaluate_batch, parallel_value_and_gradient
from .errors import (ConfigError, DatasetError, DegenerateBoundsError,
                     DimensionError, EvaluationError)
from .evaluator import ANALYTIC, CoupledEvaluator, EvalCounts, make_coupled_evaluator
from .gradcheck import GradCheckReport, GradCheckRow, agreement_tolerance, check_gradient
from .iterlog import IterationLog, LogRow, format_float
from .optimizers import (BFGS, CG, LBFGSB, METHODS, Convergence, OptimOptions,
                         OptimResult, optimize)
from .problems import ProblemSpec, get_problem, problem_names, sleep_problem
from .stencil import CENTRAL, FORWARD, Stencil, StencilPoint, build_stencil

__version__ = "0.1.0"

__all__ = [
    "ANALYTIC",
    "BFGS",
    "BenchConfig",
    "BenchRow",
    "CENTRAL",
    "CG",
    "ConfigError",
    "Convergence",
    "CoupledEvaluator",
    "DatasetError",
    "DegenerateBoundsError",
    "DimensionError",
    "EvalCounts",
    "EvaluationError",
    "FORWARD",
    "GradCheckReport",
    "GradCheckRow",
    "IterationLog",
    "LBFGSB",
    "LogRow",
    "METHODS",
    "OptimOptions",
    "OptimResult",
    "ProblemSpec",
    "Stencil",
    "StencilPoint",
    "WorkerPool",
    "agreement_tolerance",
    "build_stencil",
    "check_gradient",
    "emit_bench_csv",
    "evaluate_batch",
    "format_float",
    "gen_normal_dataset",
    "get_problem",
    "load_dataset",
    "make_coupled_evaluator",
    "optimize",
    "parallel_value_and_gradient",
    "problem_names",
    "run_benchmark",
    "sleep_problem",
    "__version__",
]
