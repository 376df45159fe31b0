"""Command-line front end: optimization runs, gradient checks, and the
timing benchmark."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .bench import MODES, BenchConfig, emit_bench_csv, run_benchmark
from .data import gen_normal_dataset, load_dataset
from .errors import ConfigError, DatasetError, DimensionError, EvaluationError
from .gradcheck import check_gradient
from .iterlog import format_float
from .optimizers import LBFGSB, METHODS, OptimOptions, OptimResult, optimize
from .problems import DATA_PROBLEMS, get_problem, problem_names
from .stencil import CENTRAL, FORWARD

DEFAULT_DATASET = dict(n=1000, mean=5.0, sd=2.0, seed=0)


def parse_vector(text: str) -> np.ndarray:
    """Comma-separated reals; inf and -inf are accepted as bound literals."""
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=np.float64)
    except ValueError:
        raise ValueError(f"not a comma-separated list of numbers: {text!r}") from None


def parse_eps(text: str):
    """Finite-difference step: a single value or one value per coordinate."""
    vec = parse_vector(text)
    return vec if vec.size > 1 else float(vec[0])


def parse_list(cast):
    """Argument type for a comma-separated list of `cast` values."""
    def parse(text: str) -> list:
        return [cast(tok) for tok in text.split(",")]
    parse.__name__ = f"{cast.__name__} list"  # named in argparse's usage errors
    return parse


def default_workers(fallback: int) -> int:
    raw = os.environ.get("PAROPT_WORKERS")
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"PAROPT_WORKERS must be an integer, got {raw!r}") from None


def result_fields(result: OptimResult) -> dict:
    """The reported fields of a result, in output order."""
    return {
        "par": [float(v) for v in result.par],
        "value": float(result.value),
        "convergence": result.code,
        "message": result.message,
        "fn_calls": result.counts.fn_calls,
        "gr_calls": result.counts.gr_calls,
        "batches": result.counts.batches,
    }


def result_report(result: OptimResult, elapsed_s=None) -> str:
    """Human-readable result block mirroring the fields of the JSON form."""
    fields = result_fields(result)
    fields["par"] = " ".join(format_float(v) for v in fields["par"])
    fields["value"] = format_float(fields["value"])
    lines = [f"{name}: {value}" for name, value in fields.items()]
    if elapsed_s is not None:
        lines.append(f"elapsed: {elapsed_s:.6g} s")
    return "\n".join(lines)


def result_json(result: OptimResult, elapsed_s=None) -> str:
    doc = result_fields(result)
    if elapsed_s is not None:
        doc["elapsed_s"] = elapsed_s
    return json.dumps(doc)


def _default_problem(name: str):
    """The registered problem, bound to the default seeded dataset when it
    needs data."""
    data = gen_normal_dataset(**DEFAULT_DATASET) if name in DATA_PROBLEMS else None
    return get_problem(name, data=data)


def _resolve_problem(args):
    """Instantiate the requested problem, generating the default seeded
    dataset when a data-driven problem is run without --data."""
    needs_data = args.problem in DATA_PROBLEMS
    if args.data is not None:
        if not needs_data:
            raise ConfigError(f"problem {args.problem!r} takes no dataset")
        return get_problem(args.problem, data=load_dataset(args.data))
    if needs_data:
        print(f"note: no --data given, using a generated dataset "
              f"(n={DEFAULT_DATASET['n']}, mean={DEFAULT_DATASET['mean']}, "
              f"sd={DEFAULT_DATASET['sd']}, seed={DEFAULT_DATASET['seed']})",
              file=sys.stderr)
    return _default_problem(args.problem)


def cmd_optimize(args) -> int:
    problem = _resolve_problem(args)
    par0 = args.par0 if args.par0 is not None else problem.par0
    if par0 is None:
        raise ConfigError(f"problem {args.problem!r} has no default start; pass --par0")
    problem.check_dimension(par0)

    lower, upper = args.lower, args.upper
    if args.method == LBFGSB:
        # problem-supplied bounds are defaults; explicit flags win
        lower = problem.lower if lower is None else lower
        upper = problem.upper if upper is None else upper
    # an explicit scheme asks for finite differences
    gradient = problem.gradient if args.scheme is None else None

    options = OptimOptions(
        method=args.method, lower=lower, upper=upper, maxit=args.maxit,
        eps=args.eps, scheme=args.scheme or CENTRAL,
        workers=default_workers(1) if args.workers is None else args.workers,
        loginfo=args.loginfo or args.log_out is not None)

    start = time.perf_counter()
    result = optimize(problem.objective, par0, gradient, options=options)
    elapsed = time.perf_counter() - start

    if args.log_out is not None:
        with open(args.log_out, "w", encoding="utf-8") as fh:
            fh.write(result.log.to_csv())
    print(result_json(result, elapsed) if args.json else result_report(result, elapsed))
    return 0 if result.code == 0 else 1


def cmd_bench(args) -> int:
    config = BenchConfig(
        dims=tuple(args.dims),
        sleeps=tuple(args.sleeps),
        modes=tuple(args.modes),
        repetitions=args.reps,
        iterations=args.iters,
        workers=default_workers(7) if args.workers is None else args.workers,
    )
    rows = run_benchmark(config, progress=lambda msg: print(msg, file=sys.stderr))
    csv_text = emit_bench_csv(rows)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        print(csv_text, end="")
    return 0


def cmd_gradcheck(args) -> int:
    names = [args.problem] if args.problem is not None else problem_names()
    all_ok = True
    for name in names:
        problem = _default_problem(name)
        if problem.gradient is None:
            print(f"{name}: skipped (no analytic gradient)")
            continue
        report = check_gradient(problem.objective, problem.gradient, problem.par0,
                                lower=problem.lower, upper=problem.upper,
                                points=args.points, seed=args.seed, spread=0.5)
        worst = report.worst
        status = "ok" if report.passed else "FAIL"
        print(f"{name}: {status} over {len(report.rows)} points "
              f"(worst err {worst.max_abs_err:.3g}, tol {worst.tol:.3g})")
        all_ok = all_ok and report.passed
    return 0 if all_ok else 1


def cmd_problems(args) -> int:
    for name in problem_names():
        problem = _default_problem(name)
        dims = "any p" if problem.p is None else f"p={problem.p}"
        print(f"{name:14s} {dims:6s} {problem.summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paropt",
        description="Parallel-evaluation optimization runs, gradient checks, "
                    "and the timing benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="minimize a registered problem")
    opt.add_argument("--problem", required=True, choices=problem_names())
    opt.add_argument("--data", help="dataset file for data-driven problems")
    opt.add_argument("--par0", type=parse_vector, help="comma-separated start")
    opt.add_argument("--method", choices=list(METHODS), default=LBFGSB)
    opt.add_argument("--lower", type=parse_vector, help="lower bounds (inf ok)")
    opt.add_argument("--upper", type=parse_vector, help="upper bounds (inf ok)")
    opt.add_argument("--eps", type=parse_eps, default=OptimOptions.eps,
                     help="finite-difference step")
    opt.add_argument("--scheme", choices=[CENTRAL, FORWARD],
                     help="force finite differences with this stencil")
    opt.add_argument("--maxit", type=int, default=100)
    opt.add_argument("--workers", type=int, help="pool size (default $PAROPT_WORKERS or 1)")
    opt.add_argument("--loginfo", action="store_true", help="record the iteration path")
    opt.add_argument("--log-out", help="write the iteration log CSV here")
    opt.add_argument("--json", action="store_true", help="machine-readable output")
    opt.set_defaults(func=cmd_optimize)

    ben = sub.add_parser("bench", help="run the timing benchmark grid")
    ben.add_argument("--dims", type=parse_list(int), default=[1, 2, 3])
    ben.add_argument("--sleeps", type=parse_list(float),
                     default=[0.0, 0.05, 0.2, 0.4, 0.6, 0.8, 1.0])
    ben.add_argument("--modes", type=parse_list(str), default=MODES)
    ben.add_argument("--reps", type=int, default=5)
    ben.add_argument("--iters", type=int, default=5)
    ben.add_argument("--workers", type=int, help="pool size (default $PAROPT_WORKERS or 7)")
    ben.add_argument("--out", help="write CSV here instead of stdout")
    ben.set_defaults(func=cmd_bench)

    gc = sub.add_parser("gradcheck", help="compare analytic and central-difference gradients")
    gc.add_argument("--problem", choices=problem_names())
    gc.add_argument("--points", type=int, default=10)
    gc.add_argument("--seed", type=int, default=0)
    gc.set_defaults(func=cmd_gradcheck)

    pr = sub.add_parser("problems", help="list registered problems")
    pr.set_defaults(func=cmd_problems)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already reported usage
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
