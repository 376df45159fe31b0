"""paropt benchmark: wall time for paropt.optimize to converge.

A closed loop: one process, one caller thread, calling paropt.optimize back
to back on one worker pool, in whole passes over the start points the seed
drew.  Every solve is checked against its reference.  See README.md.

    python3 perfbench/run.py --workload fd-sleep --seed 1 --seconds 20 --trace 0

With --trace 0 the run is untraced and reports the end-to-end metrics.
With --trace 1 it spends half its time untraced and half traced, and
reports the per-layer metrics.  The last line of standard output is the
result as one JSON object; the lines before it are the same figures for
people, and the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import machine_record
from tracing import Tracer, layer_metrics, misplaced_spans, percentile
from workloads import WORKLOADS, Objective, check, reference, solve

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-ups whose median is setup_s
SETUP_REPS = 3
# largest tolerated gap between a solve's summed layer self times and its
# wall time as timed around the call, a share of the wall time
SELF_TIME_GAP = 1e-2


def load_paropt():
    """Import paropt from this checkout's sources, and from nowhere else."""
    if not (SRC / "paropt" / "__init__.py").is_file():
        raise SystemExit(f"error: no paropt sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import paropt

    if not Path(paropt.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported paropt from {paropt.__file__}, not {SRC}")
    return paropt


def import_seconds() -> float:
    """Time to import paropt in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import paropt; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def set_up(paropt, workload, reps):
    """Median over `reps` of: import, objective and pool construction, and one
    warm-up solve from the classic start.  Returns it with the last pool."""
    times, pool = [], None
    for _ in range(reps):
        if pool is not None:
            pool.close()
        imported = import_seconds()
        t0 = time.perf_counter()
        objective = Objective(workload.sleep_s)
        pool = paropt.WorkerPool(workload.workers)
        solve(paropt, workload, objective, workload.base_start(), pool)
        times.append(imported + time.perf_counter() - t0)
    return statistics.median(times), pool


def timed_solve(paropt, workload, pool, i, k, start, ref, objective, tracer=None):
    """Solve number `i`, from start `k`, timed and checked."""
    objective.take()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = solve(paropt, workload, objective, start, pool)
        else:
            with tracer.solve(i):
                result = solve(paropt, workload, objective, start, pool)
    except Exception as exc:  # a solve that raises is a failed solve
        wall = time.perf_counter() - t0
        counts, failure = None, f"raised {type(exc).__name__}: {exc}"
    else:
        wall = time.perf_counter() - t0
        c = result.counts
        counts, failure = [c.fn_calls, c.gr_calls, c.batches], check(result, ref)
    calls = objective.take()
    return {"start": k, "wall_s": wall, "calls": len(calls), "call_s": sum(calls),
            "counts": counts, "failure": failure}


def timed_solves(paropt, workload, pool, starts, refs, seconds, objective, tracer=None):
    """Solve back to back in whole passes over the starts, so that every
    start is solved equally often however fast the code is.  There is at
    least one pass, and another only while it would still end within
    `seconds`, judging by the pass before."""
    records = []
    began = time.perf_counter()
    last_pass = 0.0
    while not records or time.perf_counter() - began + last_pass <= seconds:
        t0 = time.perf_counter()
        for k, start in enumerate(starts):
            records.append(timed_solve(paropt, workload, pool, len(records), k, start,
                                       refs[k], objective, tracer))
        last_pass = time.perf_counter() - t0
    return records


def end_to_end(records, setup_s):
    # times are of the correct solves; of all of them when none is correct
    ok = [r for r in records if r["failure"] is None] or records
    walls = [r["wall_s"] for r in ok]
    return {
        "solve_s_p50": (statistics.median(walls), "s"),
        "solve_s_p90": (percentile(walls, 90), "s"),
        "speedup": (statistics.median(r["call_s"] / r["wall_s"] for r in ok), "x"),
        "solve_ok_frac": (sum(r["failure"] is None for r in records) / len(records), "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-nan", type=int, metavar="K",
                    help="the K-th objective value call of the timed solves returns NaN")
    ap.add_argument("--out", type=Path, default=HERE / "out",
                    help="directory for the result, span and self-time files")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    paropt = load_paropt()
    workload = WORKLOADS[args.workload]
    machine = machine_record(ROOT)
    print("machine " + json.dumps(machine))

    setup_s, pool = set_up(paropt, workload, SETUP_REPS)
    with pool:
        starts = workload.start_points(args.seed)
        t0 = time.perf_counter()
        refs = [reference(paropt, workload, x) for x in starts]
        reference_s = time.perf_counter() - t0

        seconds = args.seconds / 2 if args.trace else args.seconds
        records = timed_solves(paropt, workload, pool, starts, refs, seconds,
                               Objective(workload.sleep_s, args.inject_nan))
        metrics = end_to_end(records, setup_s)
        traced = []
        if args.trace:
            tracer = Tracer()
            objective = Objective(workload.sleep_s)
            with tracer.install(objective):
                traced = timed_solves(paropt, workload, pool, starts, refs, seconds,
                                      objective, tracer)
            walls = {i: r["wall_s"] for i, r in enumerate(traced)}
            layers, table, gap = layer_metrics(tracer, workload.workers, walls)
            misplaced = misplaced_spans(tracer.spans)
            traced_p50 = statistics.median(r["wall_s"] for r in traced)
            untraced_p50 = metrics["solve_s_p50"][0]
            layers["trace.solve_s_p50"] = (traced_p50, "s")
            layers["trace.overhead_frac"] = (traced_p50 / untraced_p50 - 1.0, "frac")
            layers["trace.self_time_gap"] = (gap, "frac")

    failed = sum(r["failure"] is not None for r in records + traced)
    attempted = len(records) + len(traced)
    correct = failed == 0 and (not args.trace or (misplaced == 0 and gap <= SELF_TIME_GAP))
    reported = layers if args.trace else metrics

    print(f"workload {workload.name} seed {args.seed}: {attempted} solves from "
          f"{len(starts)} start points, {failed} failed (fail_frac {failed / attempted:.4g}); "
          f"set-up {setup_s:.3f} s, references {reference_s:.3f} s")
    for r in records + traced:
        if r["failure"] is not None:
            print(f"  failed solve from start {r['start']}: {r['failure']}")
    ok = [r["wall_s"] for r in records if r["failure"] is None]
    beyond = sum(w > metrics["solve_s_p90"][0] for w in ok)
    print(f"  untraced: {len(records)} solves, {len(ok)} correct; solve_s_p90 has "
          f"{beyond} samples beyond it")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':32s} {failed / attempted:14.6g} frac")
    if args.trace:
        wall = sum(table.values())
        print(f"  traced: {len(traced)} solves, {len(tracer.spans)} spans, {misplaced} not "
              f"nested in their parent; self time per solve by layer:")
        for layer, us in table.items():
            print(f"    {layer:12s} {us:12.1f} us {100 * us / wall:6.2f} %")
        for name, (value, unit) in layers.items():
            print(f"  {name:32s} {value:14.6g} {unit}")

    args.out.mkdir(parents=True, exist_ok=True)
    mode = f"trace{args.trace}"
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}}
    detail = {**result, "workload": workload.name, "seed": args.seed, "machine": machine,
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "fail_frac": failed / attempted, "reference_s": reference_s,
              "solves": records, "traced_solves": traced}
    if args.trace:
        detail["self_us_per_solve"] = table
        detail["misplaced_spans"] = misplaced
        tracer.write(args.out / f"spans-{workload.name}.jsonl")
    (args.out / f"result-{workload.name}-{mode}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
