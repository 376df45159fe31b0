"""Span tracing of paropt's solve path from outside the package.

`Tracer.install` replaces, for the duration of a `with` block, the public
names on the solve path at the module or class attribute that paropt calls
through, with wrappers that record a span around each call.  Pool tasks are
wrapped too, so an objective call on a worker thread takes its `run_batch`
span as parent.  Spans stay in memory as tuples

    (id, name, start_ns, end_ns, parent_id, solve_id)

and `layer_metrics` turns them into per-layer counts and self times.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("driver", "linesearch", "directions", "evaluator", "stencil",
          "engine", "objective")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.tasks: list[tuple] = []     # (run_batch id, start_ns, end_ns)
        self.notes: dict[int, object] = {}  # span id -> what the call returned
        self.solve_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording -----------------------------------------------------------

    def _open(self):
        parent = getattr(self._local, "span", None)
        sid = next(self._ids)   # one C call: atomic under the interpreter lock
        self._local.span = sid
        return sid, parent, time.perf_counter_ns()

    def _close(self, name, sid, parent, start):
        end = time.perf_counter_ns()
        self._local.span = parent
        self.spans.append((sid, name, start, end, parent, self.solve_id))

    def wrap(self, name, fn, note=None):
        """fn with a span around every call; `note(result)` keeps a fact
        about the returned value against the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, sid, parent, start)
            if note is not None:
                self.notes[sid] = note(result)
            return result
        return traced

    def _wrap_task(self, task, batch):
        def run():
            start = time.perf_counter_ns()
            outer = getattr(self._local, "span", None)
            self._local.span = batch
            try:
                return task()
            finally:
                self._local.span = outer
                self.tasks.append((batch, start, time.perf_counter_ns()))
        return run

    def _wrap_run_batch(self, run_batch):
        @functools.wraps(run_batch)
        def traced(pool, tasks):
            sid, parent, start = self._open()
            try:
                return run_batch(pool, [self._wrap_task(t, sid) for t in tasks])
            finally:
                self._close("engine.run_batch", sid, parent, start)
        return traced

    @contextmanager
    def solve(self, solve_id):
        self.solve_id = solve_id
        sid, parent, start = self._open()
        try:
            yield
        finally:
            self._close("driver.optimize", sid, parent, start)

    @contextmanager
    def install(self, objective):
        """Patch the solve path of `paropt` and the user `objective`."""
        from paropt import engine, evaluator, stencil
        from paropt.optimizers import directions, driver

        def trials(result):
            return result.trials

        patches = [
            (stencil, "build_stencil", "stencil.build", lambda s: len(s.points)),
            (stencil, "assemble_gradient", "stencil.assemble", None),
            (evaluator, "evaluate_batch", "engine.evaluate_batch", None),
            (evaluator, "parallel_value_and_gradient",
             "engine.parallel_value_and_gradient", None),
            (evaluator.CoupledEvaluator, "value_and_gradient",
             "evaluator.value_and_gradient", None),
            (driver, "wolfe_line_search", "linesearch.wolfe", trials),
            (directions.LbfgsHistory, "direction", "directions.direction", None),
            (directions.LbfgsHistory, "update", "directions.update", bool),
            (objective, "value", "objective.value", None),
            (objective, "gradient", "objective.gradient", None),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
        saved.append((engine.WorkerPool, "run_batch", engine.WorkerPool.run_batch))
        try:
            for (owner, attr, name, note), (_, _, original) in zip(patches, saved):
                setattr(owner, attr, self.wrap(name, original, note))
            engine.WorkerPool.run_batch = self._wrap_run_batch(engine.WorkerPool.run_batch)
            yield self
        finally:
            for owner, attr, original in saved:
                if owner is objective:
                    delattr(owner, attr)   # back to the bound method
                else:
                    setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- analysis -----------------------------------------------------------------

def _credits(spans):
    """Wall time each span accounts for, in ns.

    A root accounts for its duration.  Within a parent, every instant that
    k children cover is shared 1/k by each, so concurrent objective calls
    split the time they overlap; a span's self time is its credit minus its
    children's, which is its duration minus the time its children cover.
    So the self times of a solve add up to the duration of its root span
    whenever its spans nest (`misplaced_spans`).
    """
    children = defaultdict(list)
    for span in spans:
        children[span[4]].append(span)
    credit = {}
    for parent, kids in children.items():
        if parent is None:
            for s in kids:
                credit[s[0]] = float(s[3] - s[2])
            continue
        if len(kids) == 1:
            credit[kids[0][0]] = float(kids[0][3] - kids[0][2])
            continue
        events = sorted([(s[2], 1, s[0]) for s in kids] + [(s[3], -1, s[0]) for s in kids])
        active = set()
        last = events[0][0]
        for t, kind, sid in events:
            if active and t > last:
                share = (t - last) / len(active)
                for a in active:
                    credit[a] = credit.get(a, 0.0) + share
            last = t
            if kind == 1:
                active.add(sid)
                credit.setdefault(sid, 0.0)
            else:
                active.discard(sid)
    return credit, children


def self_times(spans):
    """Span id -> self time in ns."""
    credit, children = _credits(spans)
    return {s[0]: credit[s[0]] - sum(credit[c[0]] for c in children.get(s[0], ()))
            for s in spans}


def percentile(values, q):
    """The q-th percentile, interpolating between samples; 0 for none."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def misplaced_spans(spans):
    """How many spans do not nest: a root that is not a solve, or a span
    whose parent is missing, belongs to another solve, or does not cover
    the span's interval.  Self times add up to a solve's wall time only
    when this is 0."""
    by_id = {s[0]: s for s in spans}
    bad = 0
    for s in spans:
        if s[4] is None:
            bad += s[1] != "driver.optimize"
            continue
        p = by_id.get(s[4])
        bad += p is None or p[5] != s[5] or s[2] < p[2] or s[3] > p[3]
    return bad


def layer_metrics(tracer: Tracer, workers: int, walls):
    """Per-layer metrics of a traced run, the per-solve self-time table, and
    the largest relative gap between a solve's summed self times and its
    wall time in seconds, `walls[solve_id]`, as timed outside the tracer."""
    spans = tracer.spans
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
    solves = by_name["driver.optimize"]
    n = max(len(solves), 1)

    def dur(s):
        return s[3] - s[2]

    def self_us(names):
        return sum(own[s[0]] for name in names for s in by_name[name]) / 1e3 / n

    def mean_us(names):
        picked = [dur(s) for name in names for s in by_name[name]]
        return sum(picked) / len(picked) / 1e3 if picked else 0.0

    layer_names = defaultdict(list)
    for name in by_name:
        layer_names[name.split(".")[0]].append(name)
    table = {layer: self_us(layer_names[layer]) for layer in LAYERS}

    summed = defaultdict(float)
    for s in spans:
        summed[s[5]] += own[s[0]]
    gap = max(abs(summed[k] / 1e9 - wall) / wall for k, wall in walls.items())

    tasks = defaultdict(list)
    for batch, start, end in tracer.tasks:
        tasks[batch].append((start, end))
    batches = by_name["engine.run_batch"]
    dispatch, straggler, waits = [], [], []
    for b in batches:
        durations = [end - start for start, end in tasks[b[0]]]
        waits.extend((start - b[2]) / 1e3 for start, _ in tasks[b[0]])
        dispatch.append((dur(b) - max(durations)) / 1e3)
        mean = sum(durations) / len(durations)
        straggler.append(max(durations) / mean if mean > 0 else 1.0)
    batch_us = [dur(b) / 1e3 for b in batches]

    builds = by_name["stencil.build"]
    requests = by_name["evaluator.value_and_gradient"]
    parents = {s[4] for s in spans}
    hits = sum(1 for s in requests if s[0] not in parents)
    searches = by_name["linesearch.wolfe"]
    search_trials = [tracer.notes[s[0]] for s in searches if s[0] in tracer.notes]
    updates = by_name["directions.update"]
    skipped = sum(1 for s in updates if tracer.notes.get(s[0]) is False)
    calls = by_name["objective.value"] + by_name["objective.gradient"]
    call_ns = sum(dur(s) for s in calls)
    solve_ns = sum(dur(s) for s in solves)

    metrics = {
        "stencil.build_us": (mean_us(["stencil.build"]), "us"),
        "stencil.assemble_us": (mean_us(["stencil.assemble"]), "us"),
        "stencil.points_per_batch": (
            sum(tracer.notes[s[0]] for s in builds) / len(builds) if builds else 0.0,
            "count"),
        "engine.run_batch_us_p50": (percentile(batch_us, 50), "us"),
        "engine.run_batch_us_p99": (percentile(batch_us, 99), "us"),
        "engine.dispatch_us": (percentile(dispatch, 50), "us"),
        "engine.queue_wait_us": (percentile(waits, 50), "us"),
        "engine.straggler_ratio": (
            sum(straggler) / len(straggler) if straggler else 1.0, "ratio"),
        "engine.batches_per_solve": (len(batches) / n, "count"),
        "evaluator.requests_per_solve": (len(requests) / n, "count"),
        "evaluator.cache_hit_ratio": (hits / len(requests) if requests else 0.0, "ratio"),
        "linesearch.iters_per_solve": (len(searches) / n, "count"),
        "linesearch.trials_per_iter": (
            sum(search_trials) / len(search_trials) if search_trials else 0.0, "count"),
        "directions.us_per_call": (
            mean_us(["directions.direction", "directions.update"]), "us"),
        "directions.pairs_skipped": (skipped / n, "count"),
        "objective.calls_per_solve": (len(calls) / n, "count"),
        "objective.ms_per_call": (call_ns / len(calls) / 1e6 if calls else 0.0, "ms"),
        "objective.busy_frac": (call_ns / (solve_ns * workers) if solve_ns else 0.0, "frac"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_us"] = (table[layer], "us")
    return metrics, table, gap
