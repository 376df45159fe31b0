"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, layer_metrics, misplaced_spans, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(tmp_path, workload, *extra, seed=1, trace=0, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
           "--out", str(tmp_path), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_its_unit(tmp_path, workload, trace):
    proc = run(tmp_path, workload, trace=trace)
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    text = proc.stdout.splitlines()[:-1]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in text), m["name"]
    assert any(line.split()[:1] == ["fail_frac"] for line in text)
    assert text[0].startswith("machine ")
    assert "nproc" in json.loads(text[0].split(" ", 1)[1])
    if trace:
        detail = json.loads((tmp_path / f"result-{workload}-trace1.json").read_text())
        assert detail["traced_solves"] and detail["machine"]
        assert (tmp_path / f"spans-{workload}.jsonl").stat().st_size > 0
        stencil_points = result["metrics"]["stencil.points_per_batch"]["value"]
        assert (stencil_points == 0) == WORKLOADS[workload].analytic


def test_same_seed_same_counts_other_seed_other_starts(tmp_path):
    w = WORKLOADS["fd-cheap"]
    assert all(np.array_equal(a, b) for a, b in zip(w.start_points(3), w.start_points(3)))
    assert not any(np.array_equal(a, b) for a, b in zip(w.start_points(3), w.start_points(4)))

    def counts(seed):
        last_json(run(tmp_path, "fd-cheap", seed=seed))
        detail = json.loads((tmp_path / "result-fd-cheap-trace0.json").read_text())
        return {s["start"]: s["counts"] for s in detail["solves"]}

    first = counts(3)
    assert counts(3) == first
    assert counts(4) != first


def test_nan_from_the_objective_is_a_counted_failure(tmp_path):
    result = last_json(run(tmp_path, "fd-cheap", "--inject-nan", "30"))
    assert result["correct"] is False
    assert result["failed"] >= 1
    detail = json.loads((tmp_path / "result-fd-cheap-trace0.json").read_text())
    assert detail["fail_frac"] == result["failed"] / result["attempted"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path / "out", "fd-cheap", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_times_add_up_with_concurrent_children():
    spans = [
        (1, "driver.optimize", 0, 100, None, 0),
        (2, "engine.run_batch", 10, 50, 1, 0),
        (3, "objective.value", 20, 40, 2, 0),
        (4, "objective.value", 30, 50, 2, 0),
    ]
    own = self_times(spans)
    # run_batch loses the 30 its two calls cover; they share the 10 they overlap
    assert own == {1: 60.0, 2: 10.0, 3: 15.0, 4: 15.0}
    assert sum(own.values()) == 100.0
    assert misplaced_spans(spans) == 0


def test_spans_that_do_not_nest_are_caught():
    spans = [
        (1, "driver.optimize", 0, 100, None, 0),
        (2, "driver.optimize", 200, 300, None, 1),
        (3, "engine.run_batch", 90, 110, 1, 0),       # ends after its parent
        (4, "objective.value", 210, 220, 1, 1),       # parent in another solve
        (5, "objective.value", 230, 240, 9, 1),       # parent never recorded
        (6, "stencil.build", 250, 260, None, 1),      # root that is not a solve
        (7, "objective.value", 20, 30, 1, 0),
    ]
    assert misplaced_spans(spans) == 4


def test_self_time_gap_is_against_the_wall_timed_outside():
    tracer = Tracer()
    tracer.spans = [
        (1, "driver.optimize", 0, 10**8, None, 0),
        (2, "objective.value", 10, 20, 1, 0),
        (3, "driver.optimize", 2 * 10**8, 3 * 10**8, None, 1),
    ]
    *_, gap = layer_metrics(tracer, 1, {0: 0.1, 1: 0.1})
    assert gap == 0.0
    # a root span that misses a fifth of its solve's wall, and a solve with no spans
    *_, gap = layer_metrics(tracer, 1, {0: 0.1, 1: 0.125})
    assert gap == pytest.approx(0.2)
    *_, gap = layer_metrics(tracer, 1, {0: 0.1, 1: 0.1, 2: 0.1})
    assert gap == 1.0
