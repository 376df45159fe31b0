"""The benchmark's tracer still finds every name it patches on the solve
path, so a call that bypasses one shows up in the fast suite and not only
in the benchmark's own, much slower tests."""

import sys
from pathlib import Path

import paropt

# read-only, as tools/bitwise_corpus.py imports the benchmark's workloads
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import tracing, workloads  # noqa: E402

# the package names perfbench/tracing.py wraps, by span name
PACKAGE_SPANS = {"stencil.build", "stencil.assemble", "engine.evaluate_batch",
                 "engine.parallel_value_and_gradient", "evaluator.value_and_gradient",
                 "linesearch.wolfe", "directions.direction", "directions.update",
                 "engine.run_batch"}
OBJECTIVE_SPANS = {"objective.value", "objective.gradient"}


def test_tracer_sees_every_traced_name_and_nests_its_spans():
    fd, analytic = workloads.WORKLOADS["fd-sleep"], workloads.WORKLOADS["analytic-sleep"]
    runs = [(fd, fd.start_points(1)[0]), (analytic, analytic.start_points(1)[0])]
    refs = [workloads.reference(paropt, w, x) for w, x in runs]
    tracer = tracing.Tracer()
    objective = workloads.Objective(0.0)
    with paropt.WorkerPool(3) as pool, tracer.install(objective):
        for i, (w, x) in enumerate(runs):
            with tracer.solve(i):
                result = workloads.solve(paropt, w, objective, x, pool)
            # tracing changes no bit of the path
            assert workloads.check(result, refs[i]) is None
    missing = PACKAGE_SPANS | OBJECTIVE_SPANS | {"driver.optimize"}
    assert not missing - {span[1] for span in tracer.spans}
    assert tracing.misplaced_spans(tracer.spans) == 0
