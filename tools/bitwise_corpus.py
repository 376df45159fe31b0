"""Per-solve digests of a fixed corpus, to check that a change leaves results
bitwise the same.

    PYTHONPATH=src python tools/bitwise_corpus.py run after.jsonl [--workers N] [--callers K] [--every E]
    python tools/bitwise_corpus.py compare before.jsonl after.jsonl

`run` solves the corpus with the paropt on the import path (point PYTHONPATH
at another checkout's `src` to digest that one), on one pool of N slots
(default 1) with no stall.  K threads (default 1) share that pool, each
taking the next unsolved entry of the corpus, so up to K solves run at once.
Results must depend on neither N nor K, so comparing a 1-worker file with
an N-worker or K-caller file checks that promise.  It writes one JSON line
per solve, in corpus order: par bytes, value, code, message, counts and a
hash of the log CSV, or the exception the solve raised.  With E > 1 it
solves only every E-th entry of the corpus, the first included; the tier-1
test pins `tests/corpus_every_8th.jsonl`, and a change meant to move paths
rewrites that file with

    PYTHONPATH=src python tools/bitwise_corpus.py run tests/corpus_every_8th.jsonl --every 8
`compare` prints each solve whose digest differs, with its code, batches,
value and message before and after, then per group the count of identical
solves and, before and after, the mean batches per solve and the number of
nonzero codes (a solve that raised counts in neither).
The groups: `bench`, the benchmark's start points (seeds 1-10); `rosen`,
chained Rosenbrock in 2, 3 and 10 dimensions from 20 starts, every method,
analytic, central `eps=1e-5`, central default-`eps` and forward `eps=1e-5`
gradients; `box`, 5 of those starts with `lbfgsb` in `x <= 0.8` and in
`x[0] <= 0.5`; `fixed`, the same 5 starts with `lbfgsb` and a box that fixes
`x[1]` at its start (`lower[1] == upper[1]`); `negll`, `normal_negll` from a
30-start grid, every method, analytic and central `eps=1e-5` gradients.
1600 solves in all.
"""

import argparse
import collections
import concurrent.futures
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import WORKLOADS, rosenbrock, rosenbrock_gradient  # noqa: E402

GRADIENTS = {"analytic": {}, "eps1e-5": {"eps": 1e-5}, "eps-default": {},
             "forward1e-5": {"scheme": "forward", "eps": 1e-5}}


def corpus():
    """(group, key, objective, gradient, start, options) for every solve."""
    from paropt import METHODS, gen_normal_dataset
    from paropt.problems import normal_negll_problem
    for name, seed in itertools.product(("fd-sleep", "analytic-sleep"), range(1, 11)):
        w = WORKLOADS[name]
        grad = rosenbrock_gradient if w.analytic else None
        for i, x in enumerate(w.start_points(seed)):
            yield "bench", f"{name}/{seed}/{i}", rosenbrock, grad, x, w.options()
    for dim in (2, 3, 10):
        base = np.where(np.arange(dim) % 2 == 0, -1.2, 1.0)  # the classic start
        rng = np.random.default_rng(dim)
        starts = [base] + [base + rng.uniform(-0.1, 0.1, dim) for _ in range(19)]
        for (kind, kw), (i, x) in itertools.product(GRADIENTS.items(), enumerate(starts)):
            grad = rosenbrock_gradient if kind == "analytic" else None
            for method in METHODS:
                yield ("rosen", f"{dim}/{kind}/{method}/{i}", rosenbrock, grad, x,
                       dict(kw, method=method, maxit=1000))
            if i >= 5:
                continue
            for box, upper in (("x<=0.8", np.full(dim, 0.8)),
                               ("x0<=0.5", np.r_[0.5, np.full(dim - 1, np.inf)])):
                yield ("box", f"{dim}/{kind}/{box}/{i}", rosenbrock, grad, x,
                       dict(kw, upper=upper, maxit=1000))
            held = np.arange(dim) == 1
            yield ("fixed", f"{dim}/{kind}/{i}", rosenbrock, grad, x,
                   dict(kw, lower=np.where(held, x[1], -np.inf),
                        upper=np.where(held, x[1], np.inf), maxit=1000))
    spec = normal_negll_problem(gen_normal_dataset(200, seed=1))
    for mu, sigma in itertools.product(np.linspace(-2, 8, 6), (1e-3, 1e-2, 0.1, 1.0, 5.0)):
        for kind, method in itertools.product(("analytic", "eps1e-5"), METHODS):
            grad = spec.gradient if kind == "analytic" else None
            yield ("negll", f"{mu:g},{sigma:g}/{kind}/{method}", spec.objective, grad,
                   np.array([mu, sigma]), dict(GRADIENTS[kind], method=method))


def digest(pool, objective, gradient, start, options) -> dict:
    import paropt
    try:
        r = paropt.optimize(objective, start, gradient, pool=pool, loginfo=True, **options)
    except Exception as exc:  # a raise is an outcome to compare, too
        return {"raised": f"{type(exc).__name__}: {exc}"}
    c = r.counts
    return {"par": r.par.tobytes().hex(), "value": repr(float(r.value)), "code": r.code,
            "message": r.message, "counts": [c.fn_calls, c.gr_calls, c.batches],
            "log": hashlib.sha256(r.log.to_csv().encode()).hexdigest()}


def outcome(d) -> str:
    d = d or {"raised": "missing"}
    return d.get("raised") or (f"code {d['code']} batches {d['counts'][2]} "
                               f"value {d['value']} {d['message']!r}")


def group_summary(digests, group) -> tuple:
    """(mean batches per solve, nonzero codes) over a group's finished solves."""
    done = [d for (g, _), d in digests.items() if g == group and "code" in d]
    mean = sum(d["counts"][2] for d in done) / len(done) if done else math.nan
    return mean, sum(d["code"] != 0 for d in done)


def at_least_one(text) -> int:
    """argparse type: an integer >= 1, so a bad count exits 2 before OUT opens."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", choices=("run", "compare"))
    parser.add_argument("files", nargs="+", help="run: OUT; compare: BEFORE AFTER")
    parser.add_argument("--workers", type=at_least_one, default=1,
                        help="run: pool slots (default 1)")
    parser.add_argument("--callers", type=at_least_one, default=1,
                        help="run: threads solving at once on the pool (default 1)")
    parser.add_argument("--every", type=at_least_one, default=1,
                        help="run: solve only every E-th corpus entry (default 1)")
    args = parser.parse_args(argv)
    if args.command == "run":
        import paropt
        solves = list(corpus())[::args.every]
        with open(args.files[0], "w", encoding="utf-8") as fh, \
                paropt.WorkerPool(args.workers) as pool, \
                concurrent.futures.ThreadPoolExecutor(args.callers) as callers:
            digests = callers.map(lambda solve: digest(pool, *solve[2:]), solves)
            for (group, key, *_), d in zip(solves, digests):
                fh.write(json.dumps({"group": group, "key": key, **d}) + "\n")
        return 0
    before, after = ({(d["group"], d["key"]): d
                      for d in map(json.loads, Path(p).read_text(encoding="utf-8").splitlines())}
                     for p in args.files[:2])
    totals, changed = collections.Counter(), collections.Counter()
    for k in sorted(before.keys() | after.keys()):
        totals[k[0]] += 1
        if before.get(k) != after.get(k):
            changed[k[0]] += 1
            print(f"{k[0]} {k[1]}: {outcome(before.get(k))} -> {outcome(after.get(k))}")
    for group, n in totals.items():
        (b_mean, b_bad), (a_mean, a_bad) = (group_summary(side, group)
                                            for side in (before, after))
        print(f"{group}: {n - changed[group]} of {n} identical; batches per solve "
              f"{b_mean:.2f} -> {a_mean:.2f}; nonzero codes {b_bad} -> {a_bad}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
