"""End-to-end command-line checks, run in process through main()."""

import json
import math

import pytest

from paropt import BenchConfig, OptimOptions, cli, get_problem, optimize
from paropt.cli import build_parser, main
from paropt.iterlog import IterationLog


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv + ["--json"], capsys)
    return code, json.loads(out), err


def test_problems_listing(capsys):
    code, out, _ = run_cli(["problems"], capsys)
    assert code == 0
    for name in ("quadratic", "rosenbrock", "normal_negll", "sleep"):
        assert name in out


def test_optimize_quadratic_report(capsys):
    code, out, _ = run_cli(["optimize", "--problem", "quadratic",
                            "--par0", "0.5,-0.25"], capsys)
    assert code == 0
    assert "convergence: 0" in out
    assert "message: " in out
    assert "elapsed: " in out


def test_optimize_json_rosenbrock(capsys):
    code, doc, _ = run_json(["optimize", "--problem", "rosenbrock"], capsys)
    assert code == 0
    assert set(doc) == {"par", "value", "convergence", "message",
                        "fn_calls", "gr_calls", "batches", "elapsed_s"}
    assert doc["convergence"] == 0
    assert abs(doc["par"][0] - 1.0) < 1e-4
    assert abs(doc["par"][1] - 1.0) < 1e-4


def test_worker_count_does_not_change_json(capsys):
    base = ["optimize", "--problem", "quadratic", "--par0", "0.7,-0.3,0.9",
            "--scheme", "central"]
    code1, doc1, _ = run_json(base + ["--workers", "1"], capsys)
    code3, doc3, _ = run_json(base + ["--workers", "3"], capsys)
    assert code1 == code3 == 0
    doc1.pop("elapsed_s")
    doc3.pop("elapsed_s")
    assert doc1 == doc3


def test_scheme_flag_switches_to_differences(capsys):
    code, doc, _ = run_json(["optimize", "--problem", "quadratic",
                             "--par0", "0.7,-0.3", "--scheme", "central"], capsys)
    assert code == 0
    assert doc["gr_calls"] == 0
    assert doc["fn_calls"] == 5 * doc["batches"]  # 1 + 2p points per batch


def test_negll_generates_default_dataset(capsys):
    code, doc, err = run_json(["optimize", "--problem", "normal_negll"], capsys)
    assert code == 0
    assert "generated dataset" in err
    assert doc["convergence"] == 0


def test_negll_with_dataset_file(tmp_path, capsys):
    path = tmp_path / "sample.txt"
    path.write_text("1\n2\n3\n4\n")
    code, doc, err = run_json(["optimize", "--problem", "normal_negll",
                               "--data", str(path)], capsys)
    assert code == 0
    assert "note:" not in err
    assert abs(doc["par"][0] - 2.5) < 1e-4
    assert abs(doc["par"][1] - math.sqrt(1.25)) < 1e-4


def test_dataset_on_a_closed_form_problem_is_refused(tmp_path, capsys):
    path = tmp_path / "sample.txt"
    path.write_text("1\n2\n3\n4\n")
    code, _, err = run_cli(["optimize", "--problem", "rosenbrock",
                            "--data", str(path)], capsys)
    assert code == 2
    assert "takes no dataset" in err


def test_log_out_round_trips(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    code, _, _ = run_cli(["optimize", "--problem", "quadratic",
                          "--par0", "2,3", "--log-out", str(path)], capsys)
    assert code == 0
    log = IterationLog.from_csv(path.read_text())
    assert log.rows[0].par.tolist() == [2.0, 3.0]
    assert len(log.rows) >= 2


@pytest.mark.parametrize("argv", [
    ["optimize", "--problem", "nosuch"],
    ["optimize"],
    ["optimize", "--problem", "quadratic", "--par0", "1,x"],
    ["optimize", "--problem", "quadratic", "--par0", "1,1", "--data", "x.txt"],
    ["optimize", "--problem", "normal_negll", "--data", "/nonexistent/d.txt"],
    ["optimize", "--problem", "quadratic", "--maxit", "0"],
    ["nosuchcommand"],
    ["optimize", "--problem", "quadratic", "--frobnicate"],
    ["bench", "--modes", "warpspeed", "--dims", "1", "--sleeps", "0"],
    ["optimize", "--problem", "quadratic", "--loginfo"],
    ["optimize", "--problem", "quadratic", "--workers", "0"],
    ["gradcheck", "--problem", "quadratic", "--seed", "-1"],
], ids=["unknown-problem", "missing-problem", "bad-par0", "data-on-closed-form",
        "missing-data-file", "zero-maxit", "unknown-command", "unknown-flag",
        "bad-bench-mode", "removed-loginfo", "zero-workers", "negative-seed"])
def test_usage_errors_exit_2(argv, capsys):
    code, _, _ = run_cli(argv, capsys)
    assert code == 2


def test_parser_defaults_are_the_dataclass_defaults(monkeypatch, capsys):
    parser = build_parser()
    opt = parser.parse_args(["optimize", "--problem", "quadratic"])
    assert (opt.maxit, opt.eps, opt.workers) == (OptimOptions.maxit, OptimOptions.eps, 1)
    ben = parser.parse_args(["bench"])
    assert (tuple(ben.dims), tuple(ben.sleeps), tuple(ben.modes), ben.reps,
            ben.iters, ben.workers) == (BenchConfig.dims, BenchConfig.sleeps,
                                        BenchConfig.modes, BenchConfig.repetitions,
                                        BenchConfig.iterations, BenchConfig.workers)

    # without flags, the bench command runs the default grid
    configs = []
    monkeypatch.setattr(cli, "run_benchmark",
                        lambda config, progress: configs.append(config) or [])
    code, _, _ = run_cli(["bench"], capsys)
    assert code == 0
    assert configs == [BenchConfig()]


def test_iteration_limit_exits_1(capsys):
    code, out, _ = run_cli(["optimize", "--problem", "rosenbrock",
                            "--maxit", "1"], capsys)
    assert code == 1
    assert "convergence: 1" in out


def test_evaluation_error_exits_1(capsys):
    # sigma = 0 makes the normal negative log-likelihood infinite
    code, out, err = run_cli(["optimize", "--problem", "normal_negll",
                              "--method", "bfgs", "--par0", "1,0"], capsys)
    assert code == 1
    assert out == ""
    assert err.endswith("\nerror: objective returned non-finite value inf at [1. 0.]\n")


def test_gradcheck_all_problems(capsys):
    code, out, _ = run_cli(["gradcheck"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    for line in lines:
        assert ": ok" in line


def test_gradcheck_single_problem(capsys):
    code, out, _ = run_cli(["gradcheck", "--problem", "quadratic",
                            "--points", "4"], capsys)
    assert code == 0
    assert out.startswith("quadratic: ok")
    assert "over 4 points" in out


def test_bench_csv_to_stdout(capsys):
    code, out, err = run_cli(["bench", "--dims", "1", "--sleeps", "0",
                              "--modes", "serial_analytic",
                              "--reps", "1", "--iters", "2"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == "mode,p,sleep,rep,elapsed_per_iter,batches,fn_calls"
    assert lines[1].startswith("serial_analytic,1,0,1,")
    assert "bench serial_analytic" in err


def test_bench_out_file(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    code, out, err = run_cli(["bench", "--dims", "1", "--sleeps", "0",
                              "--modes", "serial_analytic",
                              "--reps", "1", "--iters", "2",
                              "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert "wrote 1 rows" in err
    assert path.read_text().startswith("mode,p,sleep,rep,")


def test_eps_flag_matches_the_library_call(capsys):
    code, doc, _ = run_json(["optimize", "--problem", "quadratic", "--par0", "0.7,-0.3",
                             "--scheme", "central", "--eps", "1e-5"], capsys)
    r = optimize(get_problem("quadratic").objective, [0.7, -0.3], scheme="central",
                 eps=1e-5)
    assert code == r.code
    assert doc["par"] == [float(v) for v in r.par]
    assert doc["value"] == r.value
    assert (doc["fn_calls"], doc["gr_calls"], doc["batches"]) == (
        r.counts.fn_calls, r.counts.gr_calls, r.counts.batches)


def test_per_coordinate_eps_flag(capsys):
    argv = ["optimize", "--problem", "quadratic", "--par0", "0.7,-0.3",
            "--scheme", "forward", "--eps", "1e-5,1e-4"]
    code, doc, _ = run_json(argv, capsys)
    r = optimize(get_problem("quadratic").objective, [0.7, -0.3], scheme="forward",
                 eps=[1e-5, 1e-4])
    assert code == 0
    assert doc["par"] == [float(v) for v in r.par]
    assert doc["fn_calls"] == r.counts.fn_calls
    # a forward quotient puts the minimum of x^2 at -h/2 in each coordinate
    assert doc["par"] == pytest.approx([-5e-6, -5e-5], rel=1e-3)


def test_eps_flag_longer_than_the_problem_exits_2(capsys):
    code, _, err = run_cli(["optimize", "--problem", "quadratic", "--par0", "0.7,-0.3",
                            "--scheme", "central", "--eps", "1e-5,1e-5,1e-5"], capsys)
    assert code == 2
    assert "eps" in err
