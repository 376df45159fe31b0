"""The bitwise corpus tool's command line."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bitwise_corpus.py"
# the tool's docstring gives the command that rewrites this file
GOLDEN = Path(__file__).resolve().parent / "corpus_every_8th.jsonl"


def load_tool():
    spec = importlib.util.spec_from_file_location("bitwise_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("value", ["0", "-1", "x"])
@pytest.mark.parametrize("flag", ["--workers", "--callers", "--every"])
def test_bad_count_exits_2_and_leaves_out_untouched(tmp_path, capsys, flag, value):
    out = tmp_path / "digests.jsonl"
    out.write_text('{"kept": true}\n', encoding="utf-8")
    with pytest.raises(SystemExit) as exit_:
        load_tool().main(["run", str(out), flag, value])
    assert exit_.value.code == 2
    assert out.read_text(encoding="utf-8") == '{"kept": true}\n'
    assert f"argument {flag}" in capsys.readouterr().err


def write_digests(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def solve(group, key, code, batches):
    return {"group": group, "key": key, "par": "00", "value": "0.0", "code": code,
            "message": "m", "counts": [1, 0, batches], "log": "h"}


def test_compare_lists_changes_and_summarizes_each_group(tmp_path, capsys):
    before, after = tmp_path / "before.jsonl", tmp_path / "after.jsonl"
    raised = {"group": "negll", "key": "c", "raised": "ValueError: x"}
    write_digests(before, [solve("bench", "a", 0, 10), solve("bench", "b", 2, 20), raised])
    write_digests(after, [solve("bench", "a", 0, 10), solve("bench", "b", 0, 31), raised])
    assert load_tool().main(["compare", str(before), str(after)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "bench b: code 2 batches 20 value 0.0 'm' -> code 0 batches 31 value 0.0 'm'",
        "bench: 1 of 2 identical; batches per solve 15.00 -> 20.50; nonzero codes 1 -> 0",
        "negll: 1 of 1 identical; batches per solve nan -> nan; nonzero codes 0 -> 0",
    ]

    assert load_tool().main(["compare", str(before), str(before)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "bench: 2 of 2 identical; batches per solve 15.00 -> 15.00; nonzero codes 1 -> 1",
        "negll: 1 of 1 identical; batches per solve nan -> nan; nonzero codes 0 -> 0",
    ]


def test_every_8th_corpus_solve_keeps_its_golden_digest(tmp_path, capsys):
    # 200 solves from all five groups on 1 slot; worker-count independence
    # is left to the properties
    out = tmp_path / "digests.jsonl"
    tool = load_tool()
    assert tool.main(["run", str(out), "--every", "8"]) == 0
    changed = tool.main(["compare", str(GOLDEN), str(out)])
    assert not changed, capsys.readouterr().out
