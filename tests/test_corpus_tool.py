"""The bitwise corpus tool's command line."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bitwise_corpus.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bitwise_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("value", ["0", "-1", "x"])
@pytest.mark.parametrize("flag", ["--workers", "--callers"])
def test_bad_count_exits_2_and_leaves_out_untouched(tmp_path, capsys, flag, value):
    out = tmp_path / "digests.jsonl"
    out.write_text('{"kept": true}\n', encoding="utf-8")
    with pytest.raises(SystemExit) as exit_:
        load_tool().main(["run", str(out), flag, value])
    assert exit_.value.code == 2
    assert out.read_text(encoding="utf-8") == '{"kept": true}\n'
    assert f"argument {flag}" in capsys.readouterr().err
