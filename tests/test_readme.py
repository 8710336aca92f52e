"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str) -> str:
    """The first fenced python block under a second-level heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no python block under '## {heading}'"
    return match.group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the block writes benchmark_out/ where it runs
    namespace: dict = {}
    exec(compile(readme_block("Library use"), str(README), "exec"), namespace)
    out = capsys.readouterr().out
    assert "recurrent families" in out
    assert (tmp_path / "benchmark_out" / "report.json").is_file()
    # the benchmark trains the same LSTM as the block's own train_model call
    assert namespace["saved"] == namespace["entry"].model
    assert namespace["yhat"] > 0
