"""The README's examples run as written, its configuration reference lists
every field at its default, and its declared-records table every bounded field."""

import pathlib
import re
import shlex
from dataclasses import fields

import yaml

from drlearn import cli
from drlearn.config import RunConfig, parse_config
from drlearn.records import Bounded

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(heading: str, language: str = "python") -> list[str]:
    """Every fenced block in language under a second-level heading, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert blocks, f"no {language} block under '## {heading}'"
    return blocks


def readme_block(heading: str, language: str = "python") -> str:
    """The first fenced block in language under a second-level heading."""
    return readme_blocks(heading, language)[0]


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


def test_later_library_use_blocks_run(tmp_path, monkeypatch, capsys):
    # each block after the first runs in a namespace of its own, as written
    monkeypatch.chdir(tmp_path)
    later = readme_blocks("Library use")[1:]
    assert later, "one python block under '## Library use', the kernel example is missing"
    for block in later:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_configuration_reference_is_the_defaults_and_names_every_field():
    document = yaml.safe_load(readme_block("Configuration reference", "yaml"))
    assert parse_config(document) == RunConfig()
    for section in fields(RunConfig):
        block = getattr(RunConfig(), section.name)
        assert set(document[section.name]) == {f.name for f in fields(block)}, section.name


def test_quick_start_steps_run(tmp_path, monkeypatch):
    # The block's last step, the default benchmark, is run by test_acceptance.py.
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line)
        for line in readme_block("Quick start", "sh").splitlines()
        if line.startswith("drlearn ")
    ]
    steps = [argv for argv in commands if argv[1] in ("simulate", "train", "eval")]
    assert [argv[1] for argv in steps] == ["simulate", "train", "eval"]
    for argv in steps:
        assert cli.main(argv[1:]) == 0, argv
        out = argv[argv.index("--out") + 1]
        assert (tmp_path / out).stat().st_size > 0, out


def declared_rows() -> set[tuple[str, str]]:
    """(record, field) of each field the "Declared records" table lists."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Declared records\n", 1)[1].split("\n#", 1)[0]
    rows, record = set(), None
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("| ") or len(cells) != 3 or cells[0].startswith("record"):
            continue
        record = cells[0] or record
        for name in re.findall(r"`([^`]+)`", record):
            rows.update((name, f) for f in re.findall(r"`([^`]+)`", cells[1]))
    return rows


def bounded_subclasses(cls) -> list:
    return [c for sub in cls.__subclasses__() for c in (sub, *bounded_subclasses(sub))]


def test_declared_records_table_lists_every_bounded_field():
    # the config blocks, and TrainConfig under TrainingBlock, are the configuration reference
    blocks = [type(getattr(RunConfig(), section.name)) for section in fields(RunConfig)]
    records = [c for c in bounded_subclasses(Bounded) if c.__module__.startswith("drlearn.")
               and not any(issubclass(block, c) for block in blocks)]
    assert {c.__name__ for c in records} >= {"StateConfig", "Scaler", "EucParams", "LoadProfile"}
    rows = declared_rows()
    for record in records:
        name = f"{record.__module__.removeprefix('drlearn.')}.{record.__name__}"
        for f in fields(record):
            if f.metadata:
                assert (name, f.name) in rows, (name, f.name)
