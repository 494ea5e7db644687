"""The README's library example runs and prints what its comments say, its
minimal config builds, and its CLI section names every run field."""

import contextlib
import io
import json
import re
from pathlib import Path

import entfate as ef

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_example_prints_its_comments():
    code = python_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed == ["2", "asymptotic_death None", "True"]
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    comments = [line.split("#", 1)[1].strip() for line in prints]
    assert len(comments) == len(printed)
    for comment, value in zip(comments, printed):
        assert comment.startswith(value), (comment, value)


def test_readme_minimal_config_builds():
    from entfate.cli import build_ensemble, build_generator, resolve_config

    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    resolved = resolve_config(json.loads(blocks[0]), None)
    assert build_generator(resolved).autonomous
    assert build_ensemble(resolved) == ef.EnsembleSpec(
        "fixed_concurrence_pure", seed=7, target_concurrence=0.6
    )


def test_readme_names_every_run_field():
    # the README's run table: one row per field of the schema, with its default
    from entfate.cli import SCHEMA

    rows = re.findall(r"^\| `(\w+)` \| (\S+) \|", README.read_text(), flags=re.M)
    readme = {key: None if default == "unset" else float(default) for key, default in rows}
    assert readme == {key: default for key, (default, _) in SCHEMA["run"].items()}
