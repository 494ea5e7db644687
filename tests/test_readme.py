"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
