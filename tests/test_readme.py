"""The README's Python examples run as written, and its `.cp` examples and
the `lang` module docstring's parse and expand, so they cannot drift from
the library they document."""

import re
from pathlib import Path

import pytest

from vasskit import lang
from vasskit.expansion import expand
from vasskit.lang import parse

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
CP_BLOCKS = re.findall(r"^```cp\n(.*?)^```$", TEXT, re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_cp_examples():
    assert CP_BLOCKS


@pytest.mark.parametrize("index", range(len(CP_BLOCKS)))
def test_readme_cp_block_expands(index):
    assert expand(parse(CP_BLOCKS[index])).lines


def test_lang_docstring_example_expands():
    example = lang.__doc__.split("one command per line:\n\n", 1)[1].split("\n\n", 1)[0]
    program = parse(example)
    assert program.counters == ("x", "y", "z")
    assert expand(program).halt is not None
