"""The README's examples, run as written and compared with what it shows."""

import json
import re
import shlex
from pathlib import Path

import pytest

from qtreehahn.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced(heading: str, lang: str) -> list[str]:
    """The bodies of the ```lang blocks in the README section that opens
    with `heading`, up to the next heading."""
    section = README[README.index(heading):]
    following = re.search(r"^#{1,3} ", section[len(heading):], re.M)
    if following:
        section = section[: len(heading) + following.start()]
    return re.findall(rf"^```{lang}\n(.*?)^```", section, re.M | re.S)


def test_library_quick_start_prints_what_its_comments_say(capsys):
    (code,) = fenced("## Library quick start", "python")
    exec(code, {})
    assert capsys.readouterr().out == "0\n115/114\n"


@pytest.mark.parametrize("heading", ["### `qtree eval`", "### `qtree connect`"])
def test_cli_example_prints_the_json_shown(capsys, heading):
    """The first command of the section prints the section's (compacted)
    JSON block."""
    command = fenced(heading, "sh")[0].splitlines()[0]
    (shown,) = fenced(heading, "json")
    program, *argv = shlex.split(command)
    assert program == "qtree"
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(shown)
