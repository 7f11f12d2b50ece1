"""README's examples: every command of its command-line block exits 0, and
the Quick start gives the results its comments state."""

import re
import shlex
from pathlib import Path

import pytest

from frobsplit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


COMMANDS = [
    line.split("#")[0].strip()
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("frobsplit ")
]


def test_the_command_block_is_found():
    assert len(COMMANDS) == 11


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_exits_0(command, capsys):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out


def test_quick_start_gives_its_commented_results():
    (block,) = _blocks("python")
    namespace, results = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment and "=" not in code.replace("==", ""):
            results.append((str(eval(code, namespace)), comment.split()[0]))
        else:
            exec(line, namespace)
    assert results == [
        ("VerdictKind.SPLITTING", "VerdictKind.SPLITTING"),
        ("True", "True"),
        ("False", "False"),
    ]
