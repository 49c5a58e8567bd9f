"""README examples stay runnable: the Library block and every command line."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from qccsim.cli import _join_negative_values, build_parser

README = (Path(__file__).parent.parent / "README.md").read_text()


def fenced_blocks(language: str, text: str = README) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


def library_block() -> str:
    section = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return fenced_blocks("python", section)[0]


def command_lines() -> list[list[str]]:
    """Each ``qccsim ...`` example as an argv, continuation lines joined, comments dropped."""
    lines = []
    for block in fenced_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["qccsim"] and "<scenario>" not in words:
                lines.append(words[1:])
    return lines


def test_library_block_runs_and_its_comments_hold():
    code = library_block()
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    source = code.splitlines()
    checked = 0
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            # "expr  # value: prose": the expression evaluates to the literal value.
            comment = source[stmt.lineno - 1].split("#", 1)[1]
            expected = ast.literal_eval(comment.split(":", 1)[0].strip())
            assert eval(ast.unparse(stmt.value), namespace) == expected, source[stmt.lineno - 1]
            checked += 1
    assert checked >= 5


COMMANDS = command_lines()


def test_readme_has_command_examples():
    assert len(COMMANDS) >= 7


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_example_parses(argv):
    args = build_parser().parse_args(_join_negative_values(argv))
    assert args.scenario == argv[0]
