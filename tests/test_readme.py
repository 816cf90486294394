"""The examples in README.md run and print what README shows."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

from stablyfree.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_its_comments():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = [line.split("#", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["a4", "obstructed"]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def _cli_examples() -> list[tuple[list[str], list[str]]]:
    """Each `$ stablyfree ...` line of the command-line block, with the
    output lines shown under it."""
    block = README.read_text().split("## Command line", 1)[1]
    text = re.search(r"```\n(.*?)```", block, re.S).group(1)
    examples = []
    for line in text.splitlines():
        if line.startswith("$ stablyfree "):
            examples.append((shlex.split(line)[2:], []))
        elif line and not line.startswith("#") and examples:
            examples[-1][1].append(line)
    return examples


def test_readme_command_line_examples_print_what_is_shown():
    # a "..." line elides the head of the output: the lines after it end it
    examples = _cli_examples()
    assert len(examples) == 6
    shown = 0
    for argv, lines in examples:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        assert code in (0, 1), argv
        got = out.getvalue().splitlines()
        if "..." in lines:
            lines = lines[lines.index("...") + 1:]
            got = got[len(got) - len(lines):]
        if lines:
            shown += 1
            assert got == lines, argv
    assert shown == 5
