"""README's "Library quick tour" runs as shown: every statement executes,
and each expression with a commented result evaluates to that result.
Each command of its CLI block whose comment shows the whole output
prints that output.
"""

import ast
import pathlib
import re
import shlex

from hobind.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# a commented result: a Python literal, then an optional ":" and prose
RESULT = re.compile(r"#\s*('(?:[^'\\]|\\.)*'|True|False)(?::.*)?$")


def quick_tour() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block in the quick tour"
    return block.group(1).splitlines()


def test_quick_tour_results():
    namespace: dict = {}
    checked = []
    for line in quick_tour():
        code, sep, comment = line.partition("#")
        if not code.strip():
            continue
        match = RESULT.match(sep + comment)
        if match is None:
            exec(code, namespace)
            continue
        want = ast.literal_eval(match.group(1))
        got = eval(code, namespace)
        assert got == want and type(got) is type(want), (line, got)
        checked.append(want)
    assert checked == [
        "LAM x1. LAM x2. x1 $$ x2",
        "(ABS (ABS (APP (BND 1) (BND 0))))",
        True,
        False,
        True,
    ]


def cli_examples() -> list[tuple[str, str]]:
    """Each ``hobind`` line of README's CLI block and the comment under it."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S)
    assert block, "no sh block in the CLI section"
    lines = block.group(1).splitlines()
    return [(line, lines[k + 1].removeprefix("# "))
            for k, line in enumerate(lines) if line.startswith("hobind ")]


def test_cli_examples_print_what_they_show(capsys):
    checked = []
    for line, shown in cli_examples():
        if "..." in shown:  # an excerpt of the output, not all of it
            continue
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        assert capsys.readouterr().out == shown + "\n", line
        checked.append(argv[0])
    assert checked == ["encode", "decode", "show", "check-abstr"]
