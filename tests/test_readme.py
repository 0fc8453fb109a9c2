"""README's "Library quick tour" runs as shown: every statement executes,
and each expression with a commented result evaluates to that result.
"""

import ast
import pathlib
import re

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
