"""The README's examples run as shown: the library sketch yields the values
its comments state, and every command of the "Command line" block exits 0
with the output lines printed under it."""
import ast
import contextlib
import io
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from cantorperm.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(after: str, fence: str = "```") -> str:
    """The first fenced block following the line ``after``."""
    start = README.index(fence, README.index(after + "\n")) + len(fence)
    return README[README.index("\n", start) + 1:README.index("```", start)]


SKETCH = _block("## Library sketch", "```python")
CLI_BLOCK = _block("## Command line")
# each command line with the output lines printed under it, if any
COMMANDS = re.findall(r"^(cantorperm .*)\n((?:# .*\n)*)", CLI_BLOCK, re.M)


def test_library_sketch_states_its_values():
    module = ast.parse(SKETCH)
    namespace, values = {}, []
    for stmt in module.body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    value, prefix, intervals, proved = values
    assert value == Fraction(1, 6)
    # the comment line under the orbit_prefix call, as a Python literal
    stated = re.search(r"^# (\[\(0, .*\])$", SKETCH, re.M).group(1)
    assert prefix == ast.literal_eval(stated) == [
        (0, (0, 0, 0)), (21, (1, 1, 1)), (12, (0, 2, 2)), (18, (1, 0, 3)),
    ]
    assert [count for _, _, count in intervals] == [10] * 6
    assert proved is True


def test_every_command_line_is_checked():
    lines = CLI_BLOCK.splitlines()
    assert len(COMMANDS) == sum(ln.startswith("cantorperm ") for ln in lines) > 0
    assert any(shown for _, shown in COMMANDS)


@pytest.mark.parametrize("line, shown", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_command_line_examples_run_as_shown(line, shown):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(shlex.split(line)[1:]) == 0
    lines = out.getvalue().splitlines()
    if lines and lines[0].startswith("# cantorperm "):
        lines = lines[1:]
    if shown:
        assert lines == [ln[2:] for ln in shown.splitlines()]
