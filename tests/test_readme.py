"""The README's examples run and print what it says they print."""
import contextlib
import io
import re
from pathlib import Path

from crossed_commutant.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _fence_after(marker: str) -> str:
    """The body of the first fenced block after ``marker`` in the README."""
    start = README.index(marker)
    return re.compile(r"```\w*\n(.*?)```", re.DOTALL).search(README, start).group(1)


def test_readme_examples_print_what_they_say():
    code = _fence_after("## Quick start")
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)
    commented = [(line.split("# ", 1)[1], got) for line, got in zip(prints, printed) if "# " in line]
    assert commented and all(want == got for want, got in commented), commented

    sample = _fence_after("Sample lines from `report --builtin two-intervals-crossed`:")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["report", "--builtin", "two-intervals-crossed"]) == 0
    shown = [line for line in sample.splitlines() if line != "..."]
    assert shown and set(shown) <= set(out.getvalue().splitlines())
