"""Byte-for-byte golden outputs of the command line.

Each case runs ``main(argv)`` and compares stdout with ``tests/golden/<name>``.
The files were written from the engine before its laws were consolidated, so
any change in what a command prints shows up here.  To regenerate them after
an intended output change, run ``PYTHONPATH=src python3 tests/test_golden.py``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crossed_commutant.cli import main
from crossed_commutant.fixtures import builtin_names

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for name in builtin_names():
        cases[f"report-{name}.json"] = ["report", "--builtin", name, "--json"]
        cases[f"report-{name}-window8.txt"] = ["report", "--builtin", name, "--window", "8"]
        cases[f"validate-{name}.txt"] = ["validate", "--builtin", name]
    cases["cases.json"] = ["cases", "--json"]
    for points in (1, 2, 3):
        cases[f"atlas-points{points}.json"] = ["atlas", "--points", str(points), "--json"]
    cases["atlas-points2-base3.txt"] = ["atlas", "--points", "2", "--base-n", "3"]
    for seed in (0, 7, 1105):
        cases[f"selftest-seed{seed}.txt"] = [
            "selftest", "--seed", str(seed), "--iterations", "60",
        ]
    return cases


CASES = _cases()


def _stdout(capsys, argv: list[str]) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"{argv} exited {code}"
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("CROSSED_COMMUTANT_SEED", raising=False)
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert _stdout(capsys, CASES[name]) == expected


def _cli_subprocess(argv: list[str], *python_flags: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "CROSSED_COMMUTANT_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "crossed_commutant.cli", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


def _assert_same_under_python_O(argv: list[str]) -> None:
    plain = _cli_subprocess(argv)
    optimized = _cli_subprocess(argv, "-O")
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout


def test_selftest_output_is_the_same_under_python_O():
    _assert_same_under_python_O(["selftest", "--seed", "7", "--iterations", "30"])


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--builtin", "two-intervals-crossed", "--window", "8"],  # one product
        ["report", "--builtin", "two-intervals-identity"],  # graded, no product
        ["atlas", "--points", "3", "--json"],  # the census of a whole atlas
    ],
    ids=["not-graded", "graded", "atlas"],
)
def test_grading_output_is_the_same_under_python_O(argv):
    _assert_same_under_python_O(argv)


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    os.environ.pop("CROSSED_COMMUTANT_SEED", None)
    for name, argv in CASES.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(list(argv))
        if code != 0:
            raise SystemExit(f"{argv} exited {code}")
        (GOLDEN / name).write_text(buffer.getvalue(), encoding="utf-8")
    print(f"wrote {len(CASES)} golden files to {GOLDEN}")
