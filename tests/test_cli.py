"""The command line front end, driven through main(argv)."""
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crossed_commutant.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin_ok(capsys):
    code, out, err = run(capsys, "validate", "--builtin", "two-intervals-crossed")
    assert code == 0
    assert "valid" in out
    assert err == ""


def test_validate_kind_violation_exits_one(capsys, tmp_path):
    doc = {"type": "real_line", "jump_points": ["0"], "perm": [2, 1, 0]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "[kind-preservation]" in out
    assert "I_0" in out


def test_validate_inconsistent_lift_exits_one(capsys, tmp_path):
    doc = {
        "type": "real_line",
        "jump_points": [],
        "additions": {"0": ["0", "1"]},
        "base_perm": [0],
        "refined_perm": [2, 0, 1, 3, 4],
    }
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0  # a 3-cycle of subintervals over the identity is consistent

    doc["refined_perm"] = [2, 0, 1, 3, 4]
    doc["jump_points"] = ["0"]
    doc["additions"] = {"0": ["-1"]}
    doc["base_perm"] = [1, 0, 2]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "[lift-consistency]" in out


def test_missing_file_exits_two(capsys):
    code, out, err = run(capsys, "validate", "/nonexistent/file.json")
    assert code == 2
    assert "input error" in err


def test_unknown_builtin_exits_two(capsys):
    code, out, err = run(capsys, "report", "--builtin", "nope")
    assert code == 2
    assert "unknown case" in err


def test_requires_exactly_one_source(capsys):
    code, out, err = run(capsys, "validate")
    assert code == 2
    code, out, err = run(
        capsys, "validate", "somefile.json", "--builtin", "one-interval-swap"
    )
    assert code == 2


def test_report_json_structure(capsys):
    code, out, err = run(
        capsys, "report", "--builtin", "two-intervals-crossed", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == {
        "1": [5], "2": [4, 6], "4": [0, 1, 2, 3],
    }
    assert payload["tilde_classes"]["2,2"] == [0, 1, 2, 3]
    assert payload["sep"]["2"] == [0, 1, 2, 3]
    assert payload["sep"]["-2"] == [0, 1, 2, 3]
    assert payload["difference"]["forbidden"]["2"] == [0, 1, 2, 3]
    assert payload["grading"]["strongly_graded"] is False
    assert payload["grading"]["witness"] == [1, 1]
    assert payload["labels"][0] == "I_0^1"


def test_report_round_trips_through_its_own_instance(capsys, tmp_path):
    code, first, _ = run(
        capsys, "report", "--builtin", "one-interval-3cycle-pointswap", "--json"
    )
    assert code == 0
    payload = json.loads(first)
    path = tmp_path / "again.json"
    path.write_text(json.dumps(payload["instance"]))
    code, second, _ = run(capsys, "report", str(path), "--json")
    assert code == 0
    assert json.loads(second) == payload


def test_report_window_flag_controls_tables(capsys):
    code, out, err = run(
        capsys, "report", "--builtin", "one-interval-swap", "--json", "--window", "2"
    )
    payload = json.loads(out)
    assert payload["window"] == 2
    assert sorted(int(n) for n in payload["sep"]) == [-2, -1, 0, 1, 2]


def test_report_text_mentions_grading_and_rule(capsys):
    code, out, err = run(capsys, "report", "--builtin", "two-intervals-crossed")
    assert code == 0
    assert "not strongly graded, witness (1, 1)" in out
    assert "period 4: I_0^1" in out
    assert "forbidden exactly when 2 | n and 4 does not divide n" in out


def test_report_identity_instance_all_allowed(capsys):
    code, out, err = run(capsys, "report", "--builtin", "one-interval-identity", "--json")
    payload = json.loads(out)
    assert payload["classes"] == {"1": [0, 1, 2, 3, 4]}
    assert all(v == [] for v in payload["sep"].values())
    assert payload["grading"]["strongly_graded"] is True
    assert payload["difference"]["active_classes"] == {}


def test_report_rejects_invalid_map(capsys, tmp_path):
    doc = {"type": "real_line", "jump_points": ["0"], "perm": [2, 1, 0]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "report", str(path))
    assert code == 1
    assert "[kind-preservation]" in err


def test_atlas_one_point(capsys):
    code, out, err = run(capsys, "atlas", "--points", "1")
    assert code == 0
    assert "2 distinct case(s)" in out


def test_atlas_two_points_json(capsys):
    code, out, err = run(capsys, "atlas", "--points", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == 2
    assert len(payload["cases"]) == 6
    assert sum(case["count"] for case in payload["cases"]) == 20


def test_atlas_scale_exceeded(capsys):
    code, out, err = run(capsys, "atlas", "--points", "2", "--base-n", "0")
    assert code == 2
    assert "input error" in err


def test_selftest_small_run(capsys):
    code, out, err = run(capsys, "selftest", "--seed", "5", "--iterations", "30")
    assert code == 0
    assert "sep formula = oracle: 30/30" in out
    assert "selftest: ok" in out


def test_selftest_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CROSSED_COMMUTANT_SEED", "42")
    code, out, err = run(capsys, "selftest", "--seed", "5", "--iterations", "10")
    assert code == 0
    assert "seed 42" in out


def test_cases_lists_builtins(capsys):
    code, out, err = run(capsys, "cases")
    assert code == 0
    for name in (
        "one-interval-identity",
        "two-intervals-crossed",
    ):
        assert name in out


def test_cases_json_documents_parse(capsys):
    code, out, err = run(capsys, "cases", "--json")
    payload = json.loads(out)
    assert len(payload) == 7
    assert payload["one-interval-swap"]["refined_perm"] == [1, 0, 2, 3, 4]


HUGE_WINDOW = "<a document with window 10^9>"
HUGE_WINDOW_DOC = {"type": "abstract", "pieces": 1, "perm": [0], "window": 1_000_000_000}


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["atlas"],
        ["atlas", "--points", "-1"],
        ["atlas", "--points", "two"],
        ["atlas", "--points", "2", "--base-n", "-1"],
        ["atlas", "--points", "2", "--base-n", "0"],
        ["atlas", "--points", "4"],
        ["atlas", "--points", "1", "--max-lifts", "0"],
        ["report", "--builtin", "one-interval-swap", "--window", "0"],
        ["report", "--builtin", "one-interval-swap", "--window", "x"],
        ["report", "--builtin", "one-interval-swap", "--window", "1000000000"],
        ["report", "--builtin", "one-interval-swap", "--window", "10001"],
        ["report", HUGE_WINDOW],
        ["report", "--builtin", "nope"],
        ["validate"],
        ["validate", "--builtin", "one-interval-swap", "--window", "-3"],
        ["selftest", "--seed", "x"],
        ["selftest", "--iterations", "1.5"],
        ["cases", "--bogus"],
        ["selftest", "--iterations", "0"],
        ["selftest", "--iterations", "-5"],
    ],
)
def test_bad_arguments_exit_two_without_traceback(capsys, tmp_path, argv):
    path = tmp_path / "huge-window.json"
    path.write_text(json.dumps(HUGE_WINDOW_DOC))
    argv = [str(path) if arg == HUGE_WINDOW else arg for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects while parsing
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.strip()


@pytest.mark.parametrize("exponent", ["999999999", "-999999999"])
@pytest.mark.parametrize("field", ["jump_points", "additions"])
def test_huge_decimal_exponent_exits_two_quickly(capsys, tmp_path, field, exponent):
    value = f"1e{exponent}"
    doc = {"type": "real_line", "jump_points": [value], "perm": [0, 1, 2]}
    if field == "additions":
        doc = {
            "type": "real_line",
            "jump_points": [],
            "additions": {"0": [value]},
            "base_perm": [0],
            "refined_perm": [0, 1, 2],
        }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"{field}" in err and "exponent" in err


def _cap_memory():
    limit = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _run_capped(*argv):
    """The CLI in a child process under a 10 s timeout and a 512 MB cap."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # a child that starts building or tabulating something huge fails on the
    # memory cap or the timeout instead of stalling the suite
    return subprocess.run(
        [sys.executable, "-m", "crossed_commutant.cli", *argv],
        capture_output=True, text=True, env=env, timeout=10, preexec_fn=_cap_memory,
    )


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "abstract", "pieces": 100_000_000, "perm": [0]},
        {
            "type": "abstract",
            "pieces": 2,
            "cells": {"0": 1_000_000_000},
            "base_perm": [0, 1],
            "refined_perm": [0, 1, 2],
        },
    ],
    ids=["pieces", "cells"],
)
@pytest.mark.parametrize("command", ["validate", "report"])
def test_huge_piece_counts_exit_two_before_building(tmp_path, command, doc):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc = _run_capped(command, str(path))
    assert proc.returncode == 2, proc.stderr
    assert "entries, got" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("source", ["document", "flag"])
def test_huge_window_exits_two_before_tabulating(tmp_path, source):
    path = tmp_path / "huge-window.json"
    if source == "document":
        path.write_text(json.dumps(HUGE_WINDOW_DOC))
        extra = []
    else:
        path.write_text(json.dumps({k: v for k, v in HUGE_WINDOW_DOC.items() if k != "window"}))
        extra = ["--window", "1000000000"]
    proc = _run_capped("report", str(path), *extra)
    assert proc.returncode == 2, proc.stderr
    assert "at most 10000" in proc.stderr
    assert "Traceback" not in proc.stderr
