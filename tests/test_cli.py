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
from crossed_commutant.fixtures import builtin_names


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


def test_report_classifies_each_map_once(capsys, monkeypatch):
    import crossed_commutant.commutant as commutant
    import crossed_commutant.dynamics as dynamics

    calls = []
    for module in (dynamics, commutant):
        real = module.cycle_lengths
        monkeypatch.setattr(
            module, "cycle_lengths", lambda perm, real=real: calls.append(perm) or real(perm)
        )
    code, _, _ = run(capsys, "report", "--builtin", "two-intervals-crossed", "--json")
    assert code == 0
    # the base map and the refined map; the refined description is the difference's
    assert len(calls) == 2


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


@pytest.mark.parametrize("name", builtin_names())
def test_report_grading_does_not_depend_on_the_window(capsys, name):
    gradings = []
    for window in ("1", "6", "8"):
        code, out, _ = run(capsys, "report", "--builtin", name, "--json", "--window", window)
        assert code == 0
        gradings.append(json.loads(out)["grading"])
    assert gradings[0] == gradings[1] == gradings[2]
    assert "window" not in gradings[0]


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


def test_atlas_of_single_lift_base_maps_is_one_counted_case(capsys):
    # 6! * 5! base maps of one lift each, counted without walking them
    code, out, err = run(capsys, "atlas", "--points", "0", "--base-n", "5", "--json")
    assert code == 0
    (case,) = json.loads(out)["cases"]
    assert case["signature"] == "no difference" and case["count"] == 86_400
    identity = list(range(11))
    assert case["representative"] == {"pieces": 11, "base_perm": identity, "refined_perm": identity}


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
# each of these validates at exit 0 if a key is dropped or ignored
ALIASED_ADDITIONS = {
    "type": "real_line", "jump_points": [0], "additions": {"0": ["-1"], "00": ["-2"]},
    "base_perm": [0, 1, 2], "refined_perm": [0, 1, 2, 3, 4],
}
ALIASED_CELLS = {
    "type": "abstract", "pieces": 2, "cells": {"0": 2, "00": 2},
    "base_perm": [0, 1], "refined_perm": [0, 1, 2],
}
STRAY_CELLS = {
    "type": "abstract", "pieces": 2, "cells": {"7": 2},
    "base_perm": [0, 1], "refined_perm": [0, 1],
}
NEGATIVE_CELLS = {**STRAY_CELLS, "cells": {"-1": 2}}
# a refinement key of the other document type
ABSTRACT_WITH_ADDITIONS = {"type": "abstract", "pieces": 1, "perm": [0], "additions": {"0": ["1"]}}
LINE_WITH_CELLS = {"type": "real_line", "jump_points": [], "perm": [0], "cells": {"0": 2}}
# hostile documents: wrong JSON types, bad jump points, misfit perms
ONE_CELL = {"type": "abstract", "pieces": 1, "perm": [0]}
TWO_CELLS = {"type": "abstract", "pieces": 2, "perm": [1, 0]}
LINE = {"type": "real_line", "jump_points": ["0"], "perm": [0, 1, 2]}
LINE_REFINED = {
    "type": "real_line", "jump_points": [], "additions": {"0": ["0"]},
    "base_perm": [0], "refined_perm": [0, 1, 2],
}
CELLS_REFINED = {
    "type": "abstract", "pieces": 1, "cells": {"0": 2}, "base_perm": [0], "refined_perm": [1, 0],
}
HOSTILE = {
    "<window '3'>": {**ONE_CELL, "window": "3"},
    "<window 3.0>": {**ONE_CELL, "window": 3.0},
    "<window true>": {**ONE_CELL, "window": True},
    "<perm '01'>": {**TWO_CELLS, "perm": "01"},
    "<perm of floats>": {**TWO_CELLS, "perm": [0.0, 1.0]},
    "<perm of booleans>": {**TWO_CELLS, "perm": [True, False]},
    "<perm null>": {**TWO_CELLS, "perm": None},
    "<pieces '2'>": {**TWO_CELLS, "pieces": "2"},
    "<cells a list>": {**CELLS_REFINED, "cells": [2]},
    "<cells value '2'>": {**CELLS_REFINED, "cells": {"0": "2"}},
    "<cells value 2.0>": {**CELLS_REFINED, "cells": {"0": 2.0}},
    "<additions value an object>": {**LINE_REFINED, "additions": {"0": {"0": "0"}}},
    "<jump point an object>": {**LINE, "jump_points": [{"x": 1}]},
    "<jump point 'nan'>": {**LINE, "jump_points": ["nan"]},
    "<jump point 'inf'>": {**LINE, "jump_points": ["inf"]},
    "<duplicate jump points>": {**LINE, "jump_points": ["0", "0"], "perm": [0, 1, 2, 3, 4]},
    "<unsorted jump points>": {**LINE, "jump_points": ["1", "0"], "perm": [0, 1, 2, 3, 4]},
    "<refined_perm one short>": {**LINE_REFINED, "refined_perm": [0, 1]},
    "<refined_perm one long>": {**LINE_REFINED, "refined_perm": [0, 1, 2, 3]},
    "<line base_perm without additions>": {**LINE, "base_perm": [0, 1, 2]},
    "<abstract base_perm without cells>": {**ONE_CELL, "base_perm": [0]},
}
# documents the JSON decoder itself refuses, as raw bytes
UNDECODABLE = {
    "<100,000 nested arrays>": b"[" * 100_000,
    "<a stray 0xff byte>": b'{"type": "abstract", "pieces": 1, "perm": [0], "x": "\xff"}',
    "<a 5,000-digit integer>": b'{"type": "abstract", "pieces": 1, "perm": [0], "window": '
    + b"1" * 5000 + b"}",
}
DOCUMENTS = {
    HUGE_WINDOW: HUGE_WINDOW_DOC,
    "<additions keys 0 and 00>": ALIASED_ADDITIONS,
    "<cells keys 0 and 00>": ALIASED_CELLS,
    "<cells key 7 of 2 pieces>": STRAY_CELLS,
    "<cells key -1>": NEGATIVE_CELLS,
    "<abstract with additions>": ABSTRACT_WITH_ADDITIONS,
    "<real_line with cells>": LINE_WITH_CELLS,
    **HOSTILE,
}


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
        ["validate", "<additions keys 0 and 00>"],
        ["validate", "<cells keys 0 and 00>"],
        ["validate", "<cells key 7 of 2 pieces>"],
        ["validate", "<cells key -1>"],
        ["validate", "<abstract with additions>"],
        ["report", "<abstract with additions>"],
        ["validate", "<real_line with cells>"],
        ["report", "<real_line with cells>"],
        *(["validate", name] for name in HOSTILE),
        *([command, name] for name in UNDECODABLE for command in ("validate", "report")),
        ["atlas", "--points", "1", "--max-lifts", "-5"],
    ],
)
def test_bad_arguments_exit_two_without_traceback(capsys, tmp_path, argv):
    paths = {}
    for i, (name, doc) in enumerate(DOCUMENTS.items()):
        paths[name] = tmp_path / f"document-{i}.json"
        paths[name].write_text(json.dumps(doc))
    for i, (name, raw) in enumerate(UNDECODABLE.items()):
        paths[name] = tmp_path / f"undecodable-{i}.json"
        paths[name].write_bytes(raw)
    argv = [str(paths[arg]) if arg in paths else arg for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects while parsing
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.strip()


@pytest.mark.parametrize("budget", ["-5", "0", "1.5"])
def test_max_lifts_below_one_is_refused_by_the_parser(capsys, budget):
    with pytest.raises(SystemExit) as exc:
        main(["atlas", "--points", "1", "--max-lifts", budget])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument --max-lifts: expected a positive integer, got '{budget}'" in err


@pytest.mark.parametrize("doc", [ONE_CELL, TWO_CELLS, LINE, LINE_REFINED, CELLS_REFINED])
def test_hostile_documents_start_from_valid_ones(capsys, tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "validate", str(path))[0] == 0


@pytest.mark.parametrize(
    "doc, message",
    [
        (ALIASED_ADDITIONS, "additions keys '0' and '00' name the same id"),
        (ALIASED_CELLS, "cells keys '0' and '00' name the same id"),
        (STRAY_CELLS, "cells: no piece 7"),
        (NEGATIVE_CELLS, "cells: no piece -1"),
        (ABSTRACT_WITH_ADDITIONS, "additions: abstract instances use pieces and cells"),
        (LINE_WITH_CELLS, "cells: real_line instances use jump_points and additions"),
    ],
)
def test_aliased_and_stray_document_keys_are_named(capsys, tmp_path, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert message in err


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


def test_atlas_over_the_lift_budget_exits_two_before_streaming():
    # 13 pieces pass the cap of 14, but 7! * 6! = 3,628,800 lifts exceed the
    # default budget of 1,000,000
    proc = _run_capped("atlas", "--points", "0", "--base-n", "6")
    assert proc.returncode == 2, proc.stderr
    assert "3628800 lifts exceeds the budget of 1000000" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
