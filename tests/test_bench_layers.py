"""The layer timings of tools/bench_layers.py, on canned process output."""
import importlib.util
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"
spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
bench_layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_layers)

CALLS = {"block_head": 875, "commutant_difference": 500, "lift_stream": 22781}


def reading(package, block_head, commutant_difference=10.0, lift_stream=0.4, calls=CALLS):
    us = {"block_head": block_head, "commutant_difference": commutant_difference, "lift_stream": lift_stream}
    return {"package": str(package),
            "layers": {name: {"calls": calls[name], "us_per_call": us[name]} for name in bench_layers.LAYERS}}


def test_summary_gives_each_sides_minimum_median_readings_and_wins():
    parent = [reading("p", v) for v in (20.0, 22.0, 21.0)]
    change = [reading("c", v, commutant_difference=12.0) for v in (11.0, 23.0, 12.0)]
    layers = bench_layers.summarize({"parent": parent, "change": change})
    assert layers["block_head"] == {
        "calls": 875,
        "unit": "us per call",
        "parent": {"min": 20.0, "median": 21.0, "runs": [20.0, 22.0, 21.0]},
        "change": {"min": 11.0, "median": 12.0, "runs": [11.0, 23.0, 12.0]},
        "change_wins": 2,
        "median_ratio": 12.0 / 21.0,
    }
    assert layers["commutant_difference"]["change_wins"] == 0
    assert layers["commutant_difference"]["median_ratio"] == 1.2
    assert list(layers) == list(bench_layers.LAYERS)


def test_sides_that_made_different_calls_are_refused():
    other = {**CALLS, "lift_stream": 144}
    with pytest.raises(ValueError, match="lift_stream calls: \\[144, 22781\\]"):
        bench_layers.summarize({"parent": [reading("p", 20.0)], "change": [reading("c", 11.0, calls=other)]})


def test_a_process_runs_the_sides_source_and_reads_its_last_line(monkeypatch, tmp_path):
    seen = {}

    def fake_run(argv, cwd, env, capture_output, text):
        seen.update(argv=argv, cwd=cwd, env=env)
        package = tmp_path / "src" / "crossed_commutant" / "__init__.py"
        return SimpleNamespace(returncode=0, stderr="", stdout="noise\n" + json.dumps(reading(package, 12.5)))

    monkeypatch.setattr(bench_layers.subprocess, "run", fake_run)
    got = bench_layers.run_process(tmp_path)
    assert got["layers"]["block_head"]["us_per_call"] == 12.5
    assert seen["argv"][1:] == [str(TOOL), "--measure"]
    assert seen["env"]["PYTHONPATH"].split(os.pathsep) == [str(tmp_path / "src"), str(tmp_path / "perfbench")]
    assert not Path(seen["cwd"]).is_relative_to(tmp_path)


@pytest.mark.parametrize("returncode, package", [(1, None), (0, "/elsewhere/crossed_commutant/__init__.py")])
def test_a_failed_process_or_a_foreign_package_stops_the_run(monkeypatch, tmp_path, returncode, package):
    stdout = json.dumps(reading(package, 12.5)) if package else ""
    monkeypatch.setattr(bench_layers.subprocess, "run",
                        lambda *a, **k: SimpleNamespace(returncode=returncode, stderr="boom", stdout=stdout))
    with pytest.raises(SystemExit):
        bench_layers.run_process(tmp_path)


def test_the_sides_alternate_and_one_json_document_is_printed(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(bench_layers.bench_pairs, "checkout",
                        lambda spec, workdir, label: (tmp_path / label, f"rev-{spec}"))
    order = []

    def fake_process(directory):
        order.append(directory.name)
        return reading(directory, 20.0 if directory.name == "parent" else 11.0)

    monkeypatch.setattr(bench_layers, "run_process", fake_process)
    monkeypatch.setattr(bench_layers, "PROCESSES", 3)
    assert bench_layers.main(["--parent", "A", "--change", "B"]) == 0
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    document = json.loads(capsys.readouterr().out)
    assert document["git_rev"] == {"parent": "rev-A", "change": "rev-B"}
    assert (document["processes"], document["repeats"]) == (3, bench_layers.REPEATS)
    assert document["layers"]["block_head"]["change_wins"] == 3


@pytest.mark.parametrize("argv", [["--parent", "A"], ["--change", "B"]])
def test_a_missing_side_is_refused_before_any_checkout(monkeypatch, argv):
    monkeypatch.setattr(bench_layers.bench_pairs, "checkout", lambda *a: pytest.fail("checked out"))
    with pytest.raises(SystemExit) as exit_info:
        bench_layers.main(argv)
    assert exit_info.value.code == 2
