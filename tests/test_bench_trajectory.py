"""The BENCH trajectory of tools/bench_trajectory.py, on canned BENCH files."""
import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
bench_trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_trajectory)


def canned(rev, medians):
    """A BENCH document: per workload, items_per_s medians (parent, change)."""
    def metric(parent, change):
        return {"unit": "1/s", "better": "higher", "bound": 0.25,
                "parent": {"median": parent, "q1": parent, "q3": parent, "n": 1, "seeds": [1]},
                "change": {"median": change, "q1": change, "q3": change, "n": 1, "seeds": [1]}}

    return {
        "git_rev": {"parent": f"p{rev}", "change": f"c{rev}"},
        "machine": {"cpu": "canned", "nproc": 2},
        "python": "3.11.7",
        "workloads": {w: {"pairs": 1, "metrics": {"items_per_s": metric(*m)}} for w, m in medians.items()},
    }


@pytest.fixture
def bench_dir(tmp_path):
    # numbers 2, 3, 10 (a gap, and 10 sorts before 2 as text); 3 lacks the selftest workload
    files = {
        "BENCH_10.json": canned(10, {"selftest": (90.0, 120.0), "atlas": (10.0, 10.0)}),
        "BENCH_2.json": canned(2, {"selftest": (50.0, 100.0), "atlas": (8.0, 10.0)}),
        "BENCH_3.json": canned(3, {"atlas": (11.0, 12.0)}),
    }
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "BENCH_4.json.partial").write_text("{", encoding="utf-8")
    (tmp_path / "BENCH_x.json").write_text("{", encoding="utf-8")
    return tmp_path


def test_files_are_read_in_numeric_order(bench_dir):
    assert [p.name for p in bench_trajectory.bench_files(bench_dir)] == [
        "BENCH_2.json", "BENCH_3.json", "BENCH_10.json"
    ]


def test_drift_is_against_the_previous_file_recording_the_workload(bench_dir):
    table = bench_trajectory.trajectory(bench_trajectory.bench_files(bench_dir))
    selftest = table["selftest"]["items_per_s"]
    assert [(r["file"], r["parent"], r["change"]) for r in selftest] == [
        ("BENCH_2.json", 50.0, 100.0), ("BENCH_10.json", 90.0, 120.0)
    ]
    assert selftest[0]["drift"] is None and selftest[0]["drift_from"] is None
    assert selftest[1]["drift"] == pytest.approx(-0.1) and selftest[1]["drift_from"] == "BENCH_2.json"
    atlas = table["atlas"]["items_per_s"]
    assert [r["drift"] for r in atlas] == [None, pytest.approx(0.1), pytest.approx(-1 / 6)]
    assert [r["drift_from"] for r in atlas] == [None, "BENCH_2.json", "BENCH_3.json"]
    assert atlas[2]["git_rev"] == {"parent": "p10", "change": "c10"} and atlas[2]["unit"] == "1/s"


def test_text_and_json_print_the_same_rows(bench_dir):
    outputs = []
    for extra in ([], ["--json"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert bench_trajectory.main(["--dir", str(bench_dir), *extra]) == 0
        outputs.append(out.getvalue())
    text, as_json = outputs
    lines = text.splitlines()
    assert lines[0] == "selftest items_per_s [1/s]"
    assert lines[1].split() == ["BENCH_2.json", "parent", "50", "change", "100"]
    assert lines[2].split() == ["BENCH_10.json", "parent", "90", "change", "120",
                                "drift", "-10.0%", "from", "BENCH_2.json"]
    assert lines[3] == "atlas items_per_s [1/s]" and len(lines) == 7
    assert json.loads(as_json) == bench_trajectory.trajectory(bench_trajectory.bench_files(bench_dir))
