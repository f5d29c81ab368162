"""The pair summary of tools/bench_pairs.py, on canned result lines."""
import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

DECLARED = [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def canned(seed, items_per_s, op_p50_ms, failed=0):
    context = {"context": {"workload": "atlas", "seed": seed, "traced": False}}
    result = {
        "correct": failed == 0,
        "attempted": 40,
        "failed": failed,
        "metrics": {
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
        },
    }
    return "warming up\n" + json.dumps(context) + "\n" + json.dumps(result) + "\n"


def runs(values):
    return [bench_pairs.parse_result(canned(61 + i, ips, p50)) for i, (ips, p50) in enumerate(values)]


def test_parse_result_reads_the_last_two_lines():
    run = bench_pairs.parse_result(canned(7, 1911.5, 0.4, failed=1))
    assert run == {
        "seed": 7,
        "attempted": 40,
        "failed": 1,
        "metrics": {"items_per_s": 1911.5, "op_p50_ms": 0.4},
    }
    with pytest.raises(ValueError):
        bench_pairs.parse_result(json.dumps({"correct": True}))


def test_summary_gives_median_quartiles_and_seeds():
    summary = bench_pairs.side_summary([4.0, 1.0, 3.0, 2.0, 5.0], [1, 2, 3, 4, 5])
    assert summary == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5, "seeds": [1, 2, 3, 4, 5]}
    single = bench_pairs.side_summary([7.5], [9])
    assert single == {"median": 7.5, "q1": 7.5, "q3": 7.5, "n": 1, "seeds": [9]}


def test_gain_needs_nine_wins_in_ten_and_a_median_beyond_the_parent_spread():
    parent = runs([(100 + i, 10 + 0.1 * i) for i in range(10)])
    faster = runs([(130 + i, 10 + 0.1 * i - 0.1 * (i != 3)) for i in range(10)])
    out = bench_pairs.compare(parent, faster, DECLARED)
    ips = out["items_per_s"]
    assert ips["parent"]["median"] == 104.5 and ips["change"]["median"] == 134.5
    assert ips["parent"]["q3"] - ips["parent"]["q1"] == 4.5
    assert ips["change_wins"] == 10 and ips["gain_holds"]
    assert ips["ratio"] == pytest.approx(134.5 / 104.5)
    # lower is better for latency: nine wins and one tie, but a median inside the spread
    assert out["op_p50_ms"]["change_wins"] == 9 and not out["op_p50_ms"]["gain_holds"]
    # eight wins in ten is not enough, however large the median gain
    mixed = runs([(200 if i < 8 else 50, 10) for i in range(10)])
    assert not bench_pairs.compare(parent, mixed, DECLARED)["items_per_s"]["gain_holds"]


def test_within_bound_compares_the_medians_against_the_relative_bound():
    parent = runs([(100, 10)] * 3)
    out = bench_pairs.compare(parent, runs([(76, 12.5)] * 3), DECLARED)
    assert out["items_per_s"]["within_bound"] and out["op_p50_ms"]["within_bound"]
    out = bench_pairs.compare(parent, runs([(74, 12.6)] * 3), DECLARED)
    assert not out["items_per_s"]["within_bound"] and not out["op_p50_ms"]["within_bound"]
    # a better median is always within the bound
    out = bench_pairs.compare(parent, runs([(300, 1)] * 3), DECLARED)
    assert out["items_per_s"]["within_bound"] and out["op_p50_ms"]["within_bound"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["--workload", "nope"], "--workload must be one of report, atlas, lift-stream, selftest"),
        (["--workload", "atlas", "--seconds", "0"], "--seconds must be a positive number"),
        (["--workload", "atlas", "--seconds", "-2"], "--seconds must be a positive number"),
        (["--workload", "atlas", "--seconds", "nan"], "--seconds must be a positive number"),
    ],
)
def test_bad_workload_or_seconds_is_refused_before_any_checkout(monkeypatch, capsys, tmp_path,
                                                                args, message):
    def no_checkout(*args):
        raise AssertionError("checked out before refusing the arguments")

    monkeypatch.setattr(bench_pairs, "checkout", no_checkout)
    monkeypatch.setattr(bench_pairs, "run_once", no_checkout)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD~1", "--change", "HEAD",
                          "--out", str(tmp_path / "out.json"), *args])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_sides_must_share_seeds_in_order():
    with pytest.raises(ValueError):
        bench_pairs.compare(runs([(1, 1)] * 2), list(reversed(runs([(1, 1)] * 2))), DECLARED)


def test_workload_entry_counts_failures_per_side():
    entry = bench_pairs.workload_entry(
        runs([(1, 1)] * 2), [bench_pairs.parse_result(canned(61, 1, 1, failed=2)),
                             bench_pairs.parse_result(canned(62, 1, 1))],
        DECLARED, 20.0, ["parent", "change"],
    )
    assert entry["pairs"] == 2 and entry["first"] == ["parent", "change"]
    assert entry["failed"] == {"parent": 0, "change": 2}
    assert entry["attempted"] == {"parent": 80, "change": 80}


def test_run_once_compiles_in_an_empty_bytecode_cache_of_its_own(monkeypatch, tmp_path):
    seen = []

    def fake_run(argv, **kwargs):
        env = kwargs["env"]
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((kwargs["cwd"], env, cache, cache.is_dir() and not any(cache.iterdir())))
        return subprocess.CompletedProcess(argv, 0, canned(61, 1.0, 1.0), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("BENCH_PAIRS_PROBE", "kept")
    for _ in range(2):
        run = bench_pairs.run_once(tmp_path, "atlas", 61, 1.0)
        assert run["seed"] == 61
    (cwd, env, cache, empty), (_, _, other, _) = seen
    assert cwd == tmp_path and empty and cache != other
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert not cache.exists()  # removed after the run
    # the rest of the caller's environment passes through
    assert env["BENCH_PAIRS_PROBE"] == "kept"


def test_run_once_records_its_wall_seconds(monkeypatch, tmp_path):
    clock = iter([10.0, 12.5])
    monkeypatch.setattr(bench_pairs, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(
        bench_pairs.subprocess, "run",
        lambda argv, **kwargs: subprocess.CompletedProcess(argv, 0, canned(61, 1.0, 1.0), ""),
    )
    run = bench_pairs.run_once(tmp_path, "atlas", 61, 1.0)
    assert run["wall_s"] == 2.5
    assert {k: v for k, v in run.items() if k != "wall_s"} == bench_pairs.parse_result(canned(61, 1.0, 1.0))


def test_workload_entry_records_wall_seconds_per_run_and_their_median():
    def timed(values, walls):
        return [{**run, "wall_s": wall} for run, wall in zip(runs(values), walls)]

    parent, change = timed([(1, 1)] * 3, [22.0, 21.5, 24.0]), timed([(2, 1)] * 3, [22.5, 21.0, 21.25])
    entry = bench_pairs.workload_entry(parent, change, DECLARED, 20.0, ["parent", "change", "parent"])
    assert entry["wall_s"] == {
        "parent": {"runs": [22.0, 21.5, 24.0], "median": 22.0},
        "change": {"runs": [22.5, 21.0, 21.25], "median": 21.25},
    }
    # runs read back from canned lines alone carry no wall time
    untimed = bench_pairs.workload_entry(runs([(1, 1)] * 2), runs([(1, 1)] * 2), DECLARED, 20.0,
                                         ["parent", "change"])
    assert untimed["wall_s"]["parent"] == {"runs": [], "median": None}


def test_the_output_file_keeps_every_completed_pair_when_a_run_fails(monkeypatch, tmp_path):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": DECLARED}))
    monkeypatch.setattr(bench_pairs, "checkout", lambda spec, workdir, label: (change, label))
    done, cut = [], [None]

    def fake_run(directory, workload, seed, seconds):
        if len(done) == cut[0]:
            raise RuntimeError("cut short")
        done.append(seed)
        return {**bench_pairs.parse_result(canned(seed, 100.0 + len(done), 1.0)), "wall_s": 1.5}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "out.json"
    partial = tmp_path / "out.json.partial"
    argv = ["--parent", "p", "--change", "c", "--workload", "atlas", "--seed", "61",
            "--out", str(out)]

    def entry(path):
        return json.loads(path.read_text())["workloads"]["atlas"]

    # a run cut after two pairs with no earlier file keeps both pairs in the partial file
    cut[0] = 4
    with pytest.raises(RuntimeError):
        bench_pairs.main([*argv, "--pairs", "5"])
    assert done == [61, 61, 62, 62] and not out.exists()
    kept = entry(partial)
    assert kept["pairs"] == 2 and kept["first"] == ["parent", "change"]
    ips = kept["metrics"]["items_per_s"]
    assert ips["parent"]["seeds"] == ips["change"]["seeds"] == [61, 62]
    # pair 1 ran the parent first (101 vs 102), pair 2 the change first (103 vs 104)
    assert ips["parent"]["median"] == (101 + 104) / 2 and ips["change"]["median"] == (102 + 103) / 2

    # a complete run replaces the file and leaves no partial file behind
    done.clear()
    cut[0] = None
    bench_pairs.main([*argv, "--pairs", "3"])
    complete = out.read_text()
    assert json.loads(complete)["workloads"]["atlas"]["pairs"] == 3 and not partial.exists()

    # a later run cut short leaves the complete file as it was
    done.clear()
    cut[0] = 2
    with pytest.raises(RuntimeError):
        bench_pairs.main([*argv, "--pairs", "3"])
    assert out.read_text() == complete and entry(partial)["pairs"] == 1



def test_a_finished_run_prints_one_verdict_line_per_metric(monkeypatch, capsys, tmp_path):
    for label in ("parent", "change"):
        (tmp_path / label).mkdir()
        (tmp_path / label / "BENCHMARK.json").write_text(json.dumps({"end_to_end": DECLARED}))
    monkeypatch.setattr(bench_pairs, "checkout", lambda spec, workdir, label: (tmp_path / label, label))
    # the change is faster in every pair, and slower per operation beyond the bound
    canned_runs = {"parent": [(100.0, 2.0), (101.0, 2.0), (102.0, 2.0)],
                   "change": [(130.0, 3.0), (131.0, 3.0), (132.0, 3.0)]}

    def fake_run(directory, workload, seed, seconds):
        ips, p50 = canned_runs[directory.name][seed - 61]
        return {**bench_pairs.parse_result(canned(seed, ips, p50)), "wall_s": 1.0}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "out.json"
    bench_pairs.main(["--parent", "p", "--change", "c", "--workload", "atlas", "--seed", "61",
                      "--pairs", "3", "--out", str(out)])
    verdict = capsys.readouterr().err.splitlines()[-2:]
    assert verdict == [
        f"items_per_s: ratio {131 / 101:.3f}, change won 3/3, gain_holds True, within_bound True",
        "op_p50_ms: ratio 1.500, change won 0/3, gain_holds False, within_bound False",
    ]
    metrics = json.loads(out.read_text())["workloads"]["atlas"]["metrics"]
    assert [metrics[name]["change_wins"] for name in ("items_per_s", "op_p50_ms")] == [3, 0]
