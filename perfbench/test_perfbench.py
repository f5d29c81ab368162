"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""
from __future__ import annotations

import collections
import gc
import importlib
import json
import os
import random
import statistics
import sys
import time

import pytest

import docgen
import run
import tracing
import workloads

sys.path.insert(0, str(run.SOURCE))
cc = importlib.import_module(run.PACKAGE)
for _module in tracing.MODULES:
    importlib.import_module(f"{run.PACKAGE}.{_module}")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_tail_percentile_is_highest_with_ten_items_beyond():
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(999) == 95.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10_000) == 99.9
    assert run.tail_percentile(99) is None


def test_tail_leaves_ten_items_beyond():
    samples = [[(i + 1) / 1000, (i + 1) / 1000, 1.0] for i in range(200)]
    summary = run.summarize(samples, [1] * 200)
    assert summary["tail_percentile"] == 95.0
    assert summary["op_tail_ms"] == pytest.approx(190.0)
    assert sum(1 for s in samples if s[0] * 1e3 > summary["op_tail_ms"]) == 10
    assert summary["op_p50_ms"] == pytest.approx(100.5)


def test_tail_with_few_items_is_the_slowest_item():
    samples = [[0.001, 0.002, 0.003], [0.500, 0.010, 0.011], [0.004]]
    summary = run.summarize(samples, [1, 1, 1])
    assert summary["tail_percentile"] == "slowest item"
    assert summary["op_tail_ms"] == pytest.approx(11.0)
    assert summary["op_p50_ms"] == pytest.approx(4.0)
    # each item by its median call: one pass takes 0.002 + 0.011 + 0.004 s
    assert summary["items_per_s"] == pytest.approx(3 / 0.017)


def test_times_scale_with_the_pace_kernel():
    reference = run.REFERENCE_PACE_S
    assert run.scaled(0.2, [2 * reference, 2 * reference]) == pytest.approx(0.1)
    assert run.scaled(0.2, [reference, 2 * reference, 3 * reference]) == pytest.approx(0.1)
    # one slow reading does not skew the scale
    assert run.scaled(0.2, [reference, reference, 10 * reference]) == pytest.approx(0.2)


def test_pace_is_not_moved_by_a_large_live_heap(monkeypatch):
    def readings():
        return statistics.median([run.pace() for _ in range(25)])

    inside = []
    collections = []

    def kernel():
        inside.append(True)
        try:
            pace_kernel()
        finally:
            inside.pop()

    def note(phase, info):
        if phase == "start" and inside:
            collections.append(info["generation"])

    pace_kernel = run.pace_kernel
    monkeypatch.setattr(run, "pace_kernel", kernel)

    quiet = readings()
    heap = [[i] for i in range(300_000)]  # tracked objects a collection must walk
    threshold = gc.get_threshold()
    gc.set_threshold(50, 1, 1)  # collect, and collect fully, as often as possible
    gc.callbacks.append(note)
    try:
        loaded = readings()
    finally:
        gc.callbacks.remove(note)
        gc.set_threshold(*threshold)
    del heap
    again = readings()
    assert collections == []
    assert gc.isenabled()
    assert loaded < 1.5 * max(quiet, again)


def test_pace_sampler_reads_during_an_operation_and_takes_its_time_off():
    sampler = run.PaceSampler()
    sampler.start()
    started = time.perf_counter()
    while time.perf_counter() - started < 0.3:
        pass
    ended = time.perf_counter()
    elapsed, paces = sampler.stop(started, ended)
    assert len(paces) >= 3
    assert elapsed == pytest.approx(ended - started - sum(paces), rel=0.05)


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.enter("outer")            # t=0
    clock.now = 1.0
    tracer.enter("inner")            # t=1
    clock.now = 2.0
    tracer.enter("leaf")             # t=2
    clock.now = 3.5
    tracer.exit()                    # leaf 1.5
    clock.now = 4.0
    tracer.exit()                    # inner 3.0, of which 1.5 in leaf
    clock.now = 5.0
    tracer.enter("inner")            # t=5
    clock.now = 6.0
    tracer.exit()                    # inner 1.0
    clock.now = 10.0
    tracer.exit()                    # outer 10.0, of which 4.0 in children
    assert tracer.calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert tracer.busy["outer"] == pytest.approx(10.0)
    assert tracer.self_time["outer"] == pytest.approx(6.0)
    assert tracer.busy["inner"] == pytest.approx(4.0)
    assert tracer.self_time["inner"] == pytest.approx(2.5)
    assert tracer.self_time["leaf"] == pytest.approx(1.5)


def test_reentered_layer_counts_busy_time_once():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.enter("a")
    clock.now = 1.0
    tracer.enter("a")
    clock.now = 3.0
    tracer.exit()
    clock.now = 4.0
    tracer.exit()
    assert tracer.busy["a"] == pytest.approx(4.0)
    assert tracer.self_time["a"] == pytest.approx(4.0)
    assert tracer.calls["a"] == 2


def test_wrappers_replace_every_imported_binding_and_undo():
    originals = {
        "multiply": cc.crossed.multiply,
        "perm_power": cc.dynamics.perm_power,
        "commutant_difference": cc.commutant.commutant_difference,
        "is_strongly_graded": cc.crossed.is_strongly_graded,
        "brute_force_sep": cc.commutant.brute_force_sep,
    }
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, cc)
    try:
        assert cc.commutant.multiply is cc.crossed.multiply is not originals["multiply"]
        assert cc.selftest.multiply is cc.crossed.multiply
        assert cc.crossed.perm_power is cc.dynamics.perm_power is not originals["perm_power"]
        assert cc.enumeration.commutant_difference is not originals["commutant_difference"]
        assert cc.cli.is_strongly_graded is not originals["is_strongly_graded"]
        assert cc.selftest.brute_force_sep is not originals["brute_force_sep"]
        assert cc.multiply is cc.crossed.multiply
        code, _ = workloads._cli(cc, ["report", "--builtin", "two-intervals-crossed", "--json"])
        assert code == 0
    finally:
        undo()
    assert cc.commutant.multiply is originals["multiply"]
    assert cc.crossed.perm_power is originals["perm_power"]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["crossed.is_strongly_graded.calls"] == 1
    assert metrics["crossed.multiply.calls"] > 0
    # multiply is reached from is_strongly_graded, so it is not grading self time
    assert metrics["crossed.is_strongly_graded.self_s"] < metrics["crossed.is_strongly_graded.busy_s"]
    assert metrics["cli.main.self_s"] > 0


def test_traced_stream_counts_lifts_outside_the_consumer():
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, cc)
    try:
        ok, lifts = _run_and_check(workloads.LiftStream(), item_filter=lambda it: it[:2] == (2, 2))
    finally:
        undo()
    assert ok and lifts == (3 * 2 * 2) ** 2
    metrics = tracing.layer_metrics(tracer)
    assert metrics["enumeration.stream.lifts"] == lifts
    # one profile per block of (2!)**2 lifts that share their interval wiring
    assert metrics["dynamics.pi_profile.calls"] == lifts // 2 ** 2


def _run_and_check(workload, item_filter, tmp_path=None):
    items = [it for it in workload.setup(cc, 1, tmp_path) if item_filter(it)]
    return workload.check(cc, items[0], workload.run(cc, items[0]))


def _report_items(seed, tmp_path):
    workload = workloads.Report()
    workload.prepare(seed, tmp_path)
    return workload, workload.setup(cc, seed, tmp_path)


def test_report_output_checked_by_meaning(tmp_path):
    workload, items = _report_items(3, tmp_path)
    assert any(it[2].graded for it in items[:12]) and not all(it[2].graded for it in items[:12])
    for item in items[:12]:
        code, text = workload.run(cc, item)
        assert workload.check(cc, item, (code, text)) == (True, 1)
        # the same meaning in other bytes still passes
        assert workload.check(cc, item, (code, json.dumps(json.loads(text)))) == (True, 1)


@pytest.mark.parametrize(
    "corrupt", ["sep", "coarse_sep", "forbidden", "verdict", "window", "no window", "code"]
)
def test_corrupted_report_is_a_failed_operation(tmp_path, corrupt):
    workload, items = _report_items(5, tmp_path)
    graded = corrupt in ("window", "no window")
    # a graded verdict is judged over its window; the others need a coarse table
    item = next(it for it in items if it[2].refined and it[2].graded == graded and it[2].pieces > 2)
    code, text = workload.run(cc, item)
    payload = json.loads(text)
    if corrupt == "sep":
        payload["sep"]["1"] = sorted(set(payload["sep"]["1"]) ^ {0})
    elif corrupt == "coarse_sep":
        payload["coarse_sep"]["-1"] = sorted(set(payload["coarse_sep"]["-1"]) ^ {0})
    elif corrupt == "forbidden":
        payload["difference"]["forbidden"]["2"] = sorted(set(payload["difference"]["forbidden"]["2"]) ^ {0})
    elif corrupt == "verdict":
        payload["grading"]["strongly_graded"] = not payload["grading"]["strongly_graded"]
        payload["grading"]["witness"] = [1, -1]
    elif corrupt == "window":
        # graded over fewer degrees than the report grades today
        payload["grading"]["window"] = 1
    elif corrupt == "no window":
        # an unbounded verdict is sampled over half the table, so a wrong one fails
        item = next(it for it in items if not it[2].graded and it[2].pieces > 2)
        code, text = workload.run(cc, item)
        payload = json.loads(text)
        payload["grading"].update(strongly_graded=True, witness=None, window=None)
    else:
        code = 1
    assert workload.check(cc, item, (code, json.dumps(payload))) == (False, 1)


def test_measure_counts_corrupted_outputs_as_failures(tmp_path):
    class Corrupting(workloads.Atlas):
        def run(self, cc, item):
            groups = super().run(cc, item)
            groups.popitem()
            return groups

    workload = Corrupting()
    items = [it for it in workload.setup(cc, 1, tmp_path) if it[3] <= 72]
    result = run.measure(workload, cc, items, 0.0, random.Random(1))
    assert result["attempted"] == len(items) == result["failed"]

    healthy = run.measure(workloads.Atlas(), cc, items, 0.0, random.Random(1))
    assert healthy["failed"] == 0 and healthy["work"] == [it[3] for it in items]


def test_selftest_check_rejects_a_failed_suite():
    good = "seed 7, 100 base iterations\nsep formula = oracle: 100/100\nselftest: ok\n"
    assert workloads.check_selftest(7, 0, good) == (True, 100)
    bad = good.replace("100/100", "99/100")
    assert workloads.check_selftest(7, 0, bad)[0] is False
    assert workloads.check_selftest(8, 0, good)[0] is False


def test_stray_seed_variable_is_cleared(monkeypatch):
    monkeypatch.setenv(workloads.SEED_ENV, "4242")
    # left in place it silently replaces the requested seed
    output = workloads._cli(cc, ["selftest", "--seed", "17", "--iterations", "1"])
    assert workloads.check_selftest(17, *output)[0] is False
    assert workloads.clear_seed_override() is True
    assert workloads.SEED_ENV not in os.environ
    output = workloads._cli(cc, ["selftest", "--seed", "17", "--iterations", "1"])
    assert workloads.check_selftest(17, *output)[0] is True
    assert workloads.clear_seed_override() is False


def test_documents_repeat_per_seed_with_source_quotas():
    first, again = docgen.generate(9), docgen.generate(9)
    assert [d.data for d in first] == [d.data for d in again]
    assert [d.data for d in first] != [d.data for d in docgen.generate(10)]
    quotas = docgen.quotas(docgen.DOCUMENTS)
    assert sum(quotas.values()) == len(first) == docgen.DOCUMENTS
    for seed in (9, 10):
        cells = collections.Counter(d.cell for d in docgen.generate(seed))
        assert cells == quotas
    total = sum(docgen.SOURCE_COUNTS.values())
    graded = sum(n for cell, n in docgen.SOURCE_COUNTS.items() if cell[2]) / total
    assert docgen.shares(first)["strongly_graded"]["true"] == pytest.approx(graded, abs=0.005)
    for doc in first:
        instance = cc.instances.parse_instance(doc.data)
        assert instance.analysis_partition.piece_count == doc.pieces
        assert instance.refined == doc.refined


def test_draws_follow_the_source_distribution():
    """The generator's own draws against the package's random_instance."""
    draws = 20_000
    rng = random.Random(4)
    mine = collections.Counter(docgen.draw(rng).cell for _ in range(draws))
    total = sum(docgen.SOURCE_COUNTS.values())
    assert set(mine) <= set(docgen.SOURCE_COUNTS)
    for cell, count in docgen.SOURCE_COUNTS.items():
        expected = draws * count / total
        # five standard deviations, and one draw either way
        assert abs(mine[cell] - expected) <= 5 * expected ** 0.5 + 1, cell
    source = collections.Counter()
    rng = random.Random(5)
    for _ in range(2_000):
        g = cc.selftest.random_instance(rng, max_pieces=docgen.MAX_PIECES)
        perm = list(g.refined_map.perm)
        kind = "real_line" if isinstance(g.refinement.base, cc.partition.RealLinePartition) else "abstract"
        source[(kind, g.refined, perm == sorted(perm), len(perm))] += 1
    assert set(source) <= set(docgen.SOURCE_COUNTS)
    for cell, count in source.items():
        expected = 2_000 * docgen.SOURCE_COUNTS[cell] / total
        assert abs(count - expected) <= 5 * expected ** 0.5 + 1, cell


def test_admissible_profiles_match_the_package_rule():
    for p in range(5):
        for profile in workloads.admissible_profiles(p):
            assert cc.dynamics.check_pi(cc.dynamics.PiProfile(k=1, p=p, pi=dict(profile))).ok
    assert len(workloads.admissible_profiles(3)) == 5


def test_declared_metrics_match_what_the_run_prints():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in declared["per_layer"]}
    printed = set(tracing.layer_metrics(tracing.Tracer())) | {"trace.overhead_s", "trace.overhead_ratio"}
    assert per_layer == printed
    assert {m["name"] for m in declared["end_to_end"]} == {
        "setup_s", "items_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"
    }
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)
