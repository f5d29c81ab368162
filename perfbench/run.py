"""Benchmark of the crossed-commutant engine, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload report --seed 1 --seconds 20 --trace 0

Each workload runs in this one process and thread as a closed loop with one
client: the next operation starts when the previous one has returned.  The
operations cycle over a fixed list of items made from the seed, in a fresh
seeded order each round, until the operations have taken ``--seconds`` in
total; the first round always completes.  Every output is checked outside
the timed region.  With ``--trace 0`` the last line of standard output
carries the end-to-end metrics, with ``--trace 1`` the per-layer ones (see
NOTES.md); the line before it records the run's context and details.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
PACKAGE = "crossed_commutant"
SETUP_REPEATS = 11
TAIL_LADDER_PERMILLE = (999, 990, 950, 900)
TAIL_BEYOND = 10
# Times are scaled to a machine on which the pace kernel takes this long.
REFERENCE_PACE_S = 0.0006

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def pace_kernel() -> None:
    """A fixed pure-Python load of tuples, dict updates and exact fractions.

    It shares no code with the package, so no change there can move it.
    """
    total = Fraction(0)
    seen: dict[tuple[int, ...], int] = {}
    for i in range(150):
        key = tuple((i * j) % 17 for j in range(12))
        seen[key] = seen.get(key, 0) + 1
        total += Fraction(i % 7, i % 5 + 1)


def pace() -> float:
    """Seconds the pace kernel takes now; the machine's current speed.

    The cyclic collector is held off while the kernel runs.  A collection
    started by the kernel's allocations would walk the program's whole live
    heap, so a program that keeps more objects alive would read as a slower
    machine and have its own time scaled down.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        pace_kernel()
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def scaled(elapsed: float, paces: list[float]) -> float:
    """``elapsed`` as it would read at the reference pace.

    On a shared machine the speed of the same code can drift by a third
    and more over seconds and minutes.  Timing the pace kernel around and
    during each operation and scaling by its median time removes most of
    that drift from the comparison between two runs; one slow reading does
    not move the median.
    """
    return elapsed * REFERENCE_PACE_S / statistics.median(paces)


class PaceSampler:
    """Times the pace kernel every 50 ms while an operation runs.

    A long operation sees the pace change while it runs, which readings
    taken only before and after it would miss.  The kernel runs in a
    SIGALRM handler, and the time spent there is taken off the operation.
    """

    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self._ticks: list[tuple[float, float, float]] = []  # start, duration, pace
        # left installed: a tick already pending when the timer stops then
        # lands here, outside the operation, instead of being reported lost
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        reading = pace()
        self._ticks.append((started, time.perf_counter() - started, reading))

    def start(self) -> None:
        self._ticks = []
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self, started: float, ended: float) -> tuple[float, list[float]]:
        """The operation's own time between ``started`` and ``ended``, and the paces read."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        inside = [t for t in self._ticks if started <= t[0] < ended]
        return ended - started - sum(t[1] for t in inside), [t[2] for t in inside]


def _rank(count: int, permille: int) -> int:
    """1-based nearest rank of a percentile given in tenths of a percent."""
    return max(1, -(-count * permille // 1000))


def tail_percentile(item_count: int) -> float | None:
    """The highest ladder percentile with at least 10 items beyond it, if any."""
    for permille in TAIL_LADDER_PERMILLE:
        if item_count - _rank(item_count, permille) >= TAIL_BEYOND:
            return permille / 10
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), round(p * 10)) - 1]


def summarize(samples: list[list[float]], work: list[int]) -> dict:
    """Throughput, median and tail latency from per-item timing samples.

    Each item is stood for by the median of its calls; the items are then
    the samples of the percentile rule.  The tail is read at the highest
    ladder percentile with at least 10 items beyond it, or is the slowest
    item when there are fewer than 100 items.  Throughput is the work of one
    pass over the items divided by the sum of their times.  Small item
    lists also get each item's time, in item order.
    """
    typical = [statistics.median(s) for s in samples]
    p = tail_percentile(len(typical))
    tail = max(typical) if p is None else percentile(typical, p)
    summary = {
        "items_per_s": sum(work) / sum(typical),
        "op_p50_ms": statistics.median(typical) * 1e3,
        "op_tail_ms": tail * 1e3,
        "tail_percentile": p if p is not None else "slowest item",
        "tail_items": len(typical),
    }
    if p is None:
        summary["item_ms"] = [t * 1e3 for t in typical]
    return summary


def measure(workload, cc, items: list, seconds: float, rng: random.Random,
            tracer: tracing.Tracer | None = None) -> dict:
    """Closed loop over ``items`` until the operations have taken ``seconds``.

    Records each call's time scaled to the reference pace, and the raw time.
    A tracer, when given, is active only while an operation runs; its spans
    include the pace readings taken during the operation.
    """
    samples: list[list[float]] = [[] for _ in items]
    raw: list[list[float]] = [[] for _ in items]
    paces: list[float] = []
    sampler = PaceSampler()
    work = [0] * len(items)
    attempted = failed = 0
    busy = 0.0
    first_round = True
    while first_round or busy < seconds:
        order = list(range(len(items)))
        rng.shuffle(order)
        for i in order:
            if not first_round and busy >= seconds:
                break
            before = pace()
            if tracer is not None:
                tracer.active = True
            sampler.start()
            started = time.perf_counter()
            try:
                output = workload.run(cc, items[i])
            except Exception as exc:  # a failed operation is data, not a crash
                output = exc
            ended = time.perf_counter()
            elapsed, during = sampler.stop(started, ended)
            if tracer is not None:
                tracer.active = False
            readings = [before, *during, pace()]
            busy += elapsed
            raw[i].append(elapsed)
            samples[i].append(scaled(elapsed, readings))
            paces += readings
            attempted += 1
            ok = False
            if isinstance(output, Exception):
                print(f"operation on item {i} raised {output!r}", file=sys.stderr)
            else:
                ok, work[i] = workload.check(cc, items[i], output)
            failed += not ok
        first_round = False
    return {"samples": samples, "raw": raw, "paces": paces, "work": work,
            "attempted": attempted, "failed": failed}


def _fresh_import():
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    for name in tracing.MODULES:
        importlib.import_module(f"{PACKAGE}.{name}")
    return package


def set_up(workload, seed: int, workdir: Path):
    """Import, generate inputs and warm up, several times; returns the last set-up.

    The set-up time is the median over the repeats, scaled to the reference
    pace like the operations.  Inputs the package plays no part in are made
    once, untimed, before the repeats; each repeat starts after the garbage
    of the one before it has been collected.
    """
    workload.prepare(seed, workdir)
    times = []
    sampler = PaceSampler()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = pace()
        sampler.start()
        started = time.perf_counter()
        cc = _fresh_import()
        items = workload.setup(cc, seed, workdir)
        workload.warm_up(cc, items)
        elapsed, during = sampler.stop(started, time.perf_counter())
        times.append(scaled(elapsed, [before, *during, pace()]))
    return cc, items, statistics.median(times)


def git_revision(root: Path) -> str | None:
    """The checkout's commit, or None outside a git repository or without git."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            # look for a repository at the checkout's root only, not above it
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / PACKAGE / "__init__.py").is_file():
        print(f"no package source under {SOURCE}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    seed_was_set = workloads.clear_seed_override()

    workload = workloads.WORKLOADS[args.workload]()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        cc, items, setup_s = set_up(workload, args.seed, workdir)
        if not Path(cc.__file__).resolve().is_relative_to(SOURCE):
            print(f"{PACKAGE} was imported from {cc.__file__}, not {SOURCE}", file=sys.stderr)
            return 2
        rng = random.Random(args.seed)
        context = {
            "workload": args.workload,
            "seed": args.seed,
            "traced": bool(args.trace),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_revision": git_revision(ROOT),
            "seed_override_cleared": seed_was_set,
            "work_unit": workload.unit,
            "items": len(items),
        }
        if args.trace:
            untraced = measure(workload, cc, items, 0.0, rng)
            tracer = tracing.Tracer()
            tracer.active = False
            undo = tracing.install(tracer, cc)
            try:
                result = measure(workload, cc, items, args.seconds, rng, tracer)
            finally:
                undo()
            # one pass over the items, traced minus untraced, at the reference pace
            plain = sum(s[0] for s in untraced["samples"])
            traced = sum(statistics.median(s) for s in result["samples"])
            metrics = tracing.layer_metrics(tracer)
            metrics["trace.overhead_s"] = traced - plain
            metrics["trace.overhead_ratio"] = traced / plain
            context["dominant_layer"] = tracing.dominant_layer(tracer, workload.entry_points)
            attempted = untraced["attempted"] + result["attempted"]
            failed = untraced["failed"] + result["failed"]
        else:
            result = measure(workload, cc, items, args.seconds, rng)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            summary = summarize(result["samples"], result["work"])
            metrics = {
                "setup_s": setup_s,
                "items_per_s": summary.pop("items_per_s"),
                "op_p50_ms": summary.pop("op_p50_ms"),
                "op_tail_ms": summary.pop("op_tail_ms"),
                "peak_rss_mb": peak_rss_mb,
            }
            context.update(summary)
            unscaled = summarize(result["raw"], result["work"])
            context["unscaled"] = {k: unscaled[k] for k in ("items_per_s", "op_p50_ms", "op_tail_ms")}
            attempted, failed = result["attempted"], result["failed"]
        context["timed_calls"] = result["attempted"]
        context["pace_ms"] = statistics.median(result["paces"]) * 1e3
        context["fail_ratio"] = failed / attempted
        context.update(workload.info())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
