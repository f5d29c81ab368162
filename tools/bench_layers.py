"""Time three layers of two checkouts in alternating fresh processes.

Usage, from the root of a source checkout:

    python3 tools/bench_layers.py --parent HEAD~1 --change HEAD

``--parent`` and ``--change`` each name a source directory or a git
revision, checked out as ``tools/bench_pairs.py`` does.  Each side runs in
``PROCESSES`` fresh interpreters, the parent first in even rounds and the
change first in odd ones.  A process imports the side's ``src`` and times
every layer ``REPEATS`` times over one fixed input set, in CPU time
(``time.process_time_ns``); its reading is the least time per call.  Per
layer, the JSON document on stdout gives each side's minimum and median of
those readings in microseconds per call, every reading in round order, and
the rounds the change won.  The layers:

- ``block_head``: ``refined_cycle_classes`` and ``pi_profile`` at the head
  of every block of lifts that shares one profile, on the grid of the
  ``lift-stream`` workload (875 calls), as that workload profiles them; the
  grid is ``LIFT_GRID`` of the side's own ``perfbench/workloads.py``;
- ``commutant_difference``: on the 500 refined draws of ``random_instance``
  with ``random.Random(4481)``;
- ``lift_stream``: the bare ``enumerate_refined_maps`` stream over the same
  grid, per lift.

Only the standard library is used.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402

LAYERS = ("block_head", "commutant_difference", "lift_stream")
PROCESSES, REPEATS = 10, 5  # fresh processes per side; passes per layer in each process
DRAW_SEED, DRAWS = 4481, 500


def layer_inputs(cc, lift_grid) -> dict:
    """Per layer, the function that makes one pass and the calls a pass makes."""
    dynamics, enumeration = cc.dynamics, cc.enumeration
    grid, heads = [], []
    for k, p in lift_grid:
        refinement, base_map, _ = dynamics.realize_pi(k, p, dynamics.PiProfile(k=k, p=p, pi={1: p + 1}))
        grid.append((refinement, base_map))
        block = math.factorial(p) ** k  # the workload's block: its lifts share one profile
        for i, lift in enumerate(enumeration.enumerate_refined_maps(refinement, base_map)):
            if i % block == 0:
                heads.append((refinement, base_map, lift, range(k)))
    rng, draws = random.Random(DRAW_SEED), []
    while len(draws) < DRAWS:
        inst = cc.selftest.random_instance(rng)
        if inst.refined:
            draws.append((inst.refinement, inst.base_map, inst.refined_map))

    def block_head():
        for refinement, base_map, lift, orbit in heads:
            dynamics.pi_profile(dynamics.refined_cycle_classes(refinement, base_map, lift), orbit)

    def commutant_difference():
        for args in draws:
            cc.commutant.commutant_difference(*args)

    def lift_stream():
        for refinement, base_map in grid:
            for _ in enumeration.enumerate_refined_maps(refinement, base_map):
                pass

    lifts = sum(1 for r, b in grid for _ in enumeration.enumerate_refined_maps(r, b))
    return {"block_head": (block_head, len(heads)),
            "commutant_difference": (commutant_difference, len(draws)),
            "lift_stream": (lift_stream, lifts)}


def measure() -> dict:
    """In this process: per layer, the least CPU time per call over ``REPEATS`` passes."""
    import crossed_commutant as cc
    from crossed_commutant import commutant, dynamics, enumeration, selftest  # noqa: F401
    from workloads import LIFT_GRID

    out = {"package": cc.__file__, "layers": {}}
    for name, (work, calls) in layer_inputs(cc, LIFT_GRID).items():
        best = math.inf
        for _ in range(REPEATS):
            start = time.process_time_ns()
            work()
            best = min(best, time.process_time_ns() - start)
        out["layers"][name] = {"calls": calls, "us_per_call": best / calls / 1000}
    return out


def run_process(directory: Path) -> dict:
    """One fresh interpreter on ``directory``'s ``src`` and ``perfbench``; its reading per layer."""
    path = os.pathsep.join(str(directory / sub) for sub in ("src", "perfbench"))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory(prefix="bench-layers-") as cwd:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--measure"],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
    if done.returncode != 0:
        raise SystemExit(f"a process on {directory} exited {done.returncode}:\n{done.stderr}")
    reading = json.loads(done.stdout.splitlines()[-1])
    if not Path(reading["package"]).resolve().is_relative_to(directory.resolve()):
        raise SystemExit(f"a process on {directory} imported {reading['package']}")
    return reading


def summarize(readings: dict[str, list[dict]]) -> dict:
    """Per layer: each side's readings in round order, their minimum and median, the rounds won."""
    out = {}
    for layer in LAYERS:
        sides = {side: [r["layers"][layer]["us_per_call"] for r in runs] for side, runs in readings.items()}
        calls = {r["layers"][layer]["calls"] for runs in readings.values() for r in runs}
        if len(calls) != 1:
            raise ValueError(f"the sides made different numbers of {layer} calls: {sorted(calls)}")
        entry = {"calls": calls.pop(), "unit": "us per call"}
        for side, values in sides.items():
            entry[side] = {"min": min(values), "median": statistics.median(values), "runs": values}
        entry["change_wins"] = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        entry["median_ratio"] = entry["change"]["median"] / entry["parent"]["median"]
        out[layer] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="source directory or git revision")
    parser.add_argument("--change", help="source directory or git revision")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    with tempfile.TemporaryDirectory(prefix="bench-layers-") as tmp:
        sides = {label: bench_pairs.checkout(spec, Path(tmp), label)
                 for label, spec in (("parent", args.parent), ("change", args.change))}
        readings: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(PROCESSES):
            for label in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                readings[label].append(run_process(sides[label][0]))
            print(f"round {i + 1}/{PROCESSES} done", file=sys.stderr)
    print(json.dumps({
        "machine": bench_pairs.machine(),
        "python": platform.python_version(),
        "git_rev": {label: rev for label, (_, rev) in sides.items()},
        "processes": PROCESSES,
        "repeats": REPEATS,
        "layers": summarize(readings),
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
