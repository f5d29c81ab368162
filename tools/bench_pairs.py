"""Benchmark two checkouts in alternating pairs and record the summary.

Usage, from the root of a source checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload atlas --pairs 10 --seconds 20 --seed 61 --out BENCH_7.json

``--parent`` and ``--change`` each name a source directory, used as it is,
or a git revision of this repository, exported with ``git archive`` into a
temporary directory that is removed afterwards.  Pair i runs
``perfbench/run.py --seed <seed + i>`` once on each side, with the same
interpreter and settings; the parent runs first in even pairs and the change
first in odd ones, so a drift of the machine's pace weighs on both sides.
Every run compiles its sources afresh, with an empty bytecode cache of its
own and no bytecode written, so neither side starts from cached bytecode.

The output file records the machine, the interpreter and both revisions,
and per workload and end-to-end metric each side's median, quartiles, run
count and seeds, the number of pairs the change won, and whether a gain
holds: the change wins at least nine pairs in ten and its median is better
than the parent's by more than the parent's interquartile range.  A metric
is within its bound unless the change's median is worse than the parent's by
more than the metric's relative ``bound`` in ``BENCHMARK.json``.  Each run's
wall seconds, the whole subprocess from start to exit, are recorded with
their median per side, so the cost of a measurement can be read ahead.  Each
workload is its own entry; an existing file measured on the same two
revisions, interpreter and machine keeps its other workloads.  Every
completed pair is written to ``<out>.partial``, which replaces the file only
after the last pair: a measurement cut short keeps the pairs it finished
there and leaves the earlier file as it was.  After the last pair, one line
per metric on stderr gives its ratio, the pairs the change won, and whether
the gain holds and the metric is within its bound.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_result(stdout: str) -> dict:
    """The result of one run: its last line, with the context line before it."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("a run prints a context line and a result line")
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    return {
        "seed": context["seed"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def side_summary(values: list[float], seeds: list[int]) -> dict:
    """Median and quartiles of one side's runs, with the seeds they used."""
    if not values:
        raise ValueError("no runs to summarize")
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "seeds": list(seeds)}


def compare(parent_runs: list[dict], change_runs: list[dict], declared: list[dict]) -> dict:
    """Per declared end-to-end metric, both sides' summaries and the pair verdict.

    The two run lists are in pair order: run i of each side used the same seed.
    """
    seeds = [run["seed"] for run in parent_runs]
    if seeds != [run["seed"] for run in change_runs]:
        raise ValueError("the two sides did not run the same seeds in the same order")
    out = {}
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        before = [run["metrics"][name] for run in parent_runs]
        after = [run["metrics"][name] for run in change_runs]
        parent, change = side_summary(before, seeds), side_summary(after, seeds)
        wins = sum((a > b) if higher else (a < b) for b, a in zip(before, after))
        gain = (change["median"] - parent["median"]) * (1 if higher else -1)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "ratio": change["median"] / parent["median"] if parent["median"] else None,
            "gain_holds": wins * 10 >= 9 * len(seeds) and gain > parent["q3"] - parent["q1"],
            "within_bound": -gain <= metric["bound"] * abs(parent["median"]),
        }
    return out


def wall_summary(runs: list[dict]) -> dict:
    """Each timed run's wall seconds, in pair order, and their median (None if untimed)."""
    walls = [run["wall_s"] for run in runs if "wall_s" in run]
    return {"runs": walls, "median": statistics.median(walls) if walls else None}


def workload_entry(parent_runs: list[dict], change_runs: list[dict], declared: list[dict],
                   seconds: float, first: list[str]) -> dict:
    return {
        "pairs": len(parent_runs),
        "seconds": seconds,
        "first": first,
        "attempted": {"parent": sum(r["attempted"] for r in parent_runs),
                      "change": sum(r["attempted"] for r in change_runs)},
        "failed": {"parent": sum(r["failed"] for r in parent_runs),
                   "change": sum(r["failed"] for r in change_runs)},
        "wall_s": {"parent": wall_summary(parent_runs), "change": wall_summary(change_runs)},
        "metrics": compare(parent_runs, change_runs, declared),
    }


def print_verdict(entry: dict) -> None:
    """One stderr line per end-to-end metric of a finished workload entry."""
    for name, m in entry["metrics"].items():
        ratio = "n/a" if m["ratio"] is None else f"{m['ratio']:.3f}"
        print(f"{name}: ratio {ratio}, change won {m['change_wins']}/{entry['pairs']}, "
              f"gain_holds {m['gain_holds']}, within_bound {m['within_bound']}", file=sys.stderr)


def machine() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"system": platform.system(), "machine": platform.machine(),
            "cpu": model, "nproc": os.cpu_count()}


def _git(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)


def git_rev(directory: Path) -> str | None:
    """HEAD of a checkout, marked when its files differ from that commit."""
    head = _git(["rev-parse", "HEAD"], directory)
    if head.returncode != 0:
        return None
    if Path(_git(["rev-parse", "--show-toplevel"], directory).stdout.strip()) != directory:
        return None  # a plain directory inside some other repository
    dirty = _git(["status", "--porcelain", "--untracked-files=no"], directory).stdout.strip()
    return head.stdout.strip() + ("+uncommitted" if dirty else "")


def checkout(spec: str, workdir: Path, label: str) -> tuple[Path, str | None]:
    """A source directory for ``spec``, and the revision it holds."""
    path = Path(spec)
    if path.is_dir():
        path = path.resolve()
        return path, git_rev(path)
    rev = _git(["rev-parse", "--verify", f"{spec}^{{commit}}"], ROOT)
    if rev.returncode != 0:
        raise SystemExit(f"{spec!r} is neither a directory nor a revision of {ROOT}")
    target = workdir / label
    target.mkdir()
    archive = workdir / f"{label}.tar"
    with archive.open("wb") as out:
        subprocess.run(["git", "archive", rev.stdout.strip()], cwd=ROOT, stdout=out, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    archive.unlink()
    return target, rev.stdout.strip()


def run_once(directory: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run in ``directory``, compiling its sources afresh, with its wall seconds.

    Each run reads bytecode from its own empty cache and writes none, so a
    checkout with a leftover ``__pycache__`` starts no faster than a fresh one.
    """
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache, "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=directory, env=env, capture_output=True, text=True,
        )
        wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"run in {directory} (seed {seed}) exited {done.returncode}:\n{done.stderr}")
    return {**parse_result(done.stdout), "wall_s": wall}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="source directory or git revision")
    parser.add_argument("--change", required=True, help="source directory or git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not 0 < args.seconds < math.inf:
        parser.error("--seconds must be a positive number")
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}, got {args.workload!r}")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {label: checkout(spec, Path(tmp), label)
                 for label, spec in (("parent", args.parent), ("change", args.change))}
        declared = json.loads((sides["change"][0] / "BENCHMARK.json").read_text())["end_to_end"]
        header = {
            "machine": machine(),
            "python": platform.python_version(),
            "git_rev": {label: rev for label, (_, rev) in sides.items()},
        }
        document = json.loads(args.out.read_text()) if args.out.exists() else {**header, "workloads": {}}
        if any(document.get(key) != value for key, value in header.items()):
            raise SystemExit(f"{args.out} was measured on other revisions or another machine")
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        first = []
        partial = args.out.with_name(args.out.name + ".partial")
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            first.append(order[0])
            for label in order:
                run = run_once(sides[label][0], args.workload, args.seed + i, args.seconds)
                runs[label].append(run)
                print(f"pair {i + 1}/{args.pairs} {label}: "
                      f"items_per_s {run['metrics'].get('items_per_s')}, "
                      f"wall {run['wall_s']:.1f} s", file=sys.stderr)
            document["workloads"][args.workload] = workload_entry(
                runs["parent"], runs["change"], declared, args.seconds, first
            )
            partial.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        partial.replace(args.out)
    print_verdict(document["workloads"][args.workload])
    return 0


if __name__ == "__main__":
    sys.exit(main())
