"""Print the benchmark trajectory recorded in the BENCH files, oldest first.

Usage, from the root of a source checkout:

    python3 tools/bench_trajectory.py [--dir .] [--json]

Every ``BENCH_<n>.json`` in ``--dir`` is read in the numeric order of n.  Per
workload and end-to-end metric, one row per file that records it gives the
parent's and the change's median.  The drift compares a file's parent median
with the change median of the previous file that records the same workload
and metric, as a relative difference: the two measure much the same code on
different days, so it shows how far the machine's pace moved between them.
``--json`` prints the same rows as one JSON object, keyed by workload and
metric.  Only the standard library is used.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"BENCH_(\d+)\.json")


def bench_files(directory: Path) -> list[Path]:
    """The BENCH files of ``directory``, by their number."""
    numbered = [(int(m.group(1)), p) for p in directory.iterdir() if (m := NAME.fullmatch(p.name))]
    return [p for _, p in sorted(numbered)]


def trajectory(files: list[Path]) -> dict:
    """workload -> metric -> one row per file recording it, each with its drift."""
    out: dict = {}
    for path in files:
        data = json.loads(path.read_text(encoding="utf-8"))
        for workload, entry in data["workloads"].items():
            for metric, m in entry["metrics"].items():
                rows = out.setdefault(workload, {}).setdefault(metric, [])
                row = {"file": path.name, "git_rev": data["git_rev"], "unit": m["unit"],
                       "parent": m["parent"]["median"], "change": m["change"]["median"],
                       "drift": None, "drift_from": None}
                if rows and rows[-1]["change"]:
                    row["drift"] = row["parent"] / rows[-1]["change"] - 1
                    row["drift_from"] = rows[-1]["file"]
                rows.append(row)
    return out


def render(table: dict) -> str:
    lines = []
    for workload, metrics in table.items():
        for metric, rows in metrics.items():
            lines.append(f"{workload} {metric} [{rows[0]['unit']}]")
            for row in rows:
                line = f"  {row['file']:<14} parent {row['parent']:>13,.7g}  change {row['change']:>13,.7g}"
                if row["drift"] is not None:
                    line += f"  drift {row['drift']:+.1%} from {row['drift_from']}"
                lines.append(line)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", type=Path, default=ROOT, help="directory holding the BENCH files")
    parser.add_argument("--json", action="store_true", help="print the rows as JSON")
    args = parser.parse_args(argv)
    table = trajectory(bench_files(args.dir))
    print(json.dumps(table, indent=2, sort_keys=True) if args.json else render(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
