"""Command line front end.

Subcommands:
  validate   check a map (and lift, when refined) against the invariance rules
  report     full analysis: classes, separation tables, commutant, grading
  atlas      enumerate and classify every small configuration
  selftest   run the randomized oracle and law suites
  cases      list the built-in example instances

Exit codes: 0 success, 1 domain violation or failed property, 2 input error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from .commutant import (
    DifferenceDescription,
    SubalgebraView,
    commutant_description,
    commutant_difference,
)
from .crossed import is_strongly_graded
from .dynamics import validate_invariance, validate_refined_invariance
from .enumeration import atlas_instances, classify_cases
from .errors import EngineError, InstanceFormatError, ScaleExceeded
from .fixtures import DESCRIPTIONS, builtin_instance, builtin_names
from .instances import (
    DEFAULT_WINDOW,
    MAX_WINDOW,
    Instance,
    load_instance,
    parse_instance,
    render_instance,
)
from .selftest import run_selftest

GRADING_WINDOW_CAP = 3


def _count(text: str) -> int:
    if not text.strip().removeprefix("+").isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_instance_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("instance", nargs="?", help="path to a JSON instance file")
    sub.add_argument(
        "--builtin",
        metavar="NAME",
        help="use a built-in case instead of a file (see the cases subcommand)",
    )
    sub.add_argument(
        "--window",
        type=int,
        metavar="N",
        help=f"largest degree tabulated (default {DEFAULT_WINDOW} or the file's value)",
    )


def _load(args: argparse.Namespace) -> Instance:
    if (args.instance is None) == (args.builtin is None):
        raise InstanceFormatError(["pass exactly one of an instance path or --builtin NAME"])
    if args.builtin is not None:
        try:
            document = builtin_instance(args.builtin)
        except KeyError as exc:
            raise InstanceFormatError([str(exc.args[0])]) from None
        instance = parse_instance(document)
    else:
        instance = load_instance(args.instance)
    if args.window is not None:
        if not 1 <= args.window <= MAX_WINDOW:
            raise InstanceFormatError(
                [f"--window must be a positive integer of at most {MAX_WINDOW}"]
            )
        instance.window = args.window
    return instance


def _validation_reports(instance: Instance):
    reports = [validate_invariance(instance.analysis_partition, instance.refined_map)]
    if instance.refined:
        reports.append(validate_invariance(instance.base, instance.base_map))
        reports.append(
            validate_refined_invariance(
                instance.refinement, instance.base_map, instance.refined_map
            )
        )
    return reports


def cmd_validate(args: argparse.Namespace) -> int:
    instance = _load(args)
    messages = [m for report in _validation_reports(instance) for m in report.messages()]
    partition = instance.analysis_partition
    print(
        f"instance: {instance.kind} with {partition.piece_count} pieces"
        + (f" refined from {instance.base.piece_count}" if instance.refined else "")
    )
    if messages:
        for message in messages:
            print(f"violation {message}")
        print(f"invalid: {len(messages)} violation(s)")
        return 1
    print("valid: the map preserves the partition structure")
    return 0


def _difference_payload(difference: DifferenceDescription, window: int) -> dict[str, Any]:
    return {
        "active_classes": {
            f"{k},{l}": sorted(pieces)
            for (k, l), pieces in difference.active_classes().items()
        },
        "forbidden": {
            str(n): sorted(difference.forbidden_at(n))
            for n in range(-window, window + 1)
        },
    }


def _report_payload(instance: Instance) -> dict[str, Any]:
    partition = instance.analysis_partition
    fine_view = SubalgebraView.identity(partition)
    description = commutant_description(fine_view, instance.refined_map)
    window = instance.window
    payload: dict[str, Any] = {
        "instance": render_instance(instance),
        "labels": [partition.label_of(p) for p in range(partition.piece_count)],
        "window": window,
        "classes": {str(k): sorted(v) for k, v in sorted(description.class_pieces.items())},
        "sep": {str(n): sorted(description.sep(n)) for n in range(-window, window + 1)},
        "allowed": {str(n): sorted(description.allowed(n)) for n in range(-window, window + 1)},
        "rule": description.rule_text(),
        "coarse_classes": None,
        "tilde_classes": None,
        "coarse_sep": None,
        "difference": None,
    }
    if instance.refined:
        difference = commutant_difference(
            instance.refinement, instance.base_map, instance.refined_map
        )
        coarse = difference.coarse
        payload["coarse_classes"] = {
            str(k): sorted(v) for k, v in sorted(coarse.class_pieces.items())
        }
        payload["tilde_classes"] = {
            f"{k},{l}": sorted(v) for (k, l), v in sorted(difference.tilde_classes.items())
        }
        payload["coarse_sep"] = {str(n): sorted(coarse.sep(n)) for n in range(-window, window + 1)}
        payload["difference"] = _difference_payload(difference, window)
    grading_window = min(window, GRADING_WINDOW_CAP)
    grading = is_strongly_graded(description, instance.refined_map, grading_window)
    payload["grading"] = {
        "strongly_graded": grading.strongly_graded,
        "witness": list(grading.witness) if grading.witness else None,
        "window": grading.window,
        "detail": grading.detail,
    }
    return payload


def _labels(payload: dict[str, Any], ids: list[int]) -> str:
    if not ids:
        return "(none)"
    return ", ".join(payload["labels"][p] for p in ids)


def _print_text_report(payload: dict[str, Any]) -> None:
    window = payload["window"]
    print("pieces: " + " ".join(f"{i}={label}" for i, label in enumerate(payload["labels"])))
    print("periods of the acting map:")
    for k, ids in payload["classes"].items():
        print(f"  period {k}: {_labels(payload, ids)}")
    if payload["coarse_classes"] is not None:
        print("periods seen by the coarse subalgebra:")
        for k, ids in payload["coarse_classes"].items():
            print(f"  period {k}: {_labels(payload, ids)}")
        print("refined classes (parent period k, multiplier l):")
        for key, ids in payload["tilde_classes"].items():
            k, l = key.split(",")
            print(f"  (k={k}, l={l}): {_labels(payload, ids)}")
    print(f"separation and support tables (symmetric in the sign of n), n = 0..{window}:")
    for n in range(window + 1):
        sep = payload["sep"][str(n)]
        print(f"  n={n}: separated {_labels(payload, sep)}")
    print(f"rule: {payload['rule']}")
    if payload["difference"] is not None:
        print("coarse commutant minus refined commutant:")
        active = payload["difference"]["active_classes"]
        if not active:
            print("  empty at every degree (all multipliers are 1)")
        for key, ids in active.items():
            k, l = (int(x) for x in key.split(","))
            print(
                f"  (k={k}, l={l}): {_labels(payload, ids)} forbidden exactly when "
                f"{k} | n and {k * l} does not divide n"
            )
    grading = payload["grading"]
    if grading["strongly_graded"]:
        print(f"grading: strongly graded within window {grading['window']}")
    else:
        n, m = grading["witness"]
        print(f"grading: not strongly graded, witness ({n}, {m}); {grading['detail']}")


def cmd_report(args: argparse.Namespace) -> int:
    instance = _load(args)
    messages = [m for report in _validation_reports(instance) for m in report.messages()]
    if messages:
        for message in messages:
            print(f"violation {message}", file=sys.stderr)
        return 1
    payload = _report_payload(instance)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_text_report(payload)
    return 0


def cmd_atlas(args: argparse.Namespace) -> int:
    stream = atlas_instances(args.points, base_n=args.base_n, max_lifts=args.max_lifts)
    groups = classify_cases(stream)
    ordered = sorted(groups.values(), key=lambda g: (len(g.signature.triples), g.signature.triples))
    if args.json:
        rows = []
        for group in ordered:
            refinement, base_map, refined_map = group.representative
            rows.append(
                {
                    "signature": str(group.signature),
                    "triples": [list(t) for t in group.signature.triples],
                    "count": group.count,
                    "representative": {
                        "pieces": refinement.refined.piece_count,
                        "base_perm": list(base_map.perm),
                        "refined_perm": list(refined_map.perm),
                    },
                }
            )
        print(json.dumps({"points": args.points, "cases": rows}, indent=2))
        return 0
    total = sum(group.count for group in ordered)
    print(f"{len(ordered)} distinct case(s) across {total} instance(s) with {args.points} added point(s):")
    for group in ordered:
        refinement, base_map, refined_map = group.representative
        print(
            f"  {group.signature}: {group.count} instance(s); representative on "
            f"{refinement.refined.piece_count} pieces, base {list(base_map.perm)}, "
            f"lift {list(refined_map.perm)}"
        )
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    seed = args.seed
    env_seed = os.environ.get("CROSSED_COMMUTANT_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise InstanceFormatError(
                [f"CROSSED_COMMUTANT_SEED must be an integer, got {env_seed!r}"]
            ) from None
    if args.iterations < 1:
        raise InstanceFormatError(["--iterations must be a positive integer"])
    results = run_selftest(seed, args.iterations)
    failed = False
    print(f"seed {seed}, {args.iterations} base iterations")
    for result in results:
        print(f"{result.name}: {result.passed}/{result.total}")
        if not result.ok:
            failed = True
            if result.counterexample:
                print(f"  counterexample: {result.counterexample}")
    print("selftest: " + ("FAIL" if failed else "ok"))
    return 1 if failed else 0


def cmd_cases(args: argparse.Namespace) -> int:
    if args.json:
        payload = {name: builtin_instance(name) for name in builtin_names()}
        print(json.dumps(payload, indent=2))
        return 0
    for name in builtin_names():
        print(f"{name}: {DESCRIPTIONS[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossed-commutant",
        description=(
            "Exact analysis of crossed products of piecewise constant function "
            "algebras by piece-permuting maps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check invariance and lift consistency")
    _add_instance_args(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_report = sub.add_parser("report", help="full commutant and grading report")
    _add_instance_args(p_report)
    p_report.add_argument("--json", action="store_true", help="machine-readable output")
    p_report.set_defaults(func=cmd_report)

    p_atlas = sub.add_parser("atlas", help="classify all small configurations")
    p_atlas.add_argument("--points", type=_count, required=True, metavar="M",
                         help="total number of jump points to add")
    p_atlas.add_argument("--base-n", type=_count, default=None, metavar="N",
                         help="jump points in the base (default: minimal)")
    p_atlas.add_argument("--max-lifts", type=int, default=1_000_000,
                         help="budget on lifts per base map")
    p_atlas.add_argument("--json", action="store_true", help="machine-readable output")
    p_atlas.set_defaults(func=cmd_atlas)

    p_selftest = sub.add_parser("selftest", help="randomized oracle and law suites")
    p_selftest.add_argument("--seed", type=int, default=1105)
    p_selftest.add_argument("--iterations", type=int, default=1000)
    p_selftest.set_defaults(func=cmd_selftest)

    p_cases = sub.add_parser("cases", help="list the built-in example instances")
    p_cases.add_argument("--json", action="store_true", help="emit the instance documents")
    p_cases.set_defaults(func=cmd_cases)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceFormatError as exc:
        for problem in exc.problems:
            print(f"input error: {problem}", file=sys.stderr)
        return 2
    except ScaleExceeded as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
