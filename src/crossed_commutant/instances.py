"""Loading, validating, and serializing instance documents.

An instance document is a JSON object describing a partition, an optional
refinement, and the dynamics:

    {
      "type": "real_line" | "abstract",
      "jump_points": ["p/q", ...],            # real_line
      "pieces": 3,                            # abstract: base piece count
      "additions": {"<interval-id>": ["p/q", ...]},   # real_line refinement
      "cells": {"<piece-id>": 2},             # abstract refinement
      "perm": [...],                          # unrefined dynamics
      "base_perm": [...], "refined_perm": [...],      # refined dynamics
      "window": 6                             # optional table window
    }

Rationals are strings ("3/4", "-2", "0.25") or integers; floats are refused.
A document either parses to mutually consistent components or raises
InstanceFormatError carrying every problem found.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .dynamics import PieceMap
from .errors import EngineError, InstanceFormatError
from .partition import (
    AbstractPartition,
    Partition,
    RealLinePartition,
    Refinement,
    as_fraction,
    build_abstract_partition,
    build_real_line_partition,
    identity_refinement,
    refine_abstract,
    refine_real_line,
)

DEFAULT_WINDOW = 6
MAX_WINDOW = 10_000  # report tabulates every degree in -window..window


@dataclass
class Instance:
    """A parsed instance: partitions, dynamics, and the analysis window.

    Unrefined documents are normalized to the identity refinement with both
    maps equal, so downstream code handles one shape.  ``refined`` records
    whether the document genuinely refined anything.
    """

    kind: str
    refinement: Refinement
    base_map: PieceMap
    refined_map: PieceMap
    window: int
    refined: bool

    @property
    def base(self) -> Partition:
        return self.refinement.base

    @property
    def analysis_partition(self) -> Partition:
        return self.refinement.refined


def _expect_int_list(value: Any, name: str, problems: list[str]) -> list[int] | None:
    if not isinstance(value, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        problems.append(f"{name}: expected a list of integers")
        return None
    return value


def _perm_entries(
    data: Mapping[str, Any], key: str, count: int, problems: list[str]
) -> list[int] | None:
    """The perm list under ``key`` if it names exactly ``count`` pieces."""
    raw = data.get(key)
    if raw is None:
        problems.append(f"{key}: missing")
        return None
    ids = _expect_int_list(raw, key, problems)
    if ids is not None and len(ids) != count:
        problems.append(f"{key}: expected {count} entries, got {len(ids)}")
        return None
    return ids


def parse_instance(data: Mapping[str, Any], default_window: int = DEFAULT_WINDOW) -> Instance:
    if not isinstance(data, Mapping):
        raise InstanceFormatError(["top level: expected a JSON object"])
    problems: list[str] = []
    kind = data.get("type")
    if kind not in ("real_line", "abstract"):
        raise InstanceFormatError(
            [f"type: expected 'real_line' or 'abstract', got {kind!r}"]
        )

    base: Partition | None = None
    refinement: Refinement | None = None
    refined_mode = False

    if kind == "real_line":
        raw_jumps = data.get("jump_points", [])
        if not isinstance(raw_jumps, list):
            problems.append("jump_points: expected a list")
            raw_jumps = []
        jumps = []
        for i, value in enumerate(raw_jumps):
            try:
                jumps.append(as_fraction(value))
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                problems.append(f"jump_points[{i}]: {exc}")
        if not problems:
            try:
                base = build_real_line_partition(jumps)
            except EngineError as exc:
                problems.append(f"jump_points: {exc}")
        refined_mode = "additions" in data
        if refined_mode and base is not None:
            raw_adds = data.get("additions")
            if not isinstance(raw_adds, Mapping):
                problems.append("additions: expected an object")
            else:
                additions: dict[int, list] = {}
                for key, values in raw_adds.items():
                    try:
                        alpha = int(key)
                    except (TypeError, ValueError):
                        problems.append(f"additions key {key!r}: not an interval id")
                        continue
                    if not isinstance(values, list):
                        problems.append(f"additions[{key}]: expected a list")
                        continue
                    parsed = []
                    for i, value in enumerate(values):
                        try:
                            parsed.append(as_fraction(value))
                        except (ValueError, TypeError, ZeroDivisionError) as exc:
                            problems.append(f"additions[{key}][{i}]: {exc}")
                    additions[alpha] = parsed
                if not problems:
                    try:
                        refinement = refine_real_line(base, additions)
                    except EngineError as exc:
                        problems.append(f"additions: {exc}")
    else:
        count = data.get("pieces")
        refined_mode = "cells" in data
        perm_key = "base_perm" if refined_mode else "perm"
        # piece counts are bare integers: hold them to the perm lists that
        # must name every piece before building anything that large
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            problems.append("pieces: expected a positive integer piece count")
        elif _perm_entries(data, perm_key, count, problems) is not None:
            base = build_abstract_partition(count)
        if refined_mode and base is not None:
            raw_cells = data.get("cells")
            if not isinstance(raw_cells, Mapping):
                problems.append("cells: expected an object")
            else:
                cells: dict[int, int] = {}
                for key, value in raw_cells.items():
                    try:
                        pid = int(key)
                    except (TypeError, ValueError):
                        problems.append(f"cells key {key!r}: not a piece id")
                        continue
                    if not isinstance(value, int) or isinstance(value, bool):
                        problems.append(f"cells[{key}]: expected an integer")
                        continue
                    cells[pid] = value
                sizes = [cells.get(i, 1) for i in range(count)]
                if not problems and (
                    min(sizes) < 1
                    or _perm_entries(data, "refined_perm", sum(sizes), problems) is not None
                ):
                    try:
                        refinement = refine_abstract(base, cells)
                    except EngineError as exc:
                        problems.append(f"cells: {exc}")

    window = data.get("window", default_window)
    if not isinstance(window, int) or isinstance(window, bool) or not 1 <= window <= MAX_WINDOW:
        problems.append(f"window: expected a positive integer of at most {MAX_WINDOW}")
        window = default_window

    if problems or base is None:
        raise InstanceFormatError(problems or ["instance could not be built"])

    if refinement is None:
        refinement = identity_refinement(base)

    def build_map(key: str, partition: Partition) -> PieceMap | None:
        ids = _perm_entries(data, key, partition.piece_count, problems)
        if ids is None:
            return None
        try:
            return PieceMap(partition, tuple(ids))
        except ValueError as exc:
            problems.append(f"{key}: {exc}")
            return None

    if refined_mode:
        for stray in ("perm",):
            if stray in data:
                problems.append("perm: refined instances use base_perm and refined_perm")
        base_map = build_map("base_perm", refinement.base)
        refined_map = build_map("refined_perm", refinement.refined)
    else:
        for stray in ("base_perm", "refined_perm"):
            if stray in data:
                problems.append(f"{stray}: unrefined instances use a single perm")
        base_map = build_map("perm", base)
        refined_map = base_map

    if problems or base_map is None or refined_map is None:
        raise InstanceFormatError(problems or ["instance could not be built"])

    return Instance(
        kind=kind,
        refinement=refinement,
        base_map=base_map,
        refined_map=refined_map,
        window=window,
        refined=refined_mode,
    )


def load_instance(path: str, default_window: int = DEFAULT_WINDOW) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InstanceFormatError([f"cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            [f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"]
        ) from exc
    return parse_instance(data, default_window)


def render_instance(instance: Instance) -> dict[str, Any]:
    """The JSON document for an instance; parsing it again round-trips."""
    out: dict[str, Any] = {"type": instance.kind, "window": instance.window}
    base = instance.base
    if isinstance(base, RealLinePartition):
        out["jump_points"] = [str(t) for t in base.jump_points]
        if instance.refined:
            added = instance.refinement.added_points or {}
            out["additions"] = {
                str(alpha): [str(s) for s in points] for alpha, points in sorted(added.items())
            }
    else:
        assert isinstance(base, AbstractPartition)
        out["pieces"] = base.cardinality
        if instance.refined:
            counts = {
                str(b): len(instance.refinement.children_of(b))
                for b in range(base.piece_count)
            }
            out["cells"] = counts
    if instance.refined:
        out["base_perm"] = list(instance.base_map.perm)
        out["refined_perm"] = list(instance.refined_map.perm)
    else:
        out["perm"] = list(instance.base_map.perm)
    return out
