"""Per-layer spans measured from outside the package.

Each traced public function is replaced by a wrapper that opens a span on
entry and closes it on exit.  The modules bind each other's functions with
``from .x import f``, so a wrapper is installed under every name in every
package module that refers to the original function, not only in the module
that defines it.

Spans live on an in-memory stack while open.  When a span closes it is
folded into per-layer totals (calls, busy time, self time); nothing is
written until the benchmark reads the totals at the end of the run.  Busy
time counts only the outermost span of a layer, so a layer that re-enters
itself is not counted twice.  Self time is a span's duration minus the time
covered by its child spans; children of one span run one after another, so
that is the sum of their durations.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Callable

# (defining module, function, layer).  Layers that share a name are summed.
SPANS = (
    ("instances", "parse_instance", "instances.parse_instance"),
    ("partition", "refine_real_line", "partition.refine"),
    ("partition", "refine_abstract", "partition.refine"),
    ("dynamics", "validate_invariance", "dynamics.validate"),
    ("dynamics", "validate_refined_invariance", "dynamics.validate"),
    ("dynamics", "refined_cycle_classes", "dynamics.refined_cycle_classes"),
    ("dynamics", "perm_power", "dynamics.perm_power"),
    ("dynamics", "perm_cycles", "dynamics.perm_cycles"),
    ("dynamics", "pi_profile", "dynamics.pi_profile"),
    ("crossed", "is_strongly_graded", "crossed.is_strongly_graded"),
    ("crossed", "rational_rank", "crossed.rational_rank"),
    ("crossed", "multiply", "crossed.multiply"),
    ("crossed", "sigma_tilde_pow", "crossed.sigma_tilde_pow"),
    ("commutant", "sep_set", "commutant.sep_set"),
    ("commutant", "brute_force_sep", "commutant.brute_force_sep"),
    ("commutant", "commutant_description", "commutant.commutant_description"),
    ("commutant", "commutant_difference", "commutant.commutant_difference"),
    ("enumeration", "classify_cases", "enumeration.classify_cases"),
    ("cli", "main", "cli.main"),
)
STREAM = ("enumeration", "enumerate_refined_maps", "enumeration.stream")
SUITES = (
    "sep_oracle",
    "action_laws",
    "algebra_laws",
    "commutant_commutes",
    "noncommuting_witness",
    "refinement_monotone",
    "enumeration",
    "profiles",
)
MODULES = ("instances", "partition", "dynamics", "crossed", "commutant", "enumeration", "selftest", "cli")


class Tracer:
    """Open spans on a stack, closed spans folded into per-layer totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.active = True
        self.calls: Counter[str] = Counter()
        self.busy: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self._stack: list[list] = []  # [layer, start, time covered by children]
        self._depth: Counter[str] = Counter()
        self._last_error: BaseException | None = None

    def enter(self, layer: str) -> None:
        self._depth[layer] += 1
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, covered = self._stack.pop()
        duration = self.clock() - start
        self._depth[layer] -= 1
        self.calls[layer] += 1
        self.self_time[layer] += duration - covered
        if not self._depth[layer]:
            self.busy[layer] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def error(self, module: str, exc: BaseException) -> None:
        """Count an exception once, in the innermost traced module it leaves."""
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[module] += 1


def _span(tracer: Tracer, layer: str, module: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter(layer)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            tracer.error(module, exc)
            raise
        finally:
            tracer.exit()

    return traced


def _rank_rows(tracer: Tracer, fn: Callable) -> Callable:
    """Counts the rows handed to ``rational_rank`` before the span opens."""

    @functools.wraps(fn)
    def counted(rows):
        rows = list(rows)
        if tracer.active:
            tracer.counts["crossed.rational_rank.rows"] += len(rows)
        return fn(rows)

    return counted


def _base_maps(tracer: Tracer, fn: Callable) -> Callable:
    """Counts base maps whose lifts were counted, and those with any lift."""

    @functools.wraps(fn)
    def counted(refinement, base_map):
        lifts = fn(refinement, base_map)
        if tracer.active:
            tracer.counts["enumeration.base_maps.walked"] += 1
            tracer.counts["enumeration.base_maps.useful"] += lifts > 0
        return lifts

    return counted


def _stream(tracer: Tracer, layer: str, module: str, fn: Callable) -> Callable:
    """Times each ``next()`` of a lift stream; the consumer's work stays outside."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        lifts = fn(*args, **kwargs)
        while True:
            if not tracer.active:
                yield from lifts
                return
            tracer.enter(layer)
            try:
                lift = next(lifts)
            except StopIteration:
                return
            except Exception as exc:
                tracer.error(module, exc)
                raise
            finally:
                tracer.exit()
            tracer.counts["enumeration.stream.lifts"] += 1
            yield lift

    return traced


def install(tracer: Tracer, package) -> Callable[[], None]:
    """Wrap every traced function under every name bound to it; returns an undo."""
    modules = [package] + [importlib.import_module(f"{package.__name__}.{name}") for name in MODULES]
    replaced: list[tuple[object, str, object]] = []

    def patch(module_name: str, function: str, wrapper: Callable) -> None:
        original = getattr(getattr(package, module_name), function)
        wrapped = wrapper(original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    replaced.append((module, name, value))
                    setattr(module, name, wrapped)

    for module_name, function, layer in SPANS:
        patch(module_name, function, lambda fn, l=layer, m=module_name: _span(tracer, l, m, fn))
    for suite in SUITES:
        patch("selftest", f"suite_{suite}",
              lambda fn, l=f"selftest.{suite}": _span(tracer, l, "selftest", fn))
    module_name, function, layer = STREAM
    patch(module_name, function, lambda fn: _stream(tracer, layer, module_name, fn))
    # counters sit outside the spans of the same functions
    patch("crossed", "rational_rank", lambda fn: _rank_rows(tracer, fn))
    patch("enumeration", "count_refined_maps", lambda fn: _base_maps(tracer, fn))

    def undo() -> None:
        for module, name, value in reversed(replaced):
            setattr(module, name, value)

    return undo


def _timed(tracer: Tracer, layer: str) -> dict[str, float]:
    return {
        f"{layer}.calls": tracer.calls[layer],
        f"{layer}.busy_s": tracer.busy[layer],
        f"{layer}.self_s": tracer.self_time[layer],
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric, by name; layers a workload never calls read 0."""
    out: dict[str, float] = {}
    for layer in (
        "instances.parse_instance",
        "partition.refine",
        "dynamics.validate",
        "dynamics.refined_cycle_classes",
        "dynamics.perm_power",
        "dynamics.pi_profile",
        "crossed.is_strongly_graded",
        "crossed.rational_rank",
        "crossed.multiply",
        "crossed.sigma_tilde_pow",
        "commutant.sep_set",
        "commutant.brute_force_sep",
        "commutant.commutant_description",
        "commutant.commutant_difference",
        "enumeration.classify_cases",
    ):
        out.update(_timed(tracer, layer))
    out["dynamics.perm_cycles.calls"] = tracer.calls["dynamics.perm_cycles"]
    out["crossed.rational_rank.rows"] = tracer.counts["crossed.rational_rank.rows"]
    lifts = tracer.counts["enumeration.stream.lifts"]
    stream_busy = tracer.busy["enumeration.stream"]
    out["enumeration.stream.lifts"] = lifts
    out["enumeration.stream.busy_s"] = stream_busy
    out["enumeration.stream.us_per_lift"] = stream_busy / lifts * 1e6 if lifts else 0.0
    walked = tracer.counts["enumeration.base_maps.walked"]
    out["enumeration.base_maps.walked"] = walked
    out["enumeration.base_maps.useful_ratio"] = (
        tracer.counts["enumeration.base_maps.useful"] / walked if walked else 0.0
    )
    for suite in SUITES:
        out[f"selftest.{suite}.busy_s"] = tracer.busy[f"selftest.{suite}"]
    out["cli.main.self_s"] = tracer.self_time["cli.main"]
    for module in MODULES:
        out[f"{module}.errors"] = tracer.errors[module]
    return out


def dominant_layer(tracer: Tracer, entry_points: tuple[str, ...]) -> str | None:
    """The layer with the most busy time, other than the workload's entry points."""
    candidates = {k: v for k, v in tracer.busy.items()
                  if k not in entry_points and not k.startswith("selftest.")}
    return max(candidates, key=candidates.get) if candidates else None
