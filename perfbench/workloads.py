"""The four workloads: inputs, the timed operation, and the output check.

A workload turns the benchmark seed into a fixed list of items.  ``run``
is the operation a user waits for and is the only timed code.  ``prepare``
makes the inputs that the benchmark's own code generates, once and untimed;
``setup``, timed as set-up, makes those that need the package.  ``check``
runs outside the timed region, judges the output by its meaning, and
returns the work the operation accounted for (reports, lifts or subjects).
Package functions are always looked up through their modules at call time,
so the wrappers of a traced run are seen.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import re
from fractions import Fraction
from pathlib import Path

import docgen

SEED_ENV = "CROSSED_COMMUTANT_SEED"


def clear_seed_override(environ=os.environ) -> bool:
    """Drop the variable that would silently override ``selftest --seed``.

    Returns whether it was set.
    """
    return environ.pop(SEED_ENV, None) is not None


def _cli(cc, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cc.cli.main(argv)
    return code, out.getvalue()


def _power(perm: list[int], n: int) -> list[int]:
    """perm**n by repeated application; the checks avoid the package's own power."""
    if n < 0:
        inverse = [0] * len(perm)
        for i, image in enumerate(perm):
            inverse[image] = i
        perm, n = inverse, -n
    result = list(range(len(perm)))
    for _ in range(n):
        result = [perm[i] for i in result]
    return result


class Workload:
    def prepare(self, seed: int, workdir: Path) -> None:
        """Most workloads have no inputs that the package does not make."""


# The report grades every degree pair up to min(window, 3); the figure is
# fixed here, not read from the package, so that lowering it there shows.
GRADING_WINDOW = 3


class Report(Workload):
    """``report FILE --json`` over a seeded stream of instance documents."""

    name = "report"
    unit = "reports"
    entry_points = ("cli.main",)

    def __init__(self) -> None:
        self.verified: dict[int, str] = {}

    def prepare(self, seed: int, workdir: Path) -> None:
        """Generate the documents and write them out.

        No package change can move this work, so it is left out of set-up
        time, where it would only dilute the package's share.
        """
        self.docs = docgen.generate(seed)
        self.paths = [workdir / f"doc_{i:04d}.json" for i in range(len(self.docs))]
        for path, doc in zip(self.paths, self.docs):
            path.write_text(json.dumps(doc.data))
        # the same two small documents, one strongly graded and one not,
        # whatever the seed, so that the warm-up work does not vary
        self.warm_up_paths = [workdir / "warm_up_graded.json", workdir / "warm_up_swap.json"]
        for path, perm in zip(self.warm_up_paths, ([0], [1, 0])):
            path.write_text(json.dumps({"type": "abstract", "pieces": len(perm), "perm": perm, "window": docgen.WINDOW}))

    def setup(self, cc, seed: int, workdir: Path) -> list:
        return [(i, str(path), doc) for i, (path, doc) in enumerate(zip(self.paths, self.docs))]

    def warm_up(self, cc, items: list) -> None:
        for path in self.warm_up_paths:
            _cli(cc, ["report", str(path), "--json"])

    def run(self, cc, item):
        return _cli(cc, ["report", item[1], "--json"])

    def check(self, cc, item, output) -> tuple[bool, int]:
        index, _, doc = item
        code, text = output
        if code != 0:
            return False, 1
        if self.verified.get(index) == text:
            return True, 1
        try:
            ok = check_report(cc, doc.data, json.loads(text))
        except (ValueError, KeyError, TypeError):
            ok = False
        if ok:
            self.verified[index] = text
        return ok, 1

    def info(self) -> dict:
        return {"shares": docgen.shares(self.docs)}


def check_report(cc, data: dict, payload: dict) -> bool:
    """A report payload against the brute-force oracle, by meaning.

    Separation tables must equal ``brute_force_sep`` on the fine and coarse
    views, the forbidden sets must be the fine minus the coarse separation
    sets, a non-graded witness must be rank-deficient by ``rational_rank``,
    and a graded verdict must hold for every degree pair of its window,
    which must reach at least ``GRADING_WINDOW`` where the table does.
    """
    commutant = cc.commutant
    instance = cc.instances.parse_instance(data)
    window = instance.window
    fine_map = instance.refined_map
    fine_view = commutant.SubalgebraView.identity(instance.analysis_partition)
    size = fine_map.size
    sep: dict[int, frozenset[int]] = {}

    def fine_sep(n: int) -> frozenset[int]:
        if n not in sep:
            sep[n] = commutant.brute_force_sep(fine_view, fine_map, n)
        return sep[n]

    def allowed(n: int) -> set[int]:
        return set(range(size)) - fine_sep(n)

    degrees = range(-window, window + 1)
    if payload["window"] != window:
        return False
    if any(payload["sep"][str(n)] != sorted(fine_sep(n)) for n in degrees):
        return False
    if instance.refined:
        coarse_view = commutant.SubalgebraView.of_refinement(instance.refinement)
        for n in degrees:
            coarse = commutant.brute_force_sep(coarse_view, fine_map, n)
            if payload["coarse_sep"][str(n)] != sorted(coarse):
                return False
            if payload["difference"]["forbidden"][str(n)] != sorted(fine_sep(n) - coarse):
                return False
    elif payload["coarse_sep"] is not None or payload["difference"] is not None:
        return False

    grading = payload["grading"]
    stated = grading.get("window")
    bounded = isinstance(stated, int) and not isinstance(stated, bool)
    # a verdict over fewer degrees than the report grades today would be
    # less work passed off as the same answer
    if bounded and stated < min(window, GRADING_WINDOW):
        return False
    # an unbounded verdict (no integer window) is sampled over half the table
    claimed = stated if bounded else window // 2
    perm = list(fine_map.perm)
    if grading["strongly_graded"]:
        # products of degree-n and degree-m indicators span the indicators of
        # the p in A(n) whose n-th preimage lies in A(m); that must cover A(n+m)
        for n, m in itertools.product(range(-claimed, claimed + 1), repeat=2):
            back = _power(perm, -n)
            spanned = {p for p in allowed(n) if back[p] in allowed(m)}
            if not allowed(n + m) <= spanned:
                return False
        return True
    n, m = grading["witness"]
    if bounded and max(abs(n), abs(m)) > stated:
        return False
    back = _power(perm, -n)
    allowed_m = allowed(m)
    rows = [
        [Fraction(int(i == p)) for i in range(size)]
        for p in sorted(allowed(n))
        if back[p] in allowed_m
    ]
    return cc.crossed.rational_rank(rows) < len(allowed(n + m))


# (points, base_n, cases, lifts).  The minimal-base rows for 2, 3 and 4
# points are the published counts; the others were recorded from the
# enumeration and are fixed here so that any change shows.
CENSUSES = (
    (2, None, 6, 20),
    (2, 2, 6, 64),
    (1, 3, 2, 72),
    (3, None, 14, 264),
    (2, 3, 6, 528),
    (3, 2, 14, 720),
    (3, 3, 14, 5760),
    (4, None, 34, 5952),
)
# Four points on the minimal base make 15 pieces, one over the desk-scale cap
# that the atlas command enforces; the library takes the bound as an argument.
ATLAS_MAX_PIECES = 15


class Atlas(Workload):
    """``classify_cases(atlas_instances(...))`` over a fixed list of censuses."""

    name = "atlas"
    unit = "lifts"
    entry_points = ("enumeration.classify_cases",)

    def setup(self, cc, seed: int, workdir: Path) -> list:
        return list(CENSUSES)

    def warm_up(self, cc, items: list) -> None:
        self.run(cc, min(items, key=lambda it: it[3]))

    def run(self, cc, item):
        points, base_n, _, _ = item
        enumeration = cc.enumeration
        return enumeration.classify_cases(
            enumeration.atlas_instances(points, base_n, max_pieces=ATLAS_MAX_PIECES)
        )

    def check(self, cc, item, groups) -> tuple[bool, int]:
        _, _, cases, lifts = item
        ok = len(groups) == cases and sum(g.count for g in groups.values()) == lifts
        return ok, lifts

    def info(self) -> dict:
        return {"censuses": [list(c[:2]) for c in CENSUSES], "max_pieces": ATLAS_MAX_PIECES}


# (k, p): k intervals in one orbit, p points added to each.  (3, 3) is left
# out: its single stream has 2,985,984 lifts and would fill a whole run.
LIFT_GRID = tuple((k, p) for k in (1, 2, 3) for p in (0, 1, 2, 3) if (k, p) != (3, 3))


def admissible_profiles(p: int) -> set[tuple[tuple[int, int], ...]]:
    """Every {l: pi(l)} with l dividing pi(l) and the counts filling p+1 slots."""
    out = set()

    def rec(l: int, left: int, chosen: tuple[tuple[int, int], ...]) -> None:
        if left == 0:
            out.add(chosen)
            return
        if l > left:
            return
        for blocks in range(left // l + 1):
            rec(l + 1, left - blocks * l, chosen + (((l, blocks * l),) if blocks else ()))

    rec(1, p + 1, ())
    return out


class LiftStream(Workload):
    """Complete lift streams over ``realize_pi`` bases, profiled at block heads."""

    name = "lift-stream"
    unit = "lifts"
    entry_points = ()

    def setup(self, cc, seed: int, workdir: Path) -> list:
        dynamics = cc.dynamics
        items = []
        for k, p in LIFT_GRID:
            profile = dynamics.PiProfile(k=k, p=p, pi={1: p + 1})
            refinement, base_map, _ = dynamics.realize_pi(k, p, profile)
            items.append((k, p, refinement, base_map))
        return items

    def warm_up(self, cc, items: list) -> None:
        for item in items:
            self.run(cc, item)

    def run(self, cc, item):
        k, p, refinement, base_map = item
        dynamics = cc.dynamics
        # interval wiring varies slowest, so each block of (p!)**k lifts
        # shares one multiplier profile
        block = math.factorial(p) ** k
        profiles = set()
        count = 0
        for count, lift in enumerate(cc.enumeration.enumerate_refined_maps(refinement, base_map), 1):
            if (count - 1) % block == 0:
                rcc = dynamics.refined_cycle_classes(refinement, base_map, lift)
                profiles.add(dynamics.pi_profile(rcc, range(k)).sorted_items())
        return count, profiles

    def check(self, cc, item, output) -> tuple[bool, int]:
        k, p, _, _ = item
        count, profiles = output
        lifts = (math.factorial(p + 1) * math.factorial(p)) ** k
        return count == lifts and profiles == admissible_profiles(p), lifts

    def info(self) -> dict:
        return {"bases": [list(kp) for kp in LIFT_GRID]}


SELFTEST_CALLS = 8
SELFTEST_ITERATIONS = 100
_SUITE_LINE = re.compile(r"^(?P<name>[^:]+): (?P<passed>\d+)/(?P<total>\d+)$")


class Selftest(Workload):
    """``selftest --seed S --iterations N`` for seeds drawn from the benchmark seed."""

    name = "selftest"
    unit = "subjects"
    entry_points = ("cli.main",)

    def setup(self, cc, seed: int, workdir: Path) -> list:
        return random.Random(seed).sample(range(1_000_000), SELFTEST_CALLS)

    def warm_up(self, cc, items: list) -> None:
        # a fixed seed: the work of one iteration varies with the seed
        _cli(cc, ["selftest", "--seed", "0", "--iterations", "1"])

    def run(self, cc, item):
        return _cli(cc, ["selftest", "--seed", str(item), "--iterations", str(SELFTEST_ITERATIONS)])

    def check(self, cc, item, output) -> tuple[bool, int]:
        return check_selftest(item, *output)

    def info(self) -> dict:
        return {"seeds": SELFTEST_CALLS, "iterations": SELFTEST_ITERATIONS}


def check_selftest(seed: int, code: int, text: str) -> tuple[bool, int]:
    """Exit 0, the requested seed in effect, and every suite passed = total."""
    lines = text.splitlines()
    if code != 0 or not lines or not lines[0].startswith(f"seed {seed},"):
        return False, 0
    suites = [m for m in map(_SUITE_LINE.match, lines[1:-1]) if m]
    subjects = sum(int(m["total"]) for m in suites)
    ok = (
        bool(suites)
        and all(m["passed"] == m["total"] for m in suites)
        and lines[-1] == "selftest: ok"
    )
    return ok, subjects


WORKLOADS = {w.name: w for w in (Report, Atlas, LiftStream, Selftest)}
