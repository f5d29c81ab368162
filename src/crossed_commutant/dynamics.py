"""Piece-permuting dynamics on partitions.

A bijection of the underlying set that maps pieces onto pieces is recorded
purely by the permutation it induces on piece ids.  For line partitions such
a bijection must send intervals to intervals and points to points; abstract
partitions accept any bijection of their cells.  Validation reports
violations instead of raising, so invalid inputs can be diagnosed in bulk.

For a refined partition sitting over a base partition, a refined map lifts a
base map when parents travel with their children:
``parent_of(refined(c)) == base(parent_of(c))`` for every fine piece c.
Every fine orbit then covers its base orbit a whole number of times; that
ratio is the piece's multiplier.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, cached_property
from itertools import groupby
from math import lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import (
    InfeasibleProfile,
    LiftInconsistent,
    PartitionMismatch,
    UnequalChildCounts,
)
from .partition import (
    Partition,
    PieceKind,
    Refinement,
    build_real_line_partition,
    evenly_spaced_inside,
    refine_real_line,
)

# ---------------------------------------------------------------------------
# permutation helpers (perm[i] = image of piece i)


def perm_inverse(perm: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, img in enumerate(perm):
        inv[img] = i
    return tuple(inv)


def perm_cycles(perm: Sequence[int]) -> list[tuple[int, ...]]:
    """Cycle decomposition; each cycle starts at its least element."""
    seen = [False] * len(perm)
    cycles: list[tuple[int, ...]] = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append(tuple(cycle))
    return cycles


def perm_power(perm: Sequence[int], n: int) -> tuple[int, ...]:
    """The n-th power for any integer n, computed cycle by cycle."""
    result = [0] * len(perm)
    for cycle in perm_cycles(perm):
        size = len(cycle)
        for pos, piece in enumerate(cycle):
            result[piece] = cycle[(pos + n) % size]
    return tuple(result)


def _gather(values: Sequence[int], indices: Sequence[int]) -> tuple[int, ...]:
    """``values[i]`` for every i in ``indices``; itemgetter of one index returns a bare item."""
    return operator.itemgetter(*indices)(values) if len(indices) > 1 else (values[indices[0]],)


def cycle_lengths(perm: Sequence[int]) -> tuple[int, ...]:
    periods = [0] * len(perm)
    for cycle in perm_cycles(perm):
        for piece in cycle:
            periods[piece] = len(cycle)
    return tuple(periods)


# ---------------------------------------------------------------------------
# piece maps and validation


class _Memo:
    """Caches kept beside a frozen dataclass's fields; copies carry the fields only."""

    @cached_property
    def _memo(self) -> dict:
        return {}

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class PieceMap(_Memo):
    """A piece permutation attached to its partition."""

    partition: Partition
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        perm = tuple(self.perm)
        object.__setattr__(self, "perm", perm)
        ids = range(self.partition.piece_count)
        if not set(map(type, perm)) <= {int} or sorted(perm) != list(ids):
            raise ValueError("perm is not a bijection on the piece ids")

    @classmethod
    def identity(cls, partition: Partition) -> "PieceMap":
        return cls(partition, tuple(range(partition.piece_count)))

    @property
    def size(self) -> int:
        return len(self.perm)

    @cached_property
    def cycle_classification(self) -> CycleClassification:
        """Pieces grouped by period, walked once per map; shared, so read-only."""
        return _classify_periods(cycle_lengths(self.perm))

    @cached_property
    def period(self) -> int:
        """L, the lcm of the cycle lengths: every power depends on n mod L only."""
        return lcm(*self.cycle_classification.classes)


def _unchecked_piece_map(partition: Partition, perm: tuple[int, ...]) -> PieceMap:
    # trusted constructor for enumeration streams and self-test draws; inputs valid by construction
    pm = object.__new__(PieceMap)
    fields = pm.__dict__
    fields["partition"] = partition
    fields["perm"] = perm
    return pm


RULE_KIND = "kind-preservation"
RULE_LIFT = "lift-consistency"
RULE_CHILD_COUNT = "child-count"
RULE_REGION = "region-invariance"


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    pieces: tuple[int, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def messages(self) -> list[str]:
        return [f"[{v.rule}] {v.message}" for v in self.violations]


_NO_VIOLATIONS = ValidationReport()


def validate_invariance(partition: Partition, piece_map: PieceMap) -> ValidationReport:
    """Check that the map can come from a piece-preserving point bijection.

    For line partitions this means kind preservation: an interval may only
    map to an interval and a jump point only to a jump point.  Abstract
    partitions have kind-free cells, so any bijection passes.
    """
    if piece_map.partition != partition:
        raise PartitionMismatch("map does not belong to this partition")
    violations = []
    for pid, img in enumerate(piece_map.perm):
        src, dst = partition.pieces[pid], partition.pieces[img]
        if src.kind is not dst.kind:
            violations.append(
                Violation(
                    rule=RULE_KIND,
                    message=(
                        f"piece {src.label} ({src.kind.value}) maps to "
                        f"{dst.label} ({dst.kind.value})"
                    ),
                    pieces=(pid, img),
                )
            )
    return ValidationReport(tuple(violations))


def validate_refined_invariance(
    refinement: Refinement, base_map: PieceMap, refined_map: PieceMap
) -> ValidationReport:
    """Check that ``refined_map`` lifts ``base_map`` through the refinement.

    The lift equality is one comparison of whole tuples.  When it fails,
    every fine piece breaking it is named, and two coarser named diagnoses
    are added: the set of subdivided pieces must be carried onto itself,
    and a piece must have as many children as its image.  Both follow from
    the lift law, so they appear only alongside lift violations.
    """
    base, refined = refinement.base, refinement.refined
    if base_map.partition is not base and base_map.partition != base:
        raise PartitionMismatch("base map does not belong to the base partition")
    if refined_map.partition is not refined and refined_map.partition != refined:
        raise PartitionMismatch("refined map does not belong to the refined partition")
    parent_of = refinement.parent_of
    got, want = _gather(parent_of, refined_map.perm), _gather(base_map.perm, parent_of)
    if got == want:
        return _NO_VIOLATIONS
    label = base.label_of
    violations = [
        Violation(
            rule=RULE_LIFT,
            message=f"child {refined.label_of(child)} of {label(parent_of[child])} "
            f"lands in {label(g)} instead of {label(w)}",
            pieces=(child, refined_map.perm[child]),
        )
        for child, (g, w) in enumerate(zip(got, want))
        if g != w
    ]
    for b, b2 in enumerate(base_map.perm):
        mine, theirs = len(refinement.children_of(b)), len(refinement.children_of(b2))
        if mine != theirs:
            violations.append(
                Violation(
                    rule=RULE_CHILD_COUNT,
                    message=f"{label(b)} has {mine} children "
                    f"but its image {label(b2)} has {theirs}",
                    pieces=(b, b2),
                )
            )
    subdivided = {b for b in range(base.piece_count) if len(refinement.children_of(b)) > 1}
    moved = sorted(subdivided ^ {base_map.perm[b] for b in subdivided})
    if moved:
        violations.append(
            Violation(
                rule=RULE_REGION,
                message="the union of subdivided pieces is not carried onto itself; "
                "offending pieces: " + ", ".join(map(label, moved)),
                pieces=tuple(moved),
            )
        )
    return ValidationReport(tuple(violations))


# ---------------------------------------------------------------------------
# cycle classes


@dataclass(frozen=True)
class CycleClassification:
    """Pieces grouped by their minimal period under the map."""

    period_of: tuple[int, ...]
    classes: Mapping[int, frozenset[int]]

    def __reduce__(self):  # a mappingproxy does not pickle, and the periods determine it
        return _classify_periods, (self.period_of,)


def _classify_periods(periods: tuple[int, ...]) -> CycleClassification:
    grouped: dict[int, set[int]] = {}
    for pid, k in enumerate(periods):
        grouped.setdefault(k, set()).add(pid)
    return CycleClassification(periods, MappingProxyType({k: frozenset(v) for k, v in sorted(grouped.items())}))


def cycle_classes(piece_map: PieceMap) -> CycleClassification:
    return piece_map.cycle_classification


@dataclass(frozen=True)
class RefinedCycleClassification:
    """Coarse periods and the fine period of every piece of a lift.

    A fine piece whose parent has period k and whose own period is k*l gets
    multiplier l; ``tilde_classes[(k, l)]`` collects the fine pieces with
    that pair.  Both are read off ``period_of`` on first use.  A piece's (k, l)
    and its fine period determine each other, so equality compares periods.
    """

    refinement: Refinement
    base: CycleClassification
    period_of: tuple[int, ...]  # fine periods, by fine piece id

    @cached_property
    def multiplier_of(self) -> tuple[int, ...]:
        k_of = _gather(self.base.period_of, self.refinement.parent_of)
        # through a list: tuple(map(...)) resizes, and its freed tuples pile up in the free lists
        return tuple([*map(operator.floordiv, self.period_of, k_of)])

    @cached_property
    def tilde_classes(self) -> Mapping[tuple[int, int], frozenset[int]]:
        k_of = _gather(self.base.period_of, self.refinement.parent_of)
        grouped: dict[tuple[int, int], list[int]] = {}  # (parent period, fine period)
        for child, periods in enumerate(zip(k_of, self.period_of)):
            grouped.setdefault(periods, []).append(child)
        return {(k, fine // k): frozenset(v) for (k, fine), v in sorted(grouped.items())}


def refined_cycle_classes(
    refinement: Refinement, base_map: PieceMap, refined_map: PieceMap
) -> RefinedCycleClassification:
    """Read every fine piece's period off one walk of the lift's cycles.

    Raises LiftInconsistent, naming the least such piece, if some fine
    piece's period fails to be a multiple of its parent's period, which
    cannot happen for a genuine lift.
    """
    base_cls = cycle_classes(base_map)
    period_of = [0] * len(refined_map.perm)
    for cycle in perm_cycles(refined_map.perm):  # one walk; the lift's own classification stays unbuilt
        for child in cycle:
            period_of[child] = len(cycle)
    k_of = _gather(base_cls.period_of, refinement.parent_of)
    if any(map(operator.mod, period_of, k_of)):
        child = next(c for c, (fine, k) in enumerate(zip(period_of, k_of)) if fine % k)
        raise LiftInconsistent(
            f"piece {refinement.refined.label_of(child)} has period {period_of[child]}, "
            f"not a multiple of its parent's period {k_of[child]}"
        )
    return RefinedCycleClassification(refinement, base_cls, tuple(period_of))


# ---------------------------------------------------------------------------
# multiplier profiles


@dataclass(frozen=True)
class PiProfile:
    """How the subinterval children of one parent split by multiplier.

    ``pi[l]`` counts the subinterval (non-point) children with multiplier l
    of any single parent in a period-k orbit of intervals that each received
    p added points.
    """

    k: int
    p: int
    pi: Mapping[int, int]

    def __post_init__(self) -> None:
        if self.k < 1 or self.p < 0:
            raise ValueError("need k >= 1 and p >= 0")
        for l, count in self.pi.items():
            if not (1 <= l <= self.p + 1) or count < 0:
                raise ValueError(f"profile entry pi({l}) = {count} is out of range")

    def sorted_items(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((l, c) for l, c in self.pi.items() if c > 0))


def pi_profile(rcc: RefinedCycleClassification, base_cycle: Iterable[int]) -> PiProfile:
    """Multiplier profile of the interval members of one base orbit.

    All interval members must carry the same number of added points and the
    same multiplier counts; the count is independent of the representative
    within one orbit, and that independence is checked.
    """
    members = sorted(set(base_cycle))
    if not members:
        raise ValueError("base_cycle is empty")
    base_part = rcc.refinement.base
    intervals = [b for b in members if base_part.pieces[b].kind is not PieceKind.POINT]
    if not intervals:
        raise ValueError("base_cycle has no interval members")
    periods = {rcc.base.period_of[b] for b in intervals}
    if len(periods) != 1:
        raise ValueError(f"interval members span several periods: {sorted(periods)}")
    k = periods.pop()

    multiplier_of, kind_split, rep = rcc.multiplier_of, rcc.refinement.kind_split, intervals[0]
    split = sorted(_gather(multiplier_of, kind_split[rep][0]))  # its subintervals' multipliers
    for other in intervals[1:]:
        theirs = sorted(_gather(multiplier_of, kind_split[other][0]))
        if len(theirs) != len(split):
            raise UnequalChildCounts(
                f"{base_part.label_of(rep)} carries {len(split) - 1} added points but "
                f"{base_part.label_of(other)} carries {len(theirs) - 1}"
            )
        if theirs != split:
            raise UnequalChildCounts(
                f"multiplier counts differ between {base_part.label_of(rep)} "
                f"and {base_part.label_of(other)}"
            )
    return PiProfile(k=k, p=len(split) - 1, pi={l: len(list(g)) for l, g in groupby(split)})


RULE_DIVISIBILITY = "multiplier-divisibility"
RULE_SLOT_TOTAL = "slot-total"


def check_pi(profile: PiProfile) -> ValidationReport:
    """Admissibility of a profile: l divides pi(l), and counts fill p+1 slots."""
    violations = []
    for l, count in sorted(profile.pi.items()):
        if count > 0 and count % l != 0:
            violations.append(
                Violation(
                    rule=RULE_DIVISIBILITY,
                    message=f"pi({l}) = {count} is not a multiple of {l}",
                )
            )
    total = sum(profile.pi.values())
    if total != profile.p + 1:
        violations.append(
            Violation(
                rule=RULE_SLOT_TOTAL,
                message=f"profile covers {total} subintervals, expected {profile.p + 1}",
            )
        )
    return ValidationReport(tuple(violations))


def realize_pi(k: int, p: int, profile: PiProfile) -> tuple[Refinement, PieceMap, PieceMap]:
    """Construct a witness instance whose profile is ``profile``.

    The base partition has k intervals forming the single orbit 0 -> 1 ->
    ... -> k-1 -> 0 (jump points stay fixed); p points go into every
    interval.  The lift is the atlas census's minimal lift for the return
    types lambda, with pi(l)/l cycles of length l on the subintervals, and
    mu = 1^p on the added points.
    """
    report = check_pi(profile)
    if not report.ok:
        raise InfeasibleProfile("; ".join(report.messages()))
    if profile.k != k or profile.p != p:
        raise InfeasibleProfile(
            f"profile is for k={profile.k}, p={profile.p}, requested k={k}, p={p}"
        )
    refinement = _atlas_refinement((p,) * k, k - 1)
    base_perm = (*range(1, k), 0, *range(k, 2 * k - 1))
    lam = tuple(l for l, count in profile.pi.items() for _ in range(count // l))
    split = refinement.kind_split
    straight = _straight_lift(split, base_perm, refinement.refined.piece_count)
    returns = (_minimal_perm(lam), _minimal_perm((1,) * p))
    perm = _minimal_lift(straight, split, base_perm, [range(k)], [returns])
    return refinement, PieceMap(refinement.base, base_perm), PieceMap(refinement.refined, perm)


# ---------------------------------------------------------------------------
# lifts with given return-map cycle types


def _atlas_refinement(distribution: tuple[int, ...], n: int) -> Refinement:
    """n base jump points, the first intervals receiving the distribution's points."""
    base = build_real_line_partition([Fraction(i) for i in range(1, n + 1)])
    additions = {
        alpha: evenly_spaced_inside(*base.bounds_of(alpha), count)
        for alpha, count in enumerate(distribution)
    }
    return refine_real_line(base, additions)


@cache
def _minimal_perm(cycle_type: tuple[int, ...]) -> tuple[int, ...]:
    """The lex-minimal permutation of ``range(sum(cycle_type))`` with this cycle type.

    Shortest cycles first, each on a run of consecutive ids: i -> i + 1 along
    the run, and its last id back to the run's start.
    """
    perm: list[int] = []
    for length in sorted(cycle_type):
        start = len(perm)
        perm.extend(range(start + 1, start + length))
        perm.append(start)
    return tuple(perm)


def _straight_lift(split, base_perm, pieces: int) -> list[int]:
    """The lift keeping every arc's children in order."""
    perm = [0] * pieces
    for b, image in enumerate(base_perm):
        for kind in (0, 1):
            for src, dst in zip(split[b][kind], split[image][kind]):
                perm[src] = dst
    return perm


def _minimal_lift(straight, split, base_perm, orbits, returns) -> tuple[int, ...]:
    """``straight`` with each orbit's last arc set to its (subinterval, point) return maps.

    Within one orbit and one kind, children come in the order of their
    parents' ids.  Every arc can keep its children's order except the one
    out of the member with the largest id, and with the others order
    preserving, that arc is the return map.  So with the lex-minimal
    permutations of types (lambda, mu) as returns this is the lex-minimal
    lift whose return maps have those types; orbits and kinds fill disjoint
    positions, so that holds for every orbit at once.
    """
    perm = list(straight)
    for cycle, pair in zip(orbits, returns):
        last = max(cycle)
        for kind, sigma in enumerate(pair):
            dst = split[base_perm[last]][kind]
            for child, image in zip(split[last][kind], sigma):
                perm[child] = dst[image]
    return tuple(perm)
