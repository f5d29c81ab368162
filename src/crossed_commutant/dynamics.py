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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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


def perm_compose(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    """Apply ``inner`` first, then ``outer``."""
    return tuple(outer[inner[i]] for i in range(len(inner)))


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


def cycle_lengths(perm: Sequence[int]) -> tuple[int, ...]:
    periods = [0] * len(perm)
    for cycle in perm_cycles(perm):
        for piece in cycle:
            periods[piece] = len(cycle)
    return tuple(periods)


# ---------------------------------------------------------------------------
# piece maps and validation


@dataclass(frozen=True)
class PieceMap:
    """A piece permutation attached to its partition."""

    partition: Partition
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "perm", tuple(self.perm))
        if sorted(self.perm) != list(range(self.partition.piece_count)):
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
        periods = cycle_lengths(self.perm)
        grouped: dict[int, set[int]] = {}
        for pid, k in enumerate(periods):
            grouped.setdefault(k, set()).add(pid)
        return CycleClassification(
            period_of=periods,
            classes=MappingProxyType({k: frozenset(v) for k, v in sorted(grouped.items())}),
        )

    def __getstate__(self) -> dict:
        # pickle and deepcopy carry the fields only; the cache is rebuilt on demand
        return {"partition": self.partition, "perm": self.perm}


def _unchecked_piece_map(partition: Partition, perm: tuple[int, ...]) -> PieceMap:
    # trusted constructor for enumeration streams; inputs valid by construction
    pm = object.__new__(PieceMap)
    object.__setattr__(pm, "partition", partition)
    object.__setattr__(pm, "perm", perm)
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

    The single lift equality is checked per fine piece.  When it fails, two
    coarser named diagnoses are added: the set of subdivided pieces must be
    carried onto itself, and a piece must have as many children as its
    image.  Both follow from the lift law, so they appear only alongside
    lift violations.
    """
    if base_map.partition != refinement.base:
        raise PartitionMismatch("base map does not belong to the base partition")
    if refined_map.partition != refinement.refined:
        raise PartitionMismatch("refined map does not belong to the refined partition")
    parent_of = refinement.parent_of
    violations = []
    for child, img in enumerate(refined_map.perm):
        want = base_map.perm[parent_of[child]]
        got = parent_of[img]
        if got != want:
            violations.append(
                Violation(
                    rule=RULE_LIFT,
                    message=(
                        f"child {refinement.refined.label_of(child)} of "
                        f"{refinement.base.label_of(parent_of[child])} lands in "
                        f"{refinement.base.label_of(got)} instead of "
                        f"{refinement.base.label_of(want)}"
                    ),
                    pieces=(child, img),
                )
            )
    if violations:
        for b in range(refinement.base.piece_count):
            b2 = base_map.perm[b]
            mine, theirs = refinement.children_of(b), refinement.children_of(b2)
            if len(mine) != len(theirs):
                violations.append(
                    Violation(
                        rule=RULE_CHILD_COUNT,
                        message=(
                            f"{refinement.base.label_of(b)} has {len(mine)} children "
                            f"but its image {refinement.base.label_of(b2)} has {len(theirs)}"
                        ),
                        pieces=(b, b2),
                    )
                )
        subdivided = {
            b for b in range(refinement.base.piece_count)
            if len(refinement.children_of(b)) > 1
        }
        image = {base_map.perm[b] for b in subdivided}
        if image != subdivided:
            moved = sorted(subdivided ^ image)
            violations.append(
                Violation(
                    rule=RULE_REGION,
                    message=(
                        "the union of subdivided pieces is not carried onto itself; "
                        "offending pieces: "
                        + ", ".join(refinement.base.label_of(b) for b in moved)
                    ),
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


def cycle_classes(piece_map: PieceMap) -> CycleClassification:
    return piece_map.cycle_classification


@dataclass(frozen=True)
class RefinedCycleClassification:
    """Coarse periods, fine periods, and the multiplier of every fine piece.

    A fine piece whose parent has period k and whose own period is k*l gets
    multiplier l; ``tilde_classes[(k, l)]`` collects the fine pieces with
    that pair.
    """

    refinement: Refinement
    base: CycleClassification
    refined: CycleClassification
    multiplier_of: tuple[int, ...]
    tilde_classes: Mapping[tuple[int, int], frozenset[int]]

    @property
    def base_period_of(self) -> tuple[int, ...]:
        return self.base.period_of


def refined_cycle_classes(
    refinement: Refinement, base_map: PieceMap, refined_map: PieceMap
) -> RefinedCycleClassification:
    """Classify fine pieces by (parent period, multiplier).

    Raises LiftInconsistent if some fine orbit length fails to be a multiple
    of its parent orbit length, which cannot happen for a genuine lift.
    """
    base_cls = cycle_classes(base_map)
    fine_cls = cycle_classes(refined_map)
    multipliers: list[int] = []
    grouped: dict[tuple[int, int], set[int]] = {}
    for child, parent in enumerate(refinement.parent_of):
        k = base_cls.period_of[parent]
        fine = fine_cls.period_of[child]
        if fine % k != 0:
            raise LiftInconsistent(
                f"piece {refinement.refined.label_of(child)} has period {fine}, "
                f"not a multiple of its parent's period {k}"
            )
        l = fine // k
        multipliers.append(l)
        grouped.setdefault((k, l), set()).add(child)
    return RefinedCycleClassification(
        refinement=refinement,
        base=base_cls,
        refined=fine_cls,
        multiplier_of=tuple(multipliers),
        tilde_classes={kl: frozenset(v) for kl, v in sorted(grouped.items())},
    )


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

    def profile(b: int) -> tuple[int, Counter]:
        subs = rcc.refinement.kind_split[b][0]
        return len(subs) - 1, Counter(rcc.multiplier_of[c] for c in subs)

    rep = intervals[0]
    p, counts = profile(rep)
    for other in intervals[1:]:
        p2, counts2 = profile(other)
        if p2 != p:
            raise UnequalChildCounts(
                f"{base_part.label_of(rep)} carries {p} added points but "
                f"{base_part.label_of(other)} carries {p2}"
            )
        if counts2 != counts:
            raise UnequalChildCounts(
                f"multiplier counts differ between {base_part.label_of(rep)} "
                f"and {base_part.label_of(other)}"
            )
    return PiProfile(k=k, p=p, pi=dict(sorted(counts.items())))


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

    The base partition has k intervals forming a single orbit (jump points
    stay fixed); p points go into every interval.  Subinterval slots are
    grouped, per multiplier l, into pi(l)/l blocks of l slots, and each
    block is wired as one orbit of length k*l across the parents.  Added
    points are wired slot-preserving along the parent orbit, a kind-safe
    deterministic choice with multiplier 1.
    """
    report = check_pi(profile)
    if not report.ok:
        raise InfeasibleProfile("; ".join(report.messages()))
    if profile.k != k or profile.p != p:
        raise InfeasibleProfile(
            f"profile is for k={profile.k}, p={profile.p}, requested k={k}, p={p}"
        )

    base = build_real_line_partition([Fraction(i) for i in range(1, k)])
    base_perm = list(range(base.piece_count))
    for i in range(k):
        base_perm[i] = (i + 1) % k
    base_map = PieceMap(base, tuple(base_perm))

    additions = {
        alpha: evenly_spaced_inside(*base.bounds_of(alpha), p) for alpha in range(k)
    }
    refinement = refine_real_line(base, additions)
    if p == 0:
        return refinement, base_map, base_map

    refined = refinement.refined
    subs, pts = zip(*refinement.kind_split[:k])  # the base intervals are pieces 0..k-1

    blocks: list[list[int]] = []
    cursor = 0
    for l in sorted(profile.pi):
        for _ in range(profile.pi[l] // l):
            blocks.append(list(range(cursor, cursor + l)))
            cursor += l

    perm = list(range(refined.piece_count))
    for block in blocks:
        l = len(block)
        for i in range(k):
            for a, slot in enumerate(block):
                src = subs[i][slot]
                if i < k - 1:
                    perm[src] = subs[i + 1][slot]
                else:
                    perm[src] = subs[0][block[(a + 1) % l]]
    for i in range(k):
        for j, point_piece in enumerate(pts[i]):
            perm[point_piece] = pts[(i + 1) % k][j]
    refined_map = PieceMap(refined, tuple(perm))
    return refinement, base_map, refined_map
