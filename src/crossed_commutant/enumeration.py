"""Exhaustive enumeration of lifts and classification of refinement cases.

Given a base map and a refinement, the valid refined maps are exactly the
choices of a kind-preserving bijection from the children of each base piece
to the children of its image.  Arc choices are independent, so the stream
has the product of the per-arc counts; along a base orbit of length k whose
members have the same child structure that is (c_int! * c_pt!)^k.

Two instances are considered the same case when their commutant differences
agree up to a relabeling of pieces, which holds exactly when the sizes of
their (parent period, multiplier) classes with multiplier at least 2 match;
that multiset is the case signature.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .commutant import DifferenceDescription, commutant_difference
from .dynamics import PieceMap, _gather, _part_class_sizes, _unchecked_piece_map, perm_cycles
from .errors import ScaleExceeded
from .partition import (
    Refinement,
    build_real_line_partition,
    evenly_spaced_inside,
    refine_real_line,
)

Lift = tuple[Refinement, PieceMap, PieceMap]  # (refinement, base map, lift)


def _arcs(refinement: Refinement, base_map: PieceMap):
    """Per base piece, the child groups of the piece and of its image.

    Returns None when some arc has mismatched group sizes, in which case no
    lift exists at all; raises ValueError when ``base_map`` acts on another
    partition than the refinement's base.
    """
    if base_map.partition != refinement.base:
        raise ValueError("base map does not act on the refinement's base")
    arcs = []
    for cycle in perm_cycles(base_map.perm):
        for b in cycle:
            src = refinement.kind_split[b]
            dst = refinement.kind_split[base_map.perm[b]]
            if len(src[0]) != len(dst[0]) or len(src[1]) != len(dst[1]):
                return None
            arcs.append((src, dst))
    return arcs


def count_refined_maps(refinement: Refinement, base_map: PieceMap) -> int:
    """Number of refined maps lifting ``base_map``; 0 when children mismatch."""
    arcs = _arcs(refinement, base_map)
    if arcs is None:
        return 0
    total = 1
    for (src_int, src_pt), _ in arcs:
        total *= math.factorial(len(src_int)) * math.factorial(len(src_pt))
    return total


def _placed_choices(arcs, kind: int) -> Iterator[tuple[int, ...]]:
    """Every choice of images for the arcs' ``kind`` children, in piece order.

    Choices follow the product over arcs in arc order; each is listed by the
    ids of the children it moves, smallest first.
    """
    sources = [s for src, _ in arcs for s in src[kind]]
    order = sorted(range(len(sources)), key=sources.__getitem__)
    # sources already in piece order need no gather (this covers 0 or 1 of them,
    # where itemgetter would fail or return a bare item)
    place = tuple if sources == sorted(sources) else operator.itemgetter(*order)
    for combo in itertools.product(*(itertools.permutations(dst[kind]) for _, dst in arcs)):
        yield place(tuple(itertools.chain.from_iterable(combo)))


def enumerate_refined_maps(
    refinement: Refinement, base_map: PieceMap
) -> Iterator[PieceMap]:
    """All refined maps lifting ``base_map``, in a fixed deterministic order.

    Interval assignments vary slowest and point assignments fastest, so
    consecutive stretches of the stream share all interval wiring.  The
    stream is empty when no lift exists.
    """
    arcs = _arcs(refinement, base_map)
    if arcs is None:
        return
    # a partition lists its non-point pieces before its points, so a lift's
    # perm is its non-point images in piece order, then its point images
    tails = list(_placed_choices(arcs, 1))
    refined = refinement.refined
    for head in _placed_choices(arcs, 0):
        for tail in tails:
            yield _unchecked_piece_map(refined, head + tail)


# ---------------------------------------------------------------------------
# case signatures


@dataclass(frozen=True)
class CaseSignature:
    """Sorted multiset of (parent period, multiplier, class size) triples.

    Only multipliers of at least 2 enter: multiplier-1 classes never open a
    gap between the coarse and refined commutants.  Instances share a
    signature exactly when their commutant differences agree up to piece
    relabeling.
    """

    triples: tuple[tuple[int, int, int], ...]

    def __str__(self) -> str:
        if not self.triples:
            return "no difference"
        return ", ".join(f"(k={k}, l={l}) x{size}" for k, l, size in self.triples)


def _signature_triples(*parts) -> tuple[tuple[int, int, int], ...]:
    """Sorted (k, l, size) over the classes with l >= 2, summing the sizes of disjoint parts."""
    sizes: dict[tuple[int, int], int] = {}
    for part in parts:
        for kl, size in part:
            sizes[kl] = sizes.get(kl, 0) + size
    return tuple(sorted((k, l, size) for (k, l), size in sizes.items() if l >= 2 and size))


def case_signature(difference: DifferenceDescription) -> CaseSignature:
    return CaseSignature(
        _signature_triples((kl, len(pieces)) for kl, pieces in difference.tilde_classes.items())
    )


@dataclass
class CaseGroup:
    signature: CaseSignature
    count: int
    representative: Lift


def classify_cases(instances: Iterable[Lift]) -> dict[CaseSignature, CaseGroup]:
    """Group instances by case signature, keeping a deterministic representative.

    The representative is minimal by (piece count, base perm, refined perm),
    so reruns over the same stream pick the same witnesses.  A lift's class
    sizes are its non-point part's plus its point part's.  By the lift law a
    part's sizes depend only on its images and on its pieces' parent periods
    and wanted images, so each distinct non-point part is classified once per
    refinement, shared by every base map that agrees there, and each point
    part once per base map; the rest goes through ``commutant_difference``.
    """
    found: dict[tuple, list] = {}  # triples -> [count, key, representative]
    refinement = base_map = None
    for instance in instances:
        if instance[0] is not refinement:
            refinement, base_map = instance[0], None
            known, table = {}, {}  # (k_of, want) over the heads -> images -> sizes
            h = sum(len(kinds[0]) for kinds in refinement.kind_split)
            pieces = refinement.refined.piece_count
        if instance[1] is not base_map:
            base_map = instance[1]
            own = base_map.partition is refinement.base
            if own:
                k_of = _gather(base_map.cycle_classification.period_of, refinement.parent_of)
                want = _gather(base_map.perm, refinement.parent_of)
                heads = known.setdefault((k_of[:h], want[:h]), {})
                tails = {}  # point images seldom repeat across base maps
        refined_map = instance[2]
        triples = None
        if own and refined_map.partition is refinement.refined:
            head, tail = refined_map.perm[:h], refined_map.perm[h:]
            if head not in heads:
                heads[head] = _part_class_sizes(refinement, k_of, want, 0, head)
            if tail not in tails:
                tails[tail] = _part_class_sizes(refinement, k_of, want, h, tail)
            parts = heads[head], tails[tail]
            if None not in parts:
                triples = table.get(parts)
                if triples is None:
                    triples = table[parts] = _signature_triples(*parts)
        if triples is None:
            triples = case_signature(commutant_difference(refinement, base_map, refined_map)).triples
        key = (pieces, base_map.perm, refined_map.perm)
        entry = found.get(triples)
        if entry is None:
            found[triples] = [1, key, instance]
        else:
            entry[0] += 1
            if key < entry[1]:
                entry[1:] = key, instance
    groups = [CaseGroup(CaseSignature(t), count, rep) for t, (count, _, rep) in found.items()]
    return {group.signature: group for group in groups}


# ---------------------------------------------------------------------------
# atlases of small configurations

DESK_SCALE_MAX_PIECES = 14


def integer_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Nonincreasing tuples of positive integers summing to n; (n=0 gives ())."""
    if n < 0:
        raise ValueError("partitions are defined for n >= 0")

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def _kind_preserving_base_maps(partition, shape=None) -> Iterator[PieceMap]:
    """Maps sending intervals to intervals and points to points, in a fixed order.

    Given ``shape`` per piece, an interval goes only onto one of equal shape.
    """
    interval_ids = list(partition.interval_ids())
    point_ids = list(partition.point_ids())
    for iperm in itertools.permutations(interval_ids):
        if shape and any(shape[a] != shape[b] for a, b in zip(interval_ids, iperm)):
            continue
        for pperm in itertools.permutations(point_ids):
            perm = [0] * partition.piece_count
            for src, dst in zip(interval_ids, iperm):
                perm[src] = dst
            for src, dst in zip(point_ids, pperm):
                perm[src] = dst
            yield PieceMap(partition, tuple(perm))


def atlas_instances(
    total_points: int,
    base_n: int | None = None,
    max_pieces: int = DESK_SCALE_MAX_PIECES,
    max_lifts: int = 1_000_000,
) -> Iterator[Lift]:
    """Every way of adding ``total_points`` jump points at minimal base size.

    For each distribution of the points over distinct intervals, the base
    has exactly as many intervals as the distribution has parts (or base_n
    jump points when given), the first intervals receive the points, and
    every base map admitting lifts contributes its full lift stream.  Those
    maps send points to points and each interval onto one with as many added
    points; no other map is built.  There are n! * prod(multiplicity!) of
    them, each with prod((p+1)! * p!) lifts over its intervals' p added
    points.  Before the first lift is yielded, every distribution is checked
    against the piece cap and the census's total lifts against ``max_lifts``.
    """
    plan, lifts = [], 0
    for distribution in integer_partitions(total_points):
        parts = len(distribution)
        n = (parts - 1 if parts else 0) if base_n is None else base_n
        if parts > n + 1:
            raise ScaleExceeded(
                f"distribution {distribution} needs {parts} intervals, base has {n + 1}"
            )
        pieces = 2 * (n + total_points) + 1
        if pieces > max_pieces:
            raise ScaleExceeded(f"{pieces} pieces exceeds the desk-scale bound of {max_pieces}")
        plan.append((distribution, n))
        shapes = Counter(distribution + (0,) * (n + 1 - parts))
        lifts += math.factorial(n) * math.prod(
            math.factorial(c) * (math.factorial(p + 1) * math.factorial(p)) ** c
            for p, c in shapes.items()
        )
    if lifts > max_lifts:
        raise ScaleExceeded(f"{lifts} lifts exceeds the budget of {max_lifts}")
    for distribution, n in plan:
        base = build_real_line_partition([Fraction(i) for i in range(1, n + 1)])
        additions = {
            alpha: evenly_spaced_inside(*base.bounds_of(alpha), count)
            for alpha, count in enumerate(distribution)
        }
        refinement = refine_real_line(base, additions)
        shape = [tuple(map(len, kinds)) for kinds in refinement.kind_split]
        for base_map in _kind_preserving_base_maps(base, shape):
            for refined_map in enumerate_refined_maps(refinement, base_map):
                yield refinement, base_map, refined_map


# ---------------------------------------------------------------------------
# partition numbers and one-orbit subcase counts


def integer_partition_count(n: int) -> int:
    """The number of integer partitions of n, computed exactly."""
    if n < 0:
        raise ValueError("partitions are defined for n >= 0")
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def c1_subcase_count(k: int) -> int:
    """Predicted number of shape-distinct lifts for k points in one fixed interval.

    A lift permutes the k+1 subintervals and the k added points separately,
    and only the pair of cycle types matters, so the prediction is the
    product of the partition counts of k and k+1.
    """
    if k < 1:
        raise ValueError("need at least one added point")
    return integer_partition_count(k) * integer_partition_count(k + 1)


def _cycle_type(perm: Sequence[int], ids: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths, longest first, of ``perm`` on the invariant set ``ids``."""
    members = set(ids)
    return tuple(sorted((len(c) for c in perm_cycles(perm) if c[0] in members), reverse=True))


@dataclass(frozen=True)
class SubcaseDiagnostic:
    k: int
    formula: int
    machine: int

    @property
    def agree(self) -> bool:
        return self.formula == self.machine


def c1_subcase_diagnostic(k: int) -> SubcaseDiagnostic:
    """Compare the predicted subcase count against enumeration.

    Enumerates every lift for k points in one fixed interval and counts the
    distinct (interval cycle type, point cycle type) pairs.  Reports both
    numbers instead of asserting, so a disagreement is visible data.
    """
    formula = c1_subcase_count(k)
    base = build_real_line_partition([])
    refinement = refine_real_line(base, {0: evenly_spaced_inside(None, None, k)})
    base_map = PieceMap.identity(base)
    ints, pts = refinement.kind_split[0]
    shapes = set()
    for lift in enumerate_refined_maps(refinement, base_map):
        shapes.add((_cycle_type(lift.perm, ints), _cycle_type(lift.perm, pts)))
    return SubcaseDiagnostic(k=k, formula=formula, machine=len(shapes))
