"""Exhaustive enumeration of lifts and classification of refinement cases.

Given a base map and a refinement, the valid refined maps are exactly the
choices of a kind-preserving bijection from the children of each base piece
to the children of its image.  Arc choices are independent, so the stream
has the product of the per-arc counts; along a base orbit of length k whose
members have the same child structure that is (c_int! * c_pt!)^k.

Two instances are considered the same case when their commutant differences
agree up to a relabeling of pieces, which holds exactly when the sizes of
their (parent period, multiplier) classes with multiplier at least 2 match;
that multiset is the case signature.  Over a whole atlas those sizes are
counted from the cycle types of each base orbit's return maps, with no lift
walked; the per-lift classification stays as its oracle.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .commutant import DifferenceDescription, commutant_difference
from .dynamics import (
    PieceMap,
    _atlas_refinement,
    _minimal_lift,
    _minimal_perm,
    _straight_lift,
    _unchecked_piece_map,
    perm_cycles,
)
from .errors import ScaleExceeded
from .partition import Refinement

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
    so reruns over the same stream pick the same witnesses.  A whole atlas
    not yet iterated is counted from cycle types (see ``_atlas_census``)
    without walking a lift; any other stream, a partly consumed atlas
    included, is classified lift by lift through ``commutant_difference``.
    """
    if isinstance(instances, _Atlas) and instances.lifts is None:
        return instances.census()
    found: dict[tuple, list] = {}  # triples -> [count, key, representative]
    for instance in instances:
        refinement, base_map, refined_map = instance
        triples = case_signature(commutant_difference(refinement, base_map, refined_map)).triples
        key = (refinement.refined.piece_count, base_map.perm, refined_map.perm)
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


def _interval_perms(interval_ids, shape=None) -> Iterator[tuple[int, ...]]:
    """Images of the intervals, in permutation order; with ``shape`` per piece, onto equal shapes only."""
    for iperm in itertools.permutations(interval_ids):
        if not shape or all(shape[a] == shape[b] for a, b in zip(interval_ids, iperm)):
            yield iperm


def _kind_preserving_base_maps(partition, shape=None) -> Iterator[PieceMap]:
    """Maps sending intervals to intervals and points to points, in a fixed order.

    Given ``shape`` per piece, an interval goes only onto one of equal shape.
    """
    interval_ids = list(partition.interval_ids())
    point_ids = list(partition.point_ids())
    for iperm in _interval_perms(interval_ids, shape):
        for pperm in itertools.permutations(point_ids):
            perm = [0] * partition.piece_count
            for src, dst in zip(interval_ids, iperm):
                perm[src] = dst
            for src, dst in zip(point_ids, pperm):
                perm[src] = dst
            yield PieceMap(partition, tuple(perm))


def _atlas_plan(total_points, base_n, max_pieces, max_lifts) -> list[tuple[tuple[int, ...], int]]:
    """Every (distribution, base jump points) of the atlas, after its scale checks."""
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
    return plan


def _atlas_lifts(args) -> Iterator[Lift]:
    for distribution, n in _atlas_plan(*args):
        refinement = _atlas_refinement(distribution, n)
        shape = [tuple(map(len, kinds)) for kinds in refinement.kind_split]
        for base_map in _kind_preserving_base_maps(refinement.base, shape):
            for refined_map in enumerate_refined_maps(refinement, base_map):
                yield refinement, base_map, refined_map


class _Atlas:
    """The lift stream of ``atlas_instances``; ``lifts`` stays None until the first ``next()``."""

    def __init__(self, *args) -> None:
        self.args = args
        self.lifts: Iterator[Lift] | None = None

    def __iter__(self) -> "_Atlas":
        return self

    def __next__(self) -> Lift:
        if self.lifts is None:
            self.lifts = _atlas_lifts(self.args)
        return next(self.lifts)

    def census(self) -> dict[CaseSignature, CaseGroup]:
        """What ``classify_cases`` finds on the whole stream, which it leaves consumed."""
        self.lifts = iter(())
        return _atlas_census(_atlas_plan(*self.args))


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
    Handed whole to ``classify_cases``, the stream is counted, not walked.
    """
    return _Atlas(total_points, base_n, max_pieces, max_lifts)


def _type_size(cycle_type: tuple[int, ...]) -> int:
    """N!/z: how many permutations of N = sum(cycle_type) things have this cycle type."""
    z = math.prod(l**m * math.factorial(m) for l, m in Counter(cycle_type).items())
    return math.factorial(sum(cycle_type)) // z


@functools.cache
def _orbit_options(k: int, intervals: int, points: int) -> tuple[tuple, ...]:
    """The lifts over one base orbit of k pieces, each with these child counts, by cycle types.

    A lift's classes there depend only on the cycle types (lambda, mu) of its
    return maps on the subintervals and on the points: each l-cycle is one
    fine orbit of k*l pieces, in class (k, l).  Every arc but one is free and
    the last one fixes the return map, so (a! b!)^(k-1) * a!/z_lambda *
    b!/z_mu lifts have the pair (cycle index; Stanley, EC1 1.3).  One option
    per pair: (count, ((k, l), size) pairs, the lex-minimal permutations of
    types lambda and mu).
    """
    free = (math.factorial(intervals) * math.factorial(points)) ** (k - 1)
    options = []
    for lam in integer_partitions(intervals):
        for mu in integer_partitions(points):
            sizes = Counter()
            for l in lam + mu:
                sizes[k, l] += k * l
            options.append((
                free * _type_size(lam) * _type_size(mu),
                tuple(sorted(sizes.items())),
                _minimal_perm(lam),
                _minimal_perm(mu),
            ))
    return tuple(options)


@functools.cache
def _orbit_choices(orbits: tuple[tuple[int, int, int], ...]) -> tuple[tuple, ...]:
    """Per choice of one option for each (k, child counts) orbit: (triples, lifts, return pairs)."""
    return tuple(
        (
            _signature_triples(*(option[1] for option in choice)),
            math.prod(option[0] for option in choice),
            tuple(option[2:] for option in choice),
        )
        for choice in itertools.product(*(_orbit_options(*orbit) for orbit in orbits))
    )


def _atlas_census(plan) -> dict[CaseSignature, CaseGroup]:
    """``classify_cases`` of the atlas's lifts, from cycle types alone.

    Base points have one child each, so the n! permutations of the base
    points lift alike; their classes have multiplier 1, and the
    representative fixes them.  Over each interval permutation that admits
    lifts, a lift is one independent choice per base orbit, so its counts
    multiply and its class sizes add across the orbits' ``_orbit_options``.

    The representative of a choice is ``_minimal_lift`` of its orbits'
    return pairs: the lex-minimal lift with those return types.
    """
    found: dict[tuple, list] = {}  # triples -> [count, key, refinement]
    for distribution, n in plan:
        refinement = _atlas_refinement(distribution, n)
        split = refinement.kind_split
        shape = [tuple(map(len, kinds)) for kinds in split]
        pieces = refinement.refined.piece_count
        base_points = tuple(range(n + 1, 2 * n + 1))
        for iperm in _interval_perms(range(n + 1), shape):
            base_perm = iperm + base_points
            orbits = perm_cycles(iperm)
            straight = None
            for triples, lifts, returns in _orbit_choices(tuple((len(c), *shape[c[0]]) for c in orbits)):
                count = math.factorial(n) * lifts
                entry = found.get(triples)
                if entry is not None:
                    entry[0] += count
                    if (pieces, base_perm) > entry[1][:2]:
                        continue
                if straight is None:
                    straight = _straight_lift(split, base_perm, pieces)
                key = (pieces, base_perm, _minimal_lift(straight, split, base_perm, orbits, returns))
                if entry is None:
                    found[triples] = [count, key, refinement]
                elif key < entry[1]:
                    entry[1:] = key, refinement
    groups = [
        CaseGroup(
            CaseSignature(triples),
            count,
            (ref, PieceMap(ref.base, base_perm), PieceMap(ref.refined, refined_perm)),
        )
        for triples, (count, (_, base_perm, refined_perm), ref) in found.items()
    ]
    return {group.signature: group for group in groups}


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
    refinement = _atlas_refinement((k,), 0)
    base_map = PieceMap.identity(refinement.base)
    ints, pts = refinement.kind_split[0]
    shapes = set()
    for lift in enumerate_refined_maps(refinement, base_map):
        shapes.add((_cycle_type(lift.perm, ints), _cycle_type(lift.perm, pts)))
    return SubcaseDiagnostic(k=k, formula=formula, machine=len(shapes))
