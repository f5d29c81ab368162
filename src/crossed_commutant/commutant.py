"""Separation sets and commutants of coarse subalgebras.

A subalgebra view embeds a coarse partition into the one the dynamics acts
on: every fine piece knows which coarse piece it sits in.  The functions
constant on coarse pieces form a subalgebra A of the fine function algebra.

For a degree n, the separation set of A is where some member of A can tell
the n-th transport apart from itself.  A fine piece is separated exactly
when the period of its coarse piece under the descended map does not divide
n, so the separation sets are unions of whole period classes and are
described once by a divisibility rule rather than degree by degree.  The
rule lives in ``CommutantDescription`` alone, and ``sep_set`` reads the one
description cached per (view, map); its tables depend on n mod the lcm of the
class periods only, so each is computed once per residue.  The elements of
the crossed product commuting with all of A are those whose degree-n
coefficient vanishes on the degree-n separation set; they form the unique
maximal commutative subalgebra containing A when A separates enough.

``brute_force_sep`` evaluates the defining condition literally, generator by
generator, and serves as the independent oracle for ``sep_set``.  It
transports every generator once per residue of n mod the order of the fine
permutation and keeps the set found there; no theory of the rule enters.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from math import lcm
from typing import Callable, Mapping

from .crossed import (
    CoefficientVector,
    CrossedElement,
    indicator_element,
    monomial,
    multiply,
    sigma_tilde_pow,
)
from .dynamics import (
    PieceMap,
    _Memo,
    cycle_lengths,
    refined_cycle_classes,
    validate_refined_invariance,
)
from .errors import LiftInconsistent, MapDoesNotDescend, PartitionMismatch
from .partition import Partition, Refinement


def _periodic(table: Callable[..., frozenset[int]]) -> Callable[..., frozenset[int]]:
    """Memoise a degree table by n mod ``period``: it depends on nothing else."""

    @wraps(table)
    def read(self, n: int) -> frozenset[int]:
        key = (table, n % self.period)
        if key not in self._memo:
            self._memo[key] = table(self, key[1])
        return self._memo[key]

    return read


@dataclass(frozen=True)
class SubalgebraView(_Memo):
    """A coarse partition embedded in the partition the dynamics lives on."""

    ambient: Partition
    sub: Partition
    embed: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.embed) != self.ambient.piece_count:
            raise ValueError("embed must assign a coarse piece to every fine piece")
        embed = self.embed
        if not set(map(type, embed)) <= {int} or set(embed) != set(range(self.sub.piece_count)):
            raise ValueError("embed must map onto the coarse pieces")

    @classmethod
    def identity(cls, partition: Partition) -> "SubalgebraView":
        return cls(partition, partition, tuple(range(partition.piece_count)))

    @classmethod
    def of_refinement(cls, refinement: Refinement) -> "SubalgebraView":
        return cls(refinement.refined, refinement.base, refinement.parent_of)

    @cached_property
    def _fibers(self) -> dict[int, tuple[int, ...]]:
        fibers: dict[int, list[int]] = {}
        for p, q in enumerate(self.embed):
            fibers.setdefault(q, []).append(p)
        return {q: tuple(ps) for q, ps in fibers.items()}

    def preimage(self, coarse_id: int) -> tuple[int, ...]:
        return self._fibers.get(coarse_id, ())


def descend_map(view: SubalgebraView, piece_map: PieceMap) -> tuple[int, ...]:
    """The permutation induced on coarse pieces, if one exists."""
    if piece_map.partition != view.ambient:
        raise PartitionMismatch("map does not act on the view's fine partition")
    coarse: list[int | None] = [None] * view.sub.piece_count
    for fine, image in enumerate(piece_map.perm):
        src, dst = view.embed[fine], view.embed[image]
        if coarse[src] is None:
            coarse[src] = dst
        elif coarse[src] != dst:
            raise MapDoesNotDescend(
                f"coarse piece {view.sub.label_of(src)} is torn between "
                f"{view.sub.label_of(coarse[src])} and {view.sub.label_of(dst)}"
            )
    return tuple(coarse)  # type: ignore[arg-type]


def sep_set(view: SubalgebraView, piece_map: PieceMap, n: int) -> frozenset[int]:
    """Fine pieces where the coarse algebra separates the n-th transport.

    A fine piece belongs to the set exactly when the period of its coarse
    piece under the descended permutation does not divide n; degree 0 always
    yields the empty set.  The set is read from the one description cached
    for (view, map), whose tables are periodic in n.
    """
    return commutant_description(view, piece_map).sep(n)


def brute_force_sep(view: SubalgebraView, piece_map: PieceMap, n: int) -> frozenset[int]:
    """The separation set computed literally from its definition.

    Walks the coarse indicator generators, transports each by the n-th power
    of the action, and records every fine piece where some generator and its
    transport disagree: both are indicators, so that is the symmetric
    difference of their supports.  Spanning arguments make generators sufficient.
    No cycle or divisibility reasoning is used; this is the oracle.  The
    generators are built once per (view, map), after the map passes the same
    descent check as ``sep_set``.  The transport depends on n only through
    n mod the map's order, so every generator is transported once per residue
    and the set found there is kept for that residue.
    """
    key = ("oracle", id(piece_map))
    cached = view._memo.get(key)
    if cached is None:
        descend_map(view, piece_map)  # same preconditions as sep_set
        size = view.ambient.piece_count
        generators = [CoefficientVector.indicator(size, view.preimage(q))
                      for q in range(view.sub.piece_count)]
        # holding the map keeps its id from reuse
        cached = view._memo[key] = (piece_map, generators, {})
    _, generators, tables = cached
    r = n % piece_map.period
    if r not in tables:
        separated: set[int] = set()
        for h in generators:
            separated.update(h.nums.keys() ^ sigma_tilde_pow(h, piece_map, n).nums.keys())
        tables[r] = frozenset(separated)
    return tables[r]


@dataclass(frozen=True)
class CommutantDescription(_Memo):
    """Intensional description of the commutant of a coarse subalgebra.

    ``class_pieces[k]`` collects the fine pieces whose coarse piece has
    period k.  The degree-n component of the commutant is supported exactly
    on the union of the classes with k dividing n, for every integer n at
    once; this is the one home of that divisibility rule.
    """

    view: SubalgebraView
    class_pieces: Mapping[int, frozenset[int]]

    @property
    def piece_count(self) -> int:
        return self.view.ambient.piece_count

    @cached_property
    def period(self) -> int:
        """The lcm of the class periods; every table depends on n mod it only."""
        return lcm(*self.class_pieces)

    @_periodic
    def allowed(self, n: int) -> frozenset[int]:
        return frozenset().union(*(v for k, v in self.class_pieces.items() if n % k == 0))

    @_periodic
    def sep(self, n: int) -> frozenset[int]:
        return frozenset(range(self.piece_count)) - self.allowed(n)

    def rule_text(self) -> str:
        parts = [
            f"period {k}: "
            + ", ".join(self.view.ambient.label_of(p) for p in sorted(pieces))
            for k, pieces in sorted(self.class_pieces.items())
        ]
        return f"degree n allows exactly the pieces whose period divides n ({'; '.join(parts)})"


def commutant_description(view: SubalgebraView, piece_map: PieceMap) -> CommutantDescription:
    """The commutant of the view's coarse algebra under the map, cached per (view, map).

    A map on another partition, or one that does not descend, raises on every call.
    """
    # id(map) -> (map, description); holding the map keeps its id from reuse.  A
    # held map passed descend_map, which refuses a map on another partition.
    cached = view._memo.get(id(piece_map))
    if cached is not None:
        return cached[1]
    periods = cycle_lengths(descend_map(view, piece_map))
    grouped: dict[int, set[int]] = {}
    for p, q in enumerate(view.embed):
        grouped.setdefault(periods[q], set()).add(p)
    description = CommutantDescription(view, {k: frozenset(v) for k, v in sorted(grouped.items())})
    view._memo[id(piece_map)] = (piece_map, description)
    return description


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    witness: tuple[int, int] | None  # (degree, fine piece)


def is_in_commutant(elem: CrossedElement, description: CommutantDescription) -> MembershipResult:
    """Support test: every coefficient must vanish on its degree's separation set.

    The witness, when membership fails, is the first offending (degree,
    piece) pair in ascending order.
    """
    if elem.size is not None and elem.size != description.piece_count:
        raise PartitionMismatch("element does not live on the description's partition")
    for n, vec in elem.terms:
        outside = vec.support() - description.allowed(n)
        if outside:
            return MembershipResult(member=False, witness=(n, min(outside)))
    return MembershipResult(member=True, witness=None)


def generator_element(view: SubalgebraView, coarse_id: int) -> CrossedElement:
    """The degree-0 indicator generator of one coarse piece."""
    return indicator_element(view.ambient.piece_count, view.preimage(coarse_id), 0)


def find_noncommuting_witness(
    elem: CrossedElement, view: SubalgebraView, piece_map: PieceMap
) -> int | None:
    """A coarse generator that fails to commute with ``elem``, if any.

    Returns the coarse piece id of the first non-commuting indicator
    generator when ``elem`` lies outside the commutant; such a generator
    always exists then.  Returns None for members, after checking
    commutation against five random coarse elements drawn from a generator
    seeded 1105.
    """
    description = commutant_description(view, piece_map)
    verdict = is_in_commutant(elem, description)
    if not verdict.member:
        for q in range(view.sub.piece_count):
            g = generator_element(view, q)
            if multiply(elem, g, piece_map) != multiply(g, elem, piece_map):
                return q
        raise RuntimeError("non-member without a generator witness; engine bug")
    rng = random.Random(1105)
    size = view.ambient.piece_count
    for _ in range(5):
        coarse_values = [Fraction(rng.randint(-3, 3)) for _ in range(view.sub.piece_count)]
        vec = CoefficientVector(tuple(coarse_values[view.embed[p]] for p in range(size)))
        g = monomial(vec, 0)
        if multiply(elem, g, piece_map) != multiply(g, elem, piece_map):
            raise RuntimeError("commutant member failed to commute; engine bug")
    return None


def _require_lift(refinement: Refinement, base_map: PieceMap, refined_map: PieceMap) -> None:
    report = validate_refined_invariance(refinement, base_map, refined_map)
    if not report.ok:
        raise LiftInconsistent("; ".join(report.messages()))


def refined_sep(
    refinement: Refinement, base_map: PieceMap, refined_map: PieceMap, n: int
) -> frozenset[int]:
    """Degree-n separation set of the full refined algebra, as fine pieces.

    Computed from the fine periods once the lift is checked.  It decomposes
    as the coarse separation set plus ``commutant_difference(...)
    .forbidden_at(n)``; the self-test checks that law.
    """
    _require_lift(refinement, base_map, refined_map)
    return sep_set(SubalgebraView.identity(refinement.refined), refined_map, n)


@dataclass(frozen=True)
class DifferenceDescription(_Memo):
    """Where the coarse commutant exceeds the refined one, per degree.

    A fine piece in class (k, l) is allowed at degree n by the coarse
    commutant when k divides n, but by the refined commutant only when k*l
    does; the difference at degree n is the union of the classes with k
    dividing n and l not dividing n/k.  Classes with l = 1 never contribute.
    """

    refinement: Refinement
    tilde_classes: Mapping[tuple[int, int], frozenset[int]]

    @property
    def period(self) -> int:
        """The lcm of the fine periods k*l: the refined commutant's period."""
        return self.refined.period

    @cached_property
    def coarse(self) -> CommutantDescription:
        """The coarse commutant: a piece in class (k, l) has coarse period k."""
        return self._described(SubalgebraView.of_refinement(self.refinement), lambda k, l: k)

    @cached_property
    def refined(self) -> CommutantDescription:
        """The refined commutant: a piece in class (k, l) has fine period k*l."""
        return self._described(SubalgebraView.identity(self.refinement.refined), lambda k, l: k * l)

    def _described(self, view: SubalgebraView, period) -> CommutantDescription:
        grouped: dict[int, frozenset[int]] = {}
        for (k, l), pieces in self.tilde_classes.items():
            key = period(k, l)
            grouped[key] = grouped.get(key, frozenset()) | pieces
        return CommutantDescription(view, dict(sorted(grouped.items())))

    @_periodic
    def forbidden_at(self, n: int) -> frozenset[int]:
        return self.coarse.allowed(n) - self.refined.allowed(n)

    def active_classes(self) -> dict[tuple[int, int], frozenset[int]]:
        return {(k, l): v for (k, l), v in sorted(self.tilde_classes.items()) if l >= 2}


def commutant_difference(
    refinement: Refinement, base_map: PieceMap, refined_map: PieceMap
) -> DifferenceDescription:
    """Compare the commutants of the coarse and refined algebras.

    Both live inside the crossed product over the refined partition; the
    refined commutant is always contained in the coarse one, and the
    per-degree gap is exactly the union described by ``forbidden_at``.
    Both descriptions are read off the (k, l) classes on first use: a fine
    piece has coarse period k once the lift is checked, and fine period k*l.
    """
    _require_lift(refinement, base_map, refined_map)
    rcc = refined_cycle_classes(refinement, base_map, refined_map)
    return DifferenceDescription(refinement, rcc.tilde_classes)
