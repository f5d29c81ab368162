"""Separation sets and commutants of coarse subalgebras.

A subalgebra view embeds a coarse partition into the one the dynamics acts
on: every fine piece knows which coarse piece it sits in.  The functions
constant on coarse pieces form a subalgebra A of the fine function algebra.

For a degree n, the separation set of A is where some member of A can tell
the n-th transport apart from itself.  A fine piece is separated exactly
when the period of its coarse piece under the descended map does not divide
n, so the separation sets are unions of whole period classes and are
described once by a divisibility rule rather than degree by degree.  The
elements of the crossed product commuting with all of A are those whose
degree-n coefficient vanishes on the degree-n separation set; they form the
unique maximal commutative subalgebra containing A when A separates enough.

``brute_force_sep`` evaluates the defining condition literally, generator by
generator, and serves as the independent oracle for ``sep_set``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

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
    cycle_lengths,
    refined_cycle_classes,
    validate_refined_invariance,
)
from .errors import LiftInconsistent, MapDoesNotDescend, PartitionMismatch
from .partition import Partition, Refinement


@dataclass(frozen=True)
class SubalgebraView:
    """A coarse partition embedded in the partition the dynamics lives on."""

    ambient: Partition
    sub: Partition
    embed: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.embed) != self.ambient.piece_count:
            raise ValueError("embed must assign a coarse piece to every fine piece")
        if set(self.embed) != set(range(self.sub.piece_count)):
            raise ValueError("embed must map onto the coarse pieces")

    @classmethod
    def identity(cls, partition: Partition) -> "SubalgebraView":
        return cls(partition, partition, tuple(range(partition.piece_count)))

    @classmethod
    def of_refinement(cls, refinement: Refinement) -> "SubalgebraView":
        return cls(refinement.refined, refinement.base, refinement.parent_of)

    def preimage(self, coarse_id: int) -> tuple[int, ...]:
        return tuple(p for p, q in enumerate(self.embed) if q == coarse_id)


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


def _coarse_periods(view: SubalgebraView, piece_map: PieceMap) -> tuple[int, ...]:
    return cycle_lengths(descend_map(view, piece_map))


def sep_set(view: SubalgebraView, piece_map: PieceMap, n: int) -> frozenset[int]:
    """Fine pieces where the coarse algebra separates the n-th transport.

    A fine piece belongs to the set exactly when the period of its coarse
    piece under the descended permutation does not divide n; degree 0 always
    yields the empty set.
    """
    periods = _coarse_periods(view, piece_map)
    return frozenset(
        p for p in range(view.ambient.piece_count) if n % periods[view.embed[p]] != 0
    )


def brute_force_sep(view: SubalgebraView, piece_map: PieceMap, n: int) -> frozenset[int]:
    """The separation set computed literally from its definition.

    Walks the coarse indicator generators, transports each by the n-th power
    of the action, and records every fine piece where some generator and its
    transport disagree.  Spanning arguments make generators sufficient.  No
    cycle or divisibility reasoning is used; this is the oracle.
    """
    descend_map(view, piece_map)  # same preconditions as sep_set
    size = view.ambient.piece_count
    separated: set[int] = set()
    for q in range(view.sub.piece_count):
        h = CoefficientVector.indicator(size, view.preimage(q))
        moved = sigma_tilde_pow(h, piece_map, n)
        for p in range(size):
            if h.values[p] != moved.values[p]:
                separated.add(p)
    return frozenset(separated)


@dataclass(frozen=True)
class CommutantDescription:
    """Intensional description of the commutant of a coarse subalgebra.

    ``class_pieces[k]`` collects the fine pieces whose coarse piece has
    period k.  The degree-n component of the commutant is supported exactly
    on the union of the classes with k dividing n, for every integer n at
    once.
    """

    view: SubalgebraView
    class_pieces: Mapping[int, frozenset[int]]

    @property
    def piece_count(self) -> int:
        return self.view.ambient.piece_count

    def allowed(self, n: int) -> frozenset[int]:
        out: set[int] = set()
        for k, pieces in self.class_pieces.items():
            if n % k == 0:
                out |= pieces
        return frozenset(out)

    def sep(self, n: int) -> frozenset[int]:
        return frozenset(range(self.piece_count)) - self.allowed(n)

    def rule_text(self) -> str:
        parts = [
            f"period {k}: "
            + ", ".join(self.view.ambient.label_of(p) for p in sorted(pieces))
            for k, pieces in sorted(self.class_pieces.items())
        ]
        return (
            "degree n allows exactly the pieces whose period divides n ("
            + "; ".join(parts)
            + ")"
        )


def commutant_description(view: SubalgebraView, piece_map: PieceMap) -> CommutantDescription:
    periods = _coarse_periods(view, piece_map)
    grouped: dict[int, set[int]] = {}
    for p in range(view.ambient.piece_count):
        grouped.setdefault(periods[view.embed[p]], set()).add(p)
    return CommutantDescription(
        view=view,
        class_pieces={k: frozenset(v) for k, v in sorted(grouped.items())},
    )


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
        allowed = description.allowed(n)
        for p, value in enumerate(vec.values):
            if value != 0 and p not in allowed:
                return MembershipResult(member=False, witness=(n, p))
    return MembershipResult(member=True, witness=None)


def generator_element(view: SubalgebraView, coarse_id: int) -> CrossedElement:
    """The degree-0 indicator generator of one coarse piece."""
    return indicator_element(view.ambient.piece_count, view.preimage(coarse_id), 0)


def find_noncommuting_witness(
    elem: CrossedElement,
    view: SubalgebraView,
    piece_map: PieceMap,
    sample: int = 5,
    rng: random.Random | None = None,
) -> int | None:
    """A coarse generator that fails to commute with ``elem``, if any.

    Returns the coarse piece id of the first non-commuting indicator
    generator when ``elem`` lies outside the commutant; such a generator
    always exists then.  Returns None for members, after checking
    commutation against a small random sample of coarse elements.
    """
    description = commutant_description(view, piece_map)
    verdict = is_in_commutant(elem, description)
    if not verdict.member:
        for q in range(view.sub.piece_count):
            g = generator_element(view, q)
            if multiply(elem, g, piece_map) != multiply(g, elem, piece_map):
                return q
        raise RuntimeError("non-member without a generator witness; engine bug")
    rng = rng if rng is not None else random.Random(1105)
    size = view.ambient.piece_count
    for _ in range(sample):
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
class DifferenceDescription:
    """Where the coarse commutant exceeds the refined one, per degree.

    A fine piece in class (k, l) is allowed at degree n by the coarse
    commutant when k divides n, but by the refined commutant only when k*l
    does; the difference at degree n is the union of the classes with k
    dividing n and l not dividing n/k.  Classes with l = 1 never contribute.
    """

    tilde_classes: Mapping[tuple[int, int], frozenset[int]]
    coarse: CommutantDescription
    refined: CommutantDescription

    def forbidden_at(self, n: int) -> frozenset[int]:
        out: set[int] = set()
        for (k, l), pieces in self.tilde_classes.items():
            if n % k == 0 and (n // k) % l != 0:
                out |= pieces
        return frozenset(out)

    def active_classes(self) -> dict[tuple[int, int], frozenset[int]]:
        return {(k, l): v for (k, l), v in sorted(self.tilde_classes.items()) if l >= 2}

    def is_coarse_only(self, elem: CrossedElement) -> bool:
        """Membership in the coarse commutant but not the refined one."""
        return (
            is_in_commutant(elem, self.coarse).member
            and not is_in_commutant(elem, self.refined).member
        )


def commutant_difference(
    refinement: Refinement, base_map: PieceMap, refined_map: PieceMap
) -> DifferenceDescription:
    """Compare the commutants of the coarse and refined algebras.

    Both live inside the crossed product over the refined partition; the
    refined commutant is always contained in the coarse one, and the
    per-degree gap is exactly the union described by ``forbidden_at``.
    Both descriptions are read off the (k, l) classes: a fine piece has
    coarse period k once the lift is checked, and fine period k*l.
    """
    _require_lift(refinement, base_map, refined_map)
    rcc = refined_cycle_classes(refinement, base_map, refined_map)
    by_parent_period: dict[int, frozenset[int]] = {}
    for (k, _), pieces in rcc.tilde_classes.items():
        by_parent_period[k] = by_parent_period.get(k, frozenset()) | pieces
    return DifferenceDescription(
        tilde_classes=dict(rcc.tilde_classes),
        coarse=CommutantDescription(SubalgebraView.of_refinement(refinement), by_parent_period),
        refined=CommutantDescription(
            SubalgebraView.identity(refinement.refined), rcc.refined.classes
        ),
    )
