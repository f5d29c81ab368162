"""Finite partitions of the real line and of abstract sets, plus refinements.

A partition of the line with N jump points t_1 < ... < t_N consists of the
N + 1 open intervals between consecutive jump points (the outer two are
half-infinite) together with the N one-point pieces {t_a}, so 2N + 1 pieces
in total.  Pieces are atoms: the engine only ever works with functions that
are constant on each piece, so a partition is a finite index set with kind
and ordering data, never a pointwise object.

Canonical ordering fixes piece ids: intervals left to right first, then the
jump points left to right.  Rebuilding from the same inputs always yields
identical ids and labels.

All endpoint and added-point values are exact rationals.  Floats are
rejected so that no comparison ever depends on binary rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence, Union

from .errors import (
    DuplicatePoint,
    NonIncreasingPoints,
    PointOutsideInterval,
    UnknownPiece,
    ZeroCellCount,
)

RationalLike = Union[Fraction, int, str]

# Python's default digit limit for integer strings; a larger exponent makes Fraction build 10**exp
MAX_DECIMAL_EXPONENT = 4300


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an exact rational given as Fraction, int, or string.

    Strings may be "p/q" or decimal ("3/4", "-2", "0.25").  Floats are
    refused: they silently carry binary rounding error.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not rational values")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        exponent = text.lower().partition("e")[2].replace("_", "")
        if exponent.lstrip("+-").isdecimal() and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
            raise ValueError(
                f"the exponent of {text[:40]!r} exceeds {MAX_DECIMAL_EXPONENT} in absolute value"
            )
        return Fraction(text)
    if isinstance(value, float):
        raise TypeError(
            "floats are not exact; pass a string like '1/3' or a Fraction"
        )
    raise TypeError(f"cannot interpret {value!r} as a rational value")


class PieceKind(Enum):
    INTERVAL = "interval"
    POINT = "point"
    CELL = "cell"


@dataclass(frozen=True)
class Piece:
    """One atom of a partition.

    ``parent`` is the id of the coarse piece this one refines; it is set on
    pieces of a refined partition and absent on base partitions.
    """

    id: int
    kind: PieceKind
    label: str
    parent: int | None = None


@dataclass(frozen=True)
class RealLinePartition:
    """Partition of the line into open intervals and their jump points."""

    jump_points: tuple[Fraction, ...]
    pieces: tuple[Piece, ...]

    def __post_init__(self) -> None:
        n = len(self.jump_points)
        for a, b in zip(self.jump_points, self.jump_points[1:]):
            if not a < b:
                raise NonIncreasingPoints(f"jump points not strictly increasing: {a} then {b}")
        if len(self.pieces) != 2 * n + 1:
            raise ValueError(f"expected {2 * n + 1} pieces for {n} jump points")
        for i, piece in enumerate(self.pieces):
            if piece.id != i:
                raise ValueError("piece ids must match their positions")
            want = PieceKind.INTERVAL if i <= n else PieceKind.POINT
            if piece.kind is not want:
                raise ValueError("pieces must list intervals first, then points")

    @property
    def n(self) -> int:
        return len(self.jump_points)

    @property
    def piece_count(self) -> int:
        return len(self.pieces)

    def interval_ids(self) -> range:
        return range(0, self.n + 1)

    def point_ids(self) -> range:
        return range(self.n + 1, 2 * self.n + 1)

    def bounds_of(self, interval_id: int) -> tuple[Fraction | None, Fraction | None]:
        """Open endpoints of an interval piece; None marks an infinite end."""
        if not 0 <= interval_id <= self.n or self.pieces[interval_id].kind is not PieceKind.INTERVAL:
            raise ValueError(f"piece {interval_id} is not an interval piece")
        lo = self.jump_points[interval_id - 1] if interval_id >= 1 else None
        hi = self.jump_points[interval_id] if interval_id < self.n else None
        return lo, hi

    def label_of(self, piece_id: int) -> str:
        return self.pieces[piece_id].label


@dataclass(frozen=True)
class AbstractPartition:
    """Finite partition of an abstract set; pieces carry no geometry."""

    pieces: tuple[Piece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("a partition needs at least one piece")
        for i, piece in enumerate(self.pieces):
            if piece.id != i:
                raise ValueError("piece ids must match their positions")
            if piece.kind is not PieceKind.CELL:
                raise ValueError("abstract pieces are kind-free cells")

    @property
    def cardinality(self) -> int:
        return len(self.pieces)

    @property
    def piece_count(self) -> int:
        return len(self.pieces)

    def label_of(self, piece_id: int) -> str:
        return self.pieces[piece_id].label


# a PEP 604 union: typing.Union is kept in typing's cache, holding these
# classes alive across fresh imports of the package
Partition = RealLinePartition | AbstractPartition


@dataclass(frozen=True)
class Refinement:
    """A partition together with a finer one and the parent relation.

    ``parent_of`` is total and surjective: every fine piece refines exactly
    one coarse piece and every coarse piece has at least one child.
    ``added_points`` records, for line partitions, which rationals were
    inserted into which interval; it is None for abstract refinements.
    """

    base: Partition
    refined: Partition
    parent_of: tuple[int, ...]
    added_points: Mapping[int, tuple[Fraction, ...]] | None

    def __post_init__(self) -> None:
        if len(self.parent_of) != self.refined.piece_count:
            raise ValueError("parent_of must cover every refined piece")
        parents = self.parent_of
        if not set(map(type, parents)) <= {int} or set(parents) != set(range(self.base.piece_count)):
            raise ValueError("parent_of must map onto the base pieces")

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Per base piece, its fine pieces in id order."""
        table: list[list[int]] = [[] for _ in range(self.base.piece_count)]
        for child, parent in enumerate(self.parent_of):
            table[parent].append(child)
        return tuple(tuple(kids) for kids in table)

    def children_of(self, base_id: int) -> tuple[int, ...]:
        return self.children[base_id]

    @cached_property
    def kind_split(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per base piece, its (non-point children, point children)."""
        pieces = self.refined.pieces
        return tuple(
            (
                tuple(c for c in kids if pieces[c].kind is not PieceKind.POINT),
                tuple(c for c in kids if pieces[c].kind is PieceKind.POINT),
            )
            for kids in self.children
        )

    @property
    def is_identity(self) -> bool:
        return self.refined is self.base


def identity_refinement(partition: Partition) -> Refinement:
    count = partition.piece_count
    added = {} if isinstance(partition, RealLinePartition) else None
    return Refinement(
        base=partition,
        refined=partition,
        parent_of=tuple(range(count)),
        added_points=added,
    )


def build_real_line_partition(jump_points: Sequence[RationalLike]) -> RealLinePartition:
    """Build the canonical partition for strictly increasing jump points."""
    values = tuple(as_fraction(p) for p in jump_points)
    n = len(values)
    pieces = [
        Piece(id=alpha, kind=PieceKind.INTERVAL, label=f"I_{alpha}")
        for alpha in range(n + 1)
    ]
    pieces.extend(
        Piece(id=n + 1 + j, kind=PieceKind.POINT, label=f"{{t_{j + 1}}}")
        for j in range(n)
    )
    return RealLinePartition(jump_points=values, pieces=tuple(pieces))


def build_abstract_partition(cardinality: int) -> AbstractPartition:
    if cardinality < 1:
        raise ValueError("a partition needs at least one piece")
    pieces = tuple(
        Piece(id=i, kind=PieceKind.CELL, label=f"X_{i}") for i in range(cardinality)
    )
    return AbstractPartition(pieces=pieces)


def evenly_spaced_inside(
    lo: Fraction | None, hi: Fraction | None, count: int
) -> tuple[Fraction, ...]:
    """Deterministic choice of ``count`` rationals strictly inside (lo, hi)."""
    if count <= 0:
        return ()
    if lo is None and hi is None:
        return tuple(Fraction(j) for j in range(1, count + 1))
    if lo is None:
        assert hi is not None
        return tuple(hi - count - 1 + j for j in range(1, count + 1))
    if hi is None:
        return tuple(lo + j for j in range(1, count + 1))
    step = (hi - lo) / (count + 1)
    return tuple(lo + step * j for j in range(1, count + 1))


def refine_real_line(
    base: RealLinePartition,
    additions: Mapping[int, Sequence[RationalLike]],
) -> Refinement:
    """Insert new jump points into interval pieces of ``base``.

    ``additions`` maps an interval piece id to the points dropped into that
    interval.  Each point must lie strictly inside its target interval and
    all added values must be distinct.  Inserting m points total turns a
    partition with 2N+1 pieces into one with 2(N+m)+1 pieces.
    """
    n = base.n
    adds: dict[int, tuple[Fraction, ...]] = {}
    for key, raw_points in additions.items():
        alpha = int(key)
        if not (0 <= alpha < base.piece_count) or base.pieces[alpha].kind is not PieceKind.INTERVAL:
            raise PointOutsideInterval(f"piece {alpha} is not an interval piece")
        points = sorted(as_fraction(p) for p in raw_points)
        if len(set(points)) != len(points):
            raise DuplicatePoint(f"repeated point among additions to I_{alpha}")
        lo, hi = base.bounds_of(alpha)
        for s in points:
            if (lo is not None and not lo < s) or (hi is not None and not s < hi):
                raise PointOutsideInterval(
                    f"{s} is not strictly inside {base.label_of(alpha)}"
                )
        if points:
            adds[alpha] = tuple(points)

    all_added = [s for pts in adds.values() for s in pts]
    m = len(all_added)
    if m == 0:
        return identity_refinement(base)

    new_jumps = tuple(sorted(base.jump_points + tuple(all_added)))

    pieces: list[Piece] = []
    for alpha in range(n + 1):
        inserted = adds.get(alpha, ())
        if inserted:
            labels = [f"I_{alpha}^{j}" for j in range(1, len(inserted) + 2)]
        else:
            labels = [base.label_of(alpha)]
        for label in labels:
            pieces.append(Piece(id=len(pieces), kind=PieceKind.INTERVAL, label=label, parent=alpha))

    added_rank = {s: i + 1 for i, s in enumerate(sorted(all_added))}
    base_point_id = {t: n + 1 + j for j, t in enumerate(base.jump_points)}
    owner = {s: alpha for alpha, pts in adds.items() for s in pts}
    for value in new_jumps:
        if value in base_point_id:
            parent = base_point_id[value]
            label = base.label_of(parent)
        else:
            parent = owner[value]
            label = f"{{s_{added_rank[value]}}}"
        pieces.append(Piece(id=len(pieces), kind=PieceKind.POINT, label=label, parent=parent))

    refined = RealLinePartition(jump_points=new_jumps, pieces=tuple(pieces))
    parent_of = tuple(p.parent for p in pieces)  # type: ignore[arg-type]
    return Refinement(
        base=base,
        refined=refined,
        parent_of=parent_of,
        added_points=adds,
    )


def refine_abstract(
    base: AbstractPartition, cell_counts: Mapping[int, int]
) -> Refinement:
    """Split piece i into cell_counts.get(i, 1) cells; keys naming no piece raise UnknownPiece."""
    stray = sorted(set(cell_counts).difference(range(base.cardinality)))
    if stray:
        raise UnknownPiece(f"no piece {stray[0]}; the base has pieces 0..{base.cardinality - 1}")
    counts: list[int] = []
    for i in range(base.cardinality):
        s = int(cell_counts.get(i, 1))
        if s < 1:
            raise ZeroCellCount(f"piece {base.label_of(i)} needs at least one cell, got {s}")
        counts.append(s)
    if all(s == 1 for s in counts):
        return identity_refinement(base)

    pieces: list[Piece] = []
    parent_of: list[int] = []
    for i, s in enumerate(counts):
        for r in range(1, s + 1):
            label = base.label_of(i) if s == 1 else f"{base.label_of(i)}^{r}"
            pieces.append(
                Piece(id=len(pieces), kind=PieceKind.CELL, label=label, parent=i)
            )
            parent_of.append(i)
    refined = AbstractPartition(pieces=tuple(pieces))
    return Refinement(
        base=base,
        refined=refined,
        parent_of=tuple(parent_of),
        added_points=None,
    )
