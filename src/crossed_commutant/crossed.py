"""Exact arithmetic in the crossed product of a piecewise constant algebra.

A function constant on every piece of a partition is a coefficient vector of
rationals indexed by piece id.  The dynamics acts on such functions by
precomposition with the inverse point map, which on vectors is just an index
shuffle: the transported value on piece P is the old value on the n-th
inverse image of P.

An element of the crossed product is a finitely supported sum of terms
"vector at integer degree n"; multiplication twists the right factor by the
action before multiplying pointwise and adds the degrees.  Everything is
exact: coefficients are ``fractions.Fraction`` throughout, never floating
point.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

from .dynamics import PieceMap, perm_power
from .errors import PartitionMismatch
from .partition import RationalLike, as_fraction

if TYPE_CHECKING:  # pragma: no cover
    from .commutant import CommutantDescription

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CoefficientVector:
    """One rational value per piece; the function constant on each piece."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", tuple(as_fraction(v) for v in self.values)
        )

    @classmethod
    def zeros(cls, size: int) -> "CoefficientVector":
        return cls((_ZERO,) * size)

    @classmethod
    def ones(cls, size: int) -> "CoefficientVector":
        return cls((_ONE,) * size)

    @classmethod
    def indicator(cls, size: int, pieces: Iterable[int]) -> "CoefficientVector":
        chosen = set(pieces)
        return cls(tuple(_ONE if i in chosen else _ZERO for i in range(size)))

    def __len__(self) -> int:
        return len(self.values)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.values) if v != 0)

    def __add__(self, other: "CoefficientVector") -> "CoefficientVector":
        self._check(other)
        return CoefficientVector(tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "CoefficientVector") -> "CoefficientVector":
        self._check(other)
        return CoefficientVector(tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other: "CoefficientVector") -> "CoefficientVector":
        """Pointwise product: multiplication in the function algebra."""
        self._check(other)
        return CoefficientVector(tuple(a * b for a, b in zip(self.values, other.values)))

    def scale(self, c: RationalLike) -> "CoefficientVector":
        c = as_fraction(c)
        return CoefficientVector(tuple(c * v for v in self.values))

    def _check(self, other: "CoefficientVector") -> None:
        if len(self.values) != len(other.values):
            raise PartitionMismatch(
                f"vectors of length {len(self.values)} and {len(other.values)}"
            )


VectorLike = Union[CoefficientVector, Sequence[RationalLike]]


def _as_vector(value: VectorLike) -> CoefficientVector:
    if isinstance(value, CoefficientVector):
        return value
    return CoefficientVector(tuple(value))


@dataclass(frozen=True)
class CrossedElement:
    """Finitely supported map from degrees to coefficient vectors.

    Normal form: zero vectors are pruned and terms are sorted by degree, so
    structural equality is equality of elements.
    """

    terms: tuple[tuple[int, CoefficientVector], ...]

    def degrees(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.terms)

    def term(self, degree: int) -> CoefficientVector | None:
        for n, vec in self.terms:
            if n == degree:
                return vec
        return None

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def size(self) -> int | None:
        """Length of the coefficient vectors, or None for the zero element."""
        return len(self.terms[0][1]) if self.terms else None

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        acc = {n: vec for n, vec in self.terms}
        for n, vec in other.terms:
            acc[n] = acc[n] + vec if n in acc else vec
        return crossed_element(acc)

    def __sub__(self, other: "CrossedElement") -> "CrossedElement":
        return self + other.scale(-1)

    def scale(self, c: RationalLike) -> "CrossedElement":
        return crossed_element({n: vec.scale(c) for n, vec in self.terms})

    def to_json(self) -> dict:
        return {"terms": {str(n): [str(v) for v in vec.values] for n, vec in self.terms}}

    @classmethod
    def from_json(cls, data: Mapping) -> "CrossedElement":
        terms = data.get("terms", {})
        return crossed_element({int(n): vals for n, vals in terms.items()})


def crossed_element(terms: Mapping[int, VectorLike]) -> CrossedElement:
    """Build the normal form, pruning zero vectors and fixing the order."""
    vectors = {int(n): _as_vector(vec) for n, vec in terms.items()}
    sizes = {len(v) for v in vectors.values()}
    if len(sizes) > 1:
        raise PartitionMismatch(f"terms have mixed vector lengths: {sorted(sizes)}")
    pruned = sorted((n, v) for n, v in vectors.items() if not v.is_zero())
    return CrossedElement(tuple(pruned))


def monomial(vec: VectorLike, degree: int) -> CrossedElement:
    return crossed_element({degree: vec})


def indicator_element(size: int, pieces: Iterable[int], degree: int = 0) -> CrossedElement:
    return monomial(CoefficientVector.indicator(size, pieces), degree)


def sigma_tilde_pow(f: CoefficientVector, piece_map: PieceMap, n: int) -> CoefficientVector:
    """Transport a piecewise constant function by the n-th power of the map.

    The result takes, on piece P, the value f held on the n-th inverse image
    of P; equivalently the indicator of Q is carried to the indicator of the
    image of Q.
    """
    if len(f) != piece_map.size:
        raise PartitionMismatch(
            f"vector of length {len(f)} on a partition with {piece_map.size} pieces"
        )
    back = perm_power(piece_map.perm, -n)
    return CoefficientVector(tuple(f.values[back[p]] for p in range(len(f))))


def multiply(f: CrossedElement, g: CrossedElement, piece_map: PieceMap) -> CrossedElement:
    """Twisted convolution: term (n, m) contributes at degree n + m.

    The right coefficient is transported by the n-th power of the action
    before the pointwise product with the left coefficient.
    """
    for elem in (f, g):
        if elem.size is not None and elem.size != piece_map.size:
            raise PartitionMismatch("element does not live on the map's partition")
    acc: dict[int, CoefficientVector] = {}
    for n, fn in f.terms:
        for m, gm in g.terms:
            contrib = fn * sigma_tilde_pow(gm, piece_map, n)
            if contrib.is_zero():
                continue
            d = n + m
            acc[d] = acc[d] + contrib if d in acc else contrib
    return crossed_element(acc)


# ---------------------------------------------------------------------------
# exact rank and the strong grading test


def rational_rank(rows: Iterable[Sequence[Fraction]]) -> int:
    """Rank over the rationals by fraction-exact Gaussian elimination."""
    work = [list(r) for r in rows if any(v != 0 for v in r)]
    if not work:
        return 0
    width = len(work[0])
    rank = 0
    col = 0
    while work and col < width:
        pivot_row = next((i for i, r in enumerate(work) if r[col] != 0), None)
        if pivot_row is None:
            col += 1
            continue
        row = work.pop(pivot_row)
        pivot = row[col]
        rank += 1
        reduced = [v / pivot for v in row]
        remaining = []
        for r in work:
            if r[col] != 0:
                factor = r[col]
                r = [a - factor * b for a, b in zip(r, reduced)]
            if any(v != 0 for v in r):
                remaining.append(r)
        work = remaining
        col += 1
    return rank


@dataclass(frozen=True)
class GradingResult:
    strongly_graded: bool
    witness: tuple[int, int] | None
    window: int
    detail: str


def is_strongly_graded(
    description: "CommutantDescription", piece_map: PieceMap, degree_window: int
) -> GradingResult:
    """Decide within a degree window whether products of graded components fill.

    For every degree pair (n, m) with abs(n), abs(m) <= degree_window, the
    products of basis monomials from degrees n and m are the unit vectors on
    the pieces p of A(n) whose n-th preimage lies in A(m).  One product, of
    the indicator of A(n) at degree n with that of A(m) at degree m, has
    exactly that support, so its size is the span rank, compared against the
    full component A(n + m).  Pairs are scanned outward from zero so the
    first witness is the smallest one.
    """
    size = piece_map.size
    # 0, 1, -1, 2, -2, ...; the stable sort keeps that order within a radius
    order = sorted(range(-degree_window, degree_window + 1), key=lambda n: (abs(n), -n))
    pairs = sorted(itertools.product(order, repeat=2), key=lambda nm: max(map(abs, nm)))
    for n, m in pairs:
        product = multiply(
            indicator_element(size, description.allowed(n), n),
            indicator_element(size, description.allowed(m), m),
            piece_map,
        )
        vec = product.term(n + m)
        spanned = frozenset() if vec is None else vec.support()
        target = description.allowed(n + m)
        if not spanned <= target:
            raise AssertionError("product of commutant components left the commutant")
        if len(spanned) < len(target):
            return GradingResult(
                strongly_graded=False,
                witness=(n, m),
                window=degree_window,
                detail=(
                    f"products from degrees {n} and {m} span rank {len(spanned)} "
                    f"inside a component of dimension {len(target)}"
                ),
            )
    return GradingResult(
        strongly_graded=True,
        witness=None,
        window=degree_window,
        detail="every degree pair in the window has full product span",
    )
