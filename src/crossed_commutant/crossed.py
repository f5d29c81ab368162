"""Exact arithmetic in the crossed product of a piecewise constant algebra.

A function constant on every piece of a partition is a coefficient vector of
rationals indexed by piece id.  The dynamics acts on such functions by
precomposition with the inverse point map, which on vectors is just an index
shuffle: the transported value on piece P is the old value on the n-th
inverse image of P.  A vector stores only its nonzero entries, so transport,
sums and products cost the support, not the number of pieces.

An element of the crossed product is a finitely supported sum of terms
"vector at integer degree n"; multiplication twists the right factor by the
action before multiplying pointwise and adds the degrees.  Everything is
exact, never floating point: a vector holds integer numerators over one
reduced denominator, and its values read back as ``fractions.Fraction``.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING

from .dynamics import PieceMap, perm_power
from .errors import PartitionMismatch
from .partition import RationalLike, as_fraction

if TYPE_CHECKING:  # pragma: no cover
    from .commutant import CommutantDescription

_ZERO = Fraction(0)


@dataclass(frozen=True, init=False, repr=False)
class CoefficientVector:
    """One rational value per piece: the nonzero ones as integer numerators over one denominator.

    Reduced (den >= 1, gcd(den, *nums) == 1, so den == 1 when all are zero), hence canonical:
    equality and hashing are structural.  Operations cost the support, not the size.
    """

    size: int
    den: int
    nums: dict[int, int]  # piece id -> nonzero numerator; never mutated

    def __init__(self, values: Iterable[RationalLike]) -> None:
        values = tuple(values)
        if not set(map(type, values)) <= {Fraction}:
            values = tuple(as_fraction(v) for v in values)
        ratios = [v.as_integer_ratio() for v in values]
        dens = {q for p, q in ratios if p}
        den = lcm(*dens)  # reduced values over the lcm of their denominators share no factor with it
        nums = ({i: p for i, (p, q) in enumerate(ratios) if p} if len(dens) == 1
                else {i: p * (den // q) for i, (p, q) in enumerate(ratios) if p})
        self.__dict__.update(size=len(values), den=den, nums=nums)

    @classmethod
    def indicator(cls, size: int, pieces: Iterable[int]) -> "CoefficientVector":
        if type(size) is not int or size < 0:
            raise (ValueError if type(size) is int else TypeError)(f"size {size!r} is not an int >= 0")
        nums = {}
        for i in pieces:
            if type(i) is not int or not 0 <= i < size:
                raise ValueError(f"piece {i!r} is not among the {size} pieces")
            nums[i] = 1
        return _vector(size, 1, nums)

    @property
    def entries(self) -> dict[int, Fraction]:
        """The nonzero values by piece id, built on every call."""
        return {i: Fraction(v, self.den) for i, v in self.nums.items()}

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The dense read, one value per piece, built on every call."""
        entries = self.entries
        return tuple(entries.get(i, _ZERO) for i in range(self.size))

    def __repr__(self) -> str:
        return f"CoefficientVector(size={self.size!r}, entries={self.entries!r})"

    def __hash__(self) -> int:
        return hash((self.size, self.den, frozenset(self.nums.items())))

    def __len__(self) -> int:
        return self.size

    def is_zero(self) -> bool:
        return not self.nums

    def support(self) -> frozenset[int]:
        return frozenset(self.nums)

    def __add__(self, other: "CoefficientVector") -> "CoefficientVector":
        return self._merge(other, 1)

    def __sub__(self, other: "CoefficientVector") -> "CoefficientVector":
        return self._merge(other, -1)

    def _merge(self, other: "CoefficientVector", sign: int) -> "CoefficientVector":
        """self + sign * other over the union of the supports; an entry that cancels is dropped."""
        self._check(other)
        den = lcm(self.den, other.den)
        q, k = den // self.den, sign * (den // other.den)
        nums = dict(self.nums) if q == 1 else {i: q * v for i, v in self.nums.items()}
        for i, v in other.nums.items():
            w = nums.get(i, 0) + k * v
            if w:
                nums[i] = w
            else:
                del nums[i]
        return _reduced(self.size, den, nums)

    def __mul__(self, other: "CoefficientVector") -> "CoefficientVector":
        """Pointwise product: multiplication in the function algebra."""
        self._check(other)
        b = other.nums
        return _reduced(self.size, self.den * other.den, {i: v * b[i] for i, v in self.nums.items() if i in b})

    def scale(self, c: RationalLike) -> "CoefficientVector":
        return _scaled(self, as_fraction(c))

    def _check(self, other: "CoefficientVector") -> None:
        if self.size != other.size:
            raise PartitionMismatch(f"vectors of length {self.size} and {other.size}")


def _vector(size: int, den: int, nums: dict[int, int]) -> CoefficientVector:
    # trusted constructor for a reduced form on pieces below size: no re-check
    vec = object.__new__(CoefficientVector)
    fields = vec.__dict__
    fields["size"], fields["den"], fields["nums"] = size, den, nums
    return vec


def _reduced(size: int, den: int, nums: dict[int, int]) -> CoefficientVector:
    """The vector nums / den in reduced form, for den >= 1 and nonzero numerators."""
    g = gcd(den, *nums.values())
    if g != 1:
        den //= g
        nums = {i: v // g for i, v in nums.items()}
    return _vector(size, den, nums)


def _scaled(vec: CoefficientVector, c: Fraction) -> CoefficientVector:
    p = c.numerator
    return _reduced(vec.size, vec.den * c.denominator, {i: p * v for i, v in vec.nums.items()} if p else {})


# a PEP 604 union of abc generics: typing.Union (and typing.Sequence on the right
# of |) is kept in typing's cache, holding this class alive across fresh imports
VectorLike = CoefficientVector | Sequence[RationalLike]


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
        return self.terms[0][1].size if self.terms else None

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        if self.terms and other.terms and self.size != other.size:
            raise PartitionMismatch(f"elements of vector length {self.size} and {other.size}")
        acc = dict(self.terms)
        for n, vec in other.terms:
            acc[n] = acc[n] + vec if n in acc else vec
        return _element([(n, vec) for n, vec in acc.items() if vec.nums])

    def __sub__(self, other: "CrossedElement") -> "CrossedElement":
        return self + other.scale(-1)

    def scale(self, c: RationalLike) -> "CrossedElement":
        c = as_fraction(c)
        return _element([(n, _scaled(vec, c)) for n, vec in self.terms] if c else [])


def crossed_element(terms: Mapping[int, VectorLike]) -> CrossedElement:
    """Build the normal form, pruning zero vectors and fixing the order."""
    for n in terms:
        if type(n) is not int:
            raise TypeError(f"degree {n!r} is not an int")
    vectors = {
        n: v if isinstance(v, CoefficientVector) else CoefficientVector(tuple(v))
        for n, v in terms.items()
    }
    sizes = {v.size for v in vectors.values()}
    if len(sizes) > 1:
        raise PartitionMismatch(f"terms have mixed vector lengths: {sorted(sizes)}")
    return _element([(n, v) for n, v in vectors.items() if v.nums])


def _element(terms: list[tuple[int, CoefficientVector]]) -> CrossedElement:
    # trusted constructor for distinct int degrees and nonzero vectors of one size: sort only
    terms.sort()
    elem = object.__new__(CrossedElement)
    elem.__dict__["terms"] = tuple(terms)
    return elem


def monomial(vec: VectorLike, degree: int) -> CrossedElement:
    return crossed_element({degree: vec})


def indicator_element(size: int, pieces: Iterable[int], degree: int = 0) -> CrossedElement:
    if type(degree) is not int:
        raise TypeError(f"degree {degree!r} is not an int")
    vec = CoefficientVector.indicator(size, pieces)
    return _element([(degree, vec)] if vec.nums else [])


def _power(piece_map: PieceMap, n: int) -> tuple[int, ...]:
    """The n-th power of the map, memoised on it by n mod L, one entry per residue."""
    key = n % piece_map.period
    forward = piece_map._memo.get(key)
    if forward is None:
        forward = piece_map._memo[key] = perm_power(piece_map.perm, key)
    return forward


def sigma_tilde_pow(f: CoefficientVector, piece_map: PieceMap, n: int) -> CoefficientVector:
    """Transport a piecewise constant function by the n-th power of the map.

    The result takes, on piece P, the value f held on the n-th inverse image
    of P; equivalently the entry on Q moves to the n-th image of Q, so the
    cost is the support.  The power depends on n mod L only and is memoised
    on the map, one entry per residue asked for.
    """
    if f.size != len(piece_map.perm):
        raise PartitionMismatch(
            f"vector of length {f.size} on a partition with {piece_map.size} pieces"
        )
    forward = _power(piece_map, n)
    return _vector(f.size, f.den, {forward[i]: v for i, v in f.nums.items()})


def multiply(f: CrossedElement, g: CrossedElement, piece_map: PieceMap) -> CrossedElement:
    """Twisted convolution: term (n, m) contributes at degree n + m.

    The right coefficient is transported by the n-th power of the action
    before the pointwise product with the left coefficient, all in one pass
    over its entries; the size check is the only guard against a foreign factor.
    """
    for elem in (f, g):
        if elem.terms and elem.terms[0][1].size != len(piece_map.perm):
            raise PartitionMismatch("element does not live on the map's partition")
    dens, acc = {}, {}  # degree -> the denominator, and the numerators, of its sum so far
    for n, fn in f.terms:
        forward, left, fden = _power(piece_map, n), fn.nums, fn.den
        for m, gm in g.terms:
            d, den, right = n + m, fden * gm.den, gm.nums
            out, old = acc.setdefault(d, {}), dens.setdefault(d, den)
            if old != den:  # put the sum so far and this product over a common denominator
                dens[d] = common = lcm(old, den)
                r, s = common // old, common // den
                out = acc[d] = {j: r * w for j, w in out.items()} if r != 1 else out
                right = {i: s * v for i, v in right.items()} if s != 1 else right
            for i, v in right.items():
                j = forward[i]
                if j in left:
                    w = left[j] * v + out[j] if j in out else left[j] * v
                    if w:
                        out[j] = w
                    else:
                        del out[j]  # a sum that cancels
    return _element([(d, _reduced(len(piece_map.perm), dens[d], out)) for d, out in acc.items() if out])


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
    detail: str


def is_strongly_graded(description: "CommutantDescription", piece_map: PieceMap) -> GradingResult:
    """Decide whether products of graded components fill, at every degree pair.

    The degree-n component lives on A(n), the union of the classes whose
    period divides n.  Classes are unions of orbits (else ValueError), so
    components n and m span exactly A(n) & A(m) inside A(n + m), and
    A(1) <= A(n) <= A(0).  So the grading is strong iff A(1) = A(0); if
    not, the first short pair outward from zero is (1, 1) when
    A(2) != A(1), else (1, -1).  One product, of the indicators at that
    witness, gives the span rank in ``detail``.
    """
    for k, pieces in description.class_pieces.items():
        if not all(piece_map.perm[p] in pieces for p in pieces):
            raise ValueError(f"grading needs classes that are unions of orbits; class {k} is not")
    allowed = description.allowed
    if allowed(0) == allowed(1):
        return GradingResult(True, None, "every degree pair has full product span")
    n, m = (1, 1) if allowed(2) != allowed(1) else (1, -1)
    size = piece_map.size
    left, right = indicator_element(size, allowed(n), n), indicator_element(size, allowed(m), m)
    vec = multiply(left, right, piece_map).term(n + m)
    rank = 0 if vec is None else len(vec.support())
    detail = (
        f"products from degrees {n} and {m} span rank {rank} "
        f"inside a component of dimension {len(allowed(n + m))}"
    )
    return GradingResult(False, (n, m), detail)
