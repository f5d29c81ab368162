"""Partitions of the line and of abstract sets, and their refinements."""
import random
from fractions import Fraction

import pytest

from crossed_commutant import (
    AbstractPartition,
    PieceKind,
    RealLinePartition,
    Refinement,
    as_fraction,
    build_abstract_partition,
    build_real_line_partition,
    evenly_spaced_inside,
    identity_refinement,
    refine_abstract,
    refine_real_line,
)
from crossed_commutant.errors import (
    DuplicatePoint,
    NonIncreasingPoints,
    PointOutsideInterval,
    UnknownPiece,
    ZeroCellCount,
)


def test_as_fraction_accepts_exact_forms():
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction("0.25") == Fraction(1, 4)
    assert as_fraction(7) == Fraction(7)
    assert as_fraction(Fraction(2, 5)) == Fraction(2, 5)


@pytest.mark.parametrize("text", ["1e4301", "-1E-4301", "1e1_000_000_000"])
def test_as_fraction_refuses_huge_decimal_exponents(text):
    with pytest.raises(ValueError, match="exponent"):
        as_fraction(text)
    assert as_fraction("1e-4300") == Fraction(1, 10**4300)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_three_jumps_make_seven_pieces():
    part = build_real_line_partition(["0", "1", "2"])
    assert part.piece_count == 7
    assert [p.label for p in part.pieces] == [
        "I_0", "I_1", "I_2", "I_3", "{t_1}", "{t_2}", "{t_3}",
    ]
    kinds = [p.kind for p in part.pieces]
    assert kinds[:4] == [PieceKind.INTERVAL] * 4
    assert kinds[4:] == [PieceKind.POINT] * 3
    assert list(part.interval_ids()) == [0, 1, 2, 3]
    assert list(part.point_ids()) == [4, 5, 6]


def test_interval_bounds_and_infinite_ends():
    part = build_real_line_partition(["0", "1"])
    assert part.bounds_of(0) == (None, Fraction(0))
    assert part.bounds_of(1) == (Fraction(0), Fraction(1))
    assert part.bounds_of(2) == (Fraction(1), None)


def test_zero_jumps_is_single_interval():
    part = build_real_line_partition([])
    assert part.piece_count == 1
    assert part.pieces[0].label == "I_0"


def test_jump_points_must_strictly_increase():
    with pytest.raises(NonIncreasingPoints):
        build_real_line_partition(["1", "1"])
    with pytest.raises(NonIncreasingPoints):
        build_real_line_partition(["2", "1"])


def test_abstract_partition_cells():
    part = build_abstract_partition(3)
    assert part.cardinality == 3
    assert [p.label for p in part.pieces] == ["X_0", "X_1", "X_2"]
    assert all(p.kind is PieceKind.CELL for p in part.pieces)


def test_refine_one_interval_with_two_points():
    base = build_real_line_partition([])
    ref = refine_real_line(base, {0: ["0", "1"]})
    assert [p.label for p in ref.refined.pieces] == [
        "I_0^1", "I_0^2", "I_0^3", "{s_1}", "{s_2}",
    ]
    assert ref.parent_of == (0, 0, 0, 0, 0)
    assert ref.children_of(0) == (0, 1, 2, 3, 4)
    assert not ref.is_identity


def test_kind_split_separates_points_from_the_other_children():
    base = build_real_line_partition(["0"])
    ref = refine_real_line(base, {0: ["-1"], 1: ["1"]})
    # pieces: I_0^1, I_0^2, I_1^1, I_1^2, {s_1}, {t_1}, {s_2}
    assert ref.kind_split == (((0, 1), (4,)), ((2, 3), (6,)), ((), (5,)))
    cells = refine_abstract(build_abstract_partition(2), {0: 2})
    assert cells.kind_split == (((0, 1), ()), ((2,), ()))


def test_refine_two_intervals_keeps_old_points():
    base = build_real_line_partition(["0"])
    ref = refine_real_line(base, {0: ["-1"], 1: ["1"]})
    assert [p.label for p in ref.refined.pieces] == [
        "I_0^1", "I_0^2", "I_1^1", "I_1^2", "{s_1}", "{t_1}", "{s_2}",
    ]
    assert ref.parent_of == (0, 0, 1, 1, 0, 2, 1)
    # old jump point {t_1} has exactly itself as child
    assert ref.children_of(2) == (5,)


def test_refine_rejects_point_outside_interval():
    base = build_real_line_partition(["0"])
    with pytest.raises(PointOutsideInterval):
        refine_real_line(base, {0: ["5"]})
    # a boundary value is not strictly inside
    with pytest.raises(PointOutsideInterval):
        refine_real_line(base, {1: ["0"]})


def test_refine_rejects_duplicate_added_point():
    base = build_real_line_partition([])
    with pytest.raises(DuplicatePoint):
        refine_real_line(base, {0: ["1", "1"]})


def test_empty_additions_give_identity_refinement():
    base = build_real_line_partition(["0"])
    ref = refine_real_line(base, {})
    assert ref.is_identity
    assert ref.refined is ref.base
    assert all(ref.children_of(b) == (b,) for b in range(base.piece_count))


def test_refine_abstract_counts():
    base = build_abstract_partition(2)
    ref = refine_abstract(base, {0: 2, 1: 3})
    assert [p.label for p in ref.refined.pieces] == [
        "X_0^1", "X_0^2", "X_1^1", "X_1^2", "X_1^3",
    ]
    assert ref.parent_of == (0, 0, 1, 1, 1)
    with pytest.raises(ZeroCellCount):
        refine_abstract(base, {0: 0})
    for stray in (2, 7, -1):
        with pytest.raises(UnknownPiece, match=f"no piece {stray}"):
            refine_abstract(base, {0: 2, stray: 2})


def test_refine_abstract_all_ones_is_identity():
    base = build_abstract_partition(3)
    assert refine_abstract(base, {}).is_identity
    assert refine_abstract(base, {0: 1, 1: 1, 2: 1}).is_identity


def test_identity_refinement_shape():
    part = build_abstract_partition(4)
    ref = identity_refinement(part)
    assert ref.is_identity
    assert ref.parent_of == (0, 1, 2, 3)


def test_evenly_spaced_inside_all_bound_shapes():
    assert evenly_spaced_inside(None, None, 2) == (Fraction(1), Fraction(2))
    assert evenly_spaced_inside(None, Fraction(0), 2) == (Fraction(-2), Fraction(-1))
    assert evenly_spaced_inside(Fraction(0), None, 3) == (
        Fraction(1), Fraction(2), Fraction(3),
    )
    assert evenly_spaced_inside(Fraction(0), Fraction(1), 3) == (
        Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
    )
    assert evenly_spaced_inside(Fraction(0), Fraction(1), 0) == ()


def test_evenly_spaced_points_are_strictly_inside_random():
    rng = random.Random(20)
    for _ in range(200):
        lo = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        hi = lo + Fraction(rng.randint(1, 9), rng.randint(1, 4))
        count = rng.randint(1, 6)
        pts = evenly_spaced_inside(lo, hi, count)
        assert len(pts) == count
        assert all(lo < x < hi for x in pts)
        assert all(a < b for a, b in zip(pts, pts[1:]))


@pytest.mark.parametrize("parents", [(0.0, 0), (False, False)], ids=["float", "bool"])
def test_refinement_refuses_ids_that_are_not_integers(parents):
    base, refined = build_abstract_partition(1), build_abstract_partition(2)
    with pytest.raises(ValueError, match="onto the base pieces"):
        Refinement(base, refined, parents, None)


def test_refinement_parents_partition_the_children():
    # every fine piece has exactly one parent and the tables agree
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randint(0, 2)
        base = build_real_line_partition(sorted(rng.sample(range(10), n)))
        additions = {}
        for alpha in base.interval_ids():
            c = rng.randint(0, 2)
            if c:
                additions[alpha] = evenly_spaced_inside(*base.bounds_of(alpha), c)
        ref = refine_real_line(base, additions)
        seen = sorted(c for b in range(base.piece_count) for c in ref.children_of(b))
        assert seen == list(range(ref.refined.piece_count))
        for b in range(base.piece_count):
            for c in ref.children_of(b):
                assert ref.parent_of[c] == b


def test_partition_types_are_distinct():
    line = build_real_line_partition([])
    cells = build_abstract_partition(1)
    assert isinstance(line, RealLinePartition)
    assert isinstance(cells, AbstractPartition)
