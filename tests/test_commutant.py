"""Subalgebra views, separation sets, and commutant descriptions."""
import random

import pytest

from crossed_commutant import (
    PieceMap,
    SubalgebraView,
    atlas_instances,
    brute_force_sep,
    build_real_line_partition,
    commutant_description,
    commutant_difference,
    crossed_element,
    descend_map,
    find_noncommuting_witness,
    generator_element,
    indicator_element,
    is_in_commutant,
    multiply,
    refine_real_line,
    refined_sep,
    sep_set,
)
from crossed_commutant.errors import LiftInconsistent, MapDoesNotDescend
from crossed_commutant.selftest import random_instance


def swap_instance():
    part = build_real_line_partition(["0", "1"])
    return part, PieceMap(part, (1, 0, 2, 4, 3))


def crossed_fixture():
    base = build_real_line_partition(["0"])
    ref = refine_real_line(base, {0: ["-1"], 1: ["1"]})
    bm = PieceMap(base, (1, 0, 2))
    rm = PieceMap(ref.refined, (2, 3, 1, 0, 6, 5, 4))
    return ref, bm, rm


def test_identity_view_is_trivial():
    part = build_real_line_partition(["0"])
    view = SubalgebraView.identity(part)
    assert view.embed == (0, 1, 2)
    assert view.preimage(1) == (1,)


def test_refinement_view_groups_children():
    ref, bm, rm = crossed_fixture()
    view = SubalgebraView.of_refinement(ref)
    assert view.embed == ref.parent_of
    assert view.preimage(0) == (0, 1, 4)
    assert view.preimage(2) == (5,)


def test_descend_map_recovers_base_perm():
    ref, bm, rm = crossed_fixture()
    view = SubalgebraView.of_refinement(ref)
    assert descend_map(view, rm) == bm.perm


def test_descend_map_rejects_torn_pieces():
    ref, bm, rm = crossed_fixture()
    view = SubalgebraView.of_refinement(ref)
    torn = PieceMap(ref.refined, (0, 2, 1, 3, 4, 5, 6))
    with pytest.raises(MapDoesNotDescend) as err:
        descend_map(view, torn)
    assert "torn" in str(err.value)


def test_sep_set_of_swap_is_odd_rule():
    part, pm = swap_instance()
    view = SubalgebraView.identity(part)
    for n in range(-8, 9):
        expected = frozenset({0, 1, 3, 4}) if n % 2 else frozenset()
        assert sep_set(view, pm, n) == expected
        assert brute_force_sep(view, pm, n) == expected


def test_commutant_description_classes_and_rule():
    part, pm = swap_instance()
    desc = commutant_description(SubalgebraView.identity(part), pm)
    assert desc.class_pieces == {1: frozenset({2}), 2: frozenset({0, 1, 3, 4})}
    assert desc.allowed(1) == frozenset({2})
    assert desc.allowed(2) == frozenset(range(5))
    assert desc.sep(3) == frozenset({0, 1, 3, 4})
    assert "period 2" in desc.rule_text()


def test_membership_and_first_witness():
    part, pm = swap_instance()
    desc = commutant_description(SubalgebraView.identity(part), pm)
    member = crossed_element({1: [0, 0, 5, 0, 0], 2: [1, 2, 3, 4, 5]})
    verdict = is_in_commutant(member, desc)
    assert verdict.member and verdict.witness is None
    bad = crossed_element({-1: [0, 0, 0, 0, 1], 1: [1, 0, 0, 0, 0]})
    verdict = is_in_commutant(bad, desc)
    assert not verdict.member
    # ascending scan: degree -1 comes first, piece 4 within it
    assert verdict.witness == (-1, 4)


def test_generator_element_is_coarse_indicator():
    ref, bm, rm = crossed_fixture()
    view = SubalgebraView.of_refinement(ref)
    g = generator_element(view, 0)
    assert g == indicator_element(7, (0, 1, 4), 0)


def test_noncommuting_witness_for_nonmember():
    part, pm = swap_instance()
    view = SubalgebraView.identity(part)
    elem = crossed_element({1: [1, 0, 0, 0, 0]})
    q = find_noncommuting_witness(elem, view, pm)
    assert q is not None
    g = generator_element(view, q)
    assert multiply(elem, g, pm) != multiply(g, elem, pm)


def test_noncommuting_witness_none_for_member():
    part, pm = swap_instance()
    view = SubalgebraView.identity(part)
    elem = crossed_element({1: [0, 0, 2, 0, 0], 0: [1, 1, 1, 1, 1]})
    assert find_noncommuting_witness(elem, view, pm, rng=random.Random(3)) is None


def test_refined_sep_matches_divisibility():
    ref, bm, rm = crossed_fixture()
    for n in range(-8, 9):
        want = set()
        if n % 2:
            want |= {0, 1, 2, 3, 4, 6}
        elif n % 4:
            want |= {0, 1, 2, 3}
        assert refined_sep(ref, bm, rm, n) == frozenset(want)


def test_refined_sep_requires_consistent_lift():
    ref, bm, _ = crossed_fixture()
    # the identity fixes children of I_0 although the base map swaps I_0 and I_1
    broken = PieceMap(ref.refined, (0, 1, 2, 3, 4, 5, 6))
    with pytest.raises(LiftInconsistent):
        refined_sep(ref, bm, broken, 1)


def test_difference_description_of_crossed_fixture():
    ref, bm, rm = crossed_fixture()
    diff = commutant_difference(ref, bm, rm)
    assert diff.active_classes() == {(2, 2): frozenset({0, 1, 2, 3})}
    assert diff.forbidden_at(1) == frozenset()
    assert diff.forbidden_at(2) == frozenset({0, 1, 2, 3})
    assert diff.forbidden_at(4) == frozenset()
    assert diff.forbidden_at(6) == frozenset({0, 1, 2, 3})


def test_is_coarse_only_detects_the_gap():
    ref, bm, rm = crossed_fixture()
    diff = commutant_difference(ref, bm, rm)
    gap = crossed_element({2: [1, 0, 0, 0, 0, 0, 0]})
    assert diff.is_coarse_only(gap)
    both = crossed_element({2: [0, 0, 0, 0, 1, 0, 0]})
    assert not diff.is_coarse_only(both)
    neither = crossed_element({1: [1, 0, 0, 0, 0, 0, 0]})
    assert not diff.is_coarse_only(neither)


def test_sep_formula_equals_oracle_on_random_instances():
    rng = random.Random(17)
    for _ in range(120):
        inst = random_instance(rng)
        views = [SubalgebraView.identity(inst.refinement.refined)]
        if inst.refined:
            views.append(SubalgebraView.of_refinement(inst.refinement))
        for view in views:
            for n in range(-8, 9):
                assert sep_set(view, inst.refined_map, n) == brute_force_sep(
                    view, inst.refined_map, n
                )


def _refined_draws(count, seed):
    rng = random.Random(seed)
    drawn = 0
    while drawn < count:
        inst = random_instance(rng)
        if inst.refined:
            drawn += 1
            yield inst.refinement, inst.base_map, inst.refined_map


def _atlas_lifts():
    for m in range(4):
        yield from atlas_instances(m)


@pytest.mark.parametrize(
    "instances, expected",
    [(_atlas_lifts, 1 + 2 + 20 + 264), (lambda: _refined_draws(500, 23), 500)],
    ids=["atlas", "random"],
)
def test_difference_descriptions_equal_the_general_views(instances, expected):
    seen = 0
    for ref, bm, rm in instances():
        diff = commutant_difference(ref, bm, rm)
        coarse = commutant_description(SubalgebraView.of_refinement(ref), rm)
        refined = commutant_description(SubalgebraView.identity(ref.refined), rm)
        assert diff.coarse == coarse
        assert diff.refined == refined
        # same class order too, so any text built by iterating them is unchanged
        assert list(diff.coarse.class_pieces) == list(coarse.class_pieces)
        assert list(diff.refined.class_pieces) == list(refined.class_pieces)
        seen += 1
    assert seen == expected
