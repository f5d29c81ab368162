"""Lift enumeration, case classification, atlases, and counting."""
from itertools import permutations

import pytest

from crossed_commutant import (
    PieceMap,
    atlas_instances,
    build_real_line_partition,
    c1_subcase_count,
    c1_subcase_diagnostic,
    case_signature,
    classify_cases,
    commutant_difference,
    count_refined_maps,
    enumerate_refined_maps,
    integer_partition_count,
    integer_partitions,
    refine_real_line,
    validate_refined_invariance,
)
from crossed_commutant.errors import ScaleExceeded


def one_interval_two_points():
    base = build_real_line_partition([])
    ref = refine_real_line(base, {0: ["0", "1"]})
    return ref, PieceMap(base, (0,))


def two_intervals_swapped():
    base = build_real_line_partition(["0"])
    ref = refine_real_line(base, {0: ["-1"], 1: ["1"]})
    return ref, PieceMap(base, (1, 0, 2))


def test_count_single_interval():
    ref, bm = one_interval_two_points()
    # 3 subintervals and 2 points permute freely: 3! * 2!
    assert count_refined_maps(ref, bm) == 12


def test_count_two_interval_swap():
    ref, bm = two_intervals_swapped()
    # one 2-cycle of intervals with 2 subintervals and 1 point each: (2! * 1!)^2
    assert count_refined_maps(ref, bm) == 4


def test_enumeration_matches_brute_force_filter():
    ref, bm = two_intervals_swapped()
    streamed = {pm.perm for pm in enumerate_refined_maps(ref, bm)}
    assert len(streamed) == 4
    brute = set()
    for ip in permutations(range(4)):
        for pp in permutations((4, 5, 6)):
            perm = ip + pp
            candidate = PieceMap(ref.refined, perm)
            if validate_refined_invariance(ref, bm, candidate).ok:
                brute.add(perm)
    assert streamed == brute


def test_enumeration_is_complete_and_valid_single_interval():
    ref, bm = one_interval_two_points()
    seen = set()
    for pm in enumerate_refined_maps(ref, bm):
        assert validate_refined_invariance(ref, bm, pm).ok
        seen.add(pm.perm)
    assert len(seen) == 12


def test_enumeration_orders_interval_wiring_outermost():
    ref, bm = one_interval_two_points()
    lifts = [pm.perm for pm in enumerate_refined_maps(ref, bm)]
    # point assignments vary fastest: consecutive pairs share the interval part
    for i in range(0, len(lifts), 2):
        assert lifts[i][:3] == lifts[i + 1][:3]
        assert lifts[i][3:] != lifts[i + 1][3:]


def test_enumeration_rejects_foreign_base_map():
    ref, _ = one_interval_two_points()
    other = build_real_line_partition(["0"])
    with pytest.raises(ValueError):
        list(enumerate_refined_maps(ref, PieceMap(other, (0, 1, 2))))


def test_count_zero_when_child_shapes_differ():
    base = build_real_line_partition(["0"])
    ref = refine_real_line(base, {0: ["-1"]})
    # I_0 has 3 children, its image I_1 has 1: no lift exists
    bm = PieceMap(base, (1, 0, 2))
    assert count_refined_maps(ref, bm) == 0
    assert list(enumerate_refined_maps(ref, bm)) == []


def test_case_signature_ignores_multiplier_one():
    ref, bm = two_intervals_swapped()
    lifts = {pm.perm: pm for pm in enumerate_refined_maps(ref, bm)}
    crossed = commutant_difference(ref, bm, lifts[(2, 3, 1, 0, 6, 5, 4)])
    assert case_signature(crossed).triples == ((2, 2, 4),)
    straight = commutant_difference(ref, bm, lifts[(2, 3, 0, 1, 6, 5, 4)])
    assert case_signature(straight).triples == ()
    assert str(case_signature(straight)) == "no difference"


def test_classify_cases_two_points_gives_six():
    groups = classify_cases(atlas_instances(2))
    by_text = {str(sig): group.count for sig, group in groups.items()}
    assert by_text == {
        "no difference": 4,
        "(k=1, l=2) x2": 6,
        "(k=1, l=2) x4": 4,
        "(k=1, l=3) x3": 2,
        "(k=2, l=2) x4": 2,
        "(k=1, l=2) x2, (k=1, l=3) x3": 2,
    }


def test_atlas_zero_and_one_point():
    assert len(classify_cases(atlas_instances(0))) == 1
    groups = classify_cases(atlas_instances(1))
    assert sorted(str(s) for s in groups) == ["(k=1, l=2) x2", "no difference"]


def test_atlas_scale_guards():
    with pytest.raises(ScaleExceeded):
        list(atlas_instances(2, base_n=0))
    with pytest.raises(ScaleExceeded):
        list(atlas_instances(2, max_pieces=3))
    with pytest.raises(ScaleExceeded):
        list(atlas_instances(2, max_lifts=3))


def test_integer_partitions_explicit():
    assert list(integer_partitions(0)) == [()]
    assert list(integer_partitions(4)) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]
    with pytest.raises(ValueError):
        list(integer_partitions(-1))


def test_partition_count_matches_enumeration():
    for n in range(13):
        assert integer_partition_count(n) == sum(1 for _ in integer_partitions(n))
    assert integer_partition_count(12) == 77


def test_c1_subcase_counts():
    assert [c1_subcase_count(k) for k in (1, 2, 3, 4)] == [2, 6, 15, 35]
    with pytest.raises(ValueError):
        c1_subcase_count(0)


def test_c1_diagnostic_machine_agrees():
    for k in (1, 2, 3):
        diag = c1_subcase_diagnostic(k)
        assert diag.formula == c1_subcase_count(k)
        assert diag.machine == diag.formula
        assert diag.agree


@pytest.mark.parametrize("points, base_n", [(4, None), (2, 0)])
def test_atlas_refuses_before_classifying_any_lift(points, base_n, monkeypatch):
    import crossed_commutant.enumeration as enumeration

    calls = []
    real = enumeration.commutant_difference
    monkeypatch.setattr(
        enumeration, "commutant_difference", lambda *args: calls.append(args) or real(*args)
    )
    with pytest.raises(ScaleExceeded):
        classify_cases(atlas_instances(points, base_n=base_n))
    assert calls == []


def test_atlas_classifies_each_lift_from_one_orbit_walk(monkeypatch):
    import crossed_commutant.commutant as commutant
    import crossed_commutant.dynamics as dynamics

    calls = {"cycle_lengths": 0, "commutant_description": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(dynamics, "cycle_lengths")
    counted(commutant, "cycle_lengths")
    counted(commutant, "commutant_description")
    groups = classify_cases(atlas_instances(3))
    assert sum(g.count for g in groups.values()) == 264
    # one walk per lift and one per base map (14 of them admit lifts); the
    # coarse and refined descriptions come from the (k, l) classes
    assert calls == {"cycle_lengths": 264 + 14, "commutant_description": 0}
