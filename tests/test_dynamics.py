"""Piece maps, invariance validation, cycle classes, and profiles."""
import copy
import pickle
import random
from itertools import permutations

import pytest

from crossed_commutant import (
    PieceMap,
    PiProfile,
    build_abstract_partition,
    build_real_line_partition,
    check_pi,
    cycle_classes,
    perm_cycles,
    perm_inverse,
    perm_power,
    pi_profile,
    realize_pi,
    refine_abstract,
    refine_real_line,
    refined_cycle_classes,
    validate_invariance,
    validate_refined_invariance,
)
from crossed_commutant.dynamics import (
    RULE_CHILD_COUNT,
    RULE_KIND,
    RULE_LIFT,
    RULE_REGION,
    cycle_lengths,
    perm_compose,
)
from crossed_commutant.errors import InfeasibleProfile, LiftInconsistent


def test_perm_inverse_and_compose():
    perm = (2, 0, 1)
    inv = perm_inverse(perm)
    assert inv == (1, 2, 0)
    assert perm_compose(perm, inv) == (0, 1, 2)
    assert perm_compose(inv, perm) == (0, 1, 2)


def test_perm_power_matches_repeated_composition():
    rng = random.Random(3)
    for _ in range(100):
        size = rng.randint(1, 8)
        perm = list(range(size))
        rng.shuffle(perm)
        perm = tuple(perm)
        acc = tuple(range(size))
        for n in range(0, 9):
            assert perm_power(perm, n) == acc
            acc = perm_compose(perm, acc)
        assert perm_power(perm, -1) == perm_inverse(perm)
        n = rng.randint(-12, 12)
        assert perm_compose(perm_power(perm, n), perm_power(perm, -n)) == tuple(range(size))


def test_perm_cycles_start_at_least_element():
    assert perm_cycles((1, 2, 0, 4, 3)) == [(0, 1, 2), (3, 4)]
    # per-element orbit lengths
    assert cycle_lengths((1, 2, 0, 4, 3)) == (3, 3, 3, 2, 2)
    assert perm_cycles((0,)) == [(0,)]


def test_piece_map_requires_bijection():
    part = build_abstract_partition(3)
    with pytest.raises(ValueError):
        PieceMap(part, (0, 0, 1))
    with pytest.raises(ValueError):
        PieceMap(part, (0, 1))


def test_kind_preservation_flags_interval_to_point():
    part = build_real_line_partition(["0"])
    report = validate_invariance(part, PieceMap(part, (2, 1, 0)))
    assert not report.ok
    assert {v.rule for v in report.violations} == {RULE_KIND}
    assert "I_0" in report.messages()[0] and "{t_1}" in report.messages()[0]


def test_kind_preservation_passes_interval_swap():
    part = build_real_line_partition(["0", "1"])
    report = validate_invariance(part, PieceMap(part, (1, 0, 2, 4, 3)))
    assert report.ok


def test_abstract_maps_are_always_invariant():
    part = build_abstract_partition(4)
    for perm in ((1, 2, 3, 0), (3, 2, 1, 0)):
        assert validate_invariance(part, PieceMap(part, perm)).ok


def test_lift_validation_accepts_consistent_lift():
    base = build_real_line_partition([])
    ref = refine_real_line(base, {0: ["0", "1"]})
    bm = PieceMap(base, (0,))
    rm = PieceMap(ref.refined, (1, 2, 0, 4, 3))
    assert validate_refined_invariance(ref, bm, rm).ok


def test_lift_validation_names_the_torn_child():
    base = build_real_line_partition(["0"])
    ref = refine_real_line(base, {0: ["-1"]})
    bm = PieceMap(base, (0, 1, 2))
    # child of I_0 sent into I_1 while the base map fixes everything
    rm = PieceMap(ref.refined, (2, 1, 0, 3, 4))
    report = validate_refined_invariance(ref, bm, rm)
    assert not report.ok
    assert {v.rule for v in report.violations} == {RULE_LIFT}
    assert any("I_0^1" in m for m in report.messages())


def test_lift_validation_child_count_and_region_diagnostics():
    base = build_real_line_partition(["0"])
    ref = refine_real_line(base, {0: ["-1"]})
    # the subdivided interval is swapped with the untouched one
    bm = PieceMap(base, (1, 0, 2))
    rm = PieceMap(ref.refined, (2, 1, 0, 3, 4))
    report = validate_refined_invariance(ref, bm, rm)
    rules = {v.rule for v in report.violations}
    assert rules == {RULE_LIFT, RULE_CHILD_COUNT, RULE_REGION}
    assert any("3 children" in m and "1" in m for m in report.messages())


def test_cycle_classes_by_period():
    part = build_real_line_partition(["0", "1"])
    pm = PieceMap(part, (1, 0, 2, 4, 3))
    cls = cycle_classes(pm)
    assert cls.period_of == (2, 2, 1, 2, 2)
    assert cls.classes == {1: frozenset({2}), 2: frozenset({0, 1, 3, 4})}


def _classes_from_cycles(perm):
    grouped = {}
    for cycle in perm_cycles(perm):
        grouped.setdefault(len(cycle), set()).update(cycle)
    return {k: frozenset(v) for k, v in grouped.items()}


def test_cycle_classes_match_cycles_on_fresh_maps():
    rng = random.Random(4)
    for _ in range(300):
        size = rng.randint(1, 12)
        perm = list(range(size))
        rng.shuffle(perm)
        pm = PieceMap(build_abstract_partition(size), tuple(perm))
        cls = cycle_classes(pm)
        assert cls.classes == _classes_from_cycles(perm)
        assert list(cls.classes) == sorted(cls.classes)
        assert all(p in cls.classes[cls.period_of[p]] for p in range(size))


def test_cycle_classes_are_computed_once_and_read_only():
    part = build_real_line_partition(["0", "1"])
    pm = PieceMap(part, (1, 0, 2, 4, 3))
    cls = cycle_classes(pm)
    assert cycle_classes(pm) is cls
    with pytest.raises(TypeError):
        cls.classes[3] = frozenset()
    assert cls.classes == {1: frozenset({2}), 2: frozenset({0, 1, 3, 4})}
    # a copy carries the fields, not the cache, and classifies the same
    for twin in (pickle.loads(pickle.dumps(pm)), copy.deepcopy(pm)):
        assert twin == pm
        assert cycle_classes(twin) == cls


def test_refined_cycle_classes_multipliers():
    base = build_real_line_partition(["0"])
    ref = refine_real_line(base, {0: ["-1"], 1: ["1"]})
    bm = PieceMap(base, (1, 0, 2))
    rm = PieceMap(ref.refined, (2, 3, 1, 0, 6, 5, 4))
    rcc = refined_cycle_classes(ref, bm, rm)
    assert rcc.multiplier_of == (2, 2, 2, 2, 1, 1, 1)
    assert rcc.tilde_classes == {
        (2, 2): frozenset({0, 1, 2, 3}),
        (2, 1): frozenset({4, 6}),
        (1, 1): frozenset({5}),
    }
    assert rcc.base_period_of == (2, 2, 1)


def test_refined_cycle_classes_reject_non_lift_periods():
    base = build_real_line_partition(["0"])
    ref = refine_real_line(base, {0: ["-1"], 1: ["1"]})
    bm = PieceMap(base, (1, 0, 2))
    # identity fixes piece 0, whose parent swaps: period 1 is not a multiple of 2
    rm = PieceMap(ref.refined, (0, 1, 2, 3, 4, 5, 6))
    with pytest.raises(LiftInconsistent):
        refined_cycle_classes(ref, bm, rm)


def test_fine_period_is_base_period_times_multiplier():
    rng = random.Random(11)
    for _ in range(100):
        cells = rng.randint(1, 4)
        base = build_abstract_partition(cells)
        perm = list(range(cells))
        rng.shuffle(perm)
        bm = PieceMap(base, tuple(perm))
        counts = {}
        budget = 9
        for cycle in perm_cycles(bm.perm):
            s = rng.randint(1, max(1, min(3, budget // len(cycle))))
            budget -= s * len(cycle)
            for b in cycle:
                counts[b] = s
        ref = refine_abstract(base, counts)
        if ref.is_identity:
            continue
        lift = [0] * ref.refined.piece_count
        for b in range(cells):
            src = list(ref.children_of(b))
            dst = list(ref.children_of(bm.perm[b]))
            rng.shuffle(dst)
            for s, d in zip(src, dst):
                lift[s] = d
        rm = PieceMap(ref.refined, tuple(lift))
        rcc = refined_cycle_classes(ref, bm, rm)
        fine = cycle_classes(rm)
        for c in range(ref.refined.piece_count):
            k = rcc.base_period_of[ref.parent_of[c]]
            assert fine.period_of[c] == k * rcc.multiplier_of[c]


def test_multipliers_over_identity_base():
    base = build_real_line_partition([])
    ref = refine_real_line(base, {0: ["0", "1"]})
    bm = PieceMap(base, (0,))
    rm = PieceMap(ref.refined, (1, 0, 2, 3, 4))
    rcc = refined_cycle_classes(ref, bm, rm)
    assert rcc.multiplier_of == (2, 2, 1, 1, 1)


def test_pi_profile_of_three_cycle():
    base = build_real_line_partition([])
    ref = refine_real_line(base, {0: ["0", "1"]})
    bm = PieceMap(base, (0,))
    rm = PieceMap(ref.refined, (1, 2, 0, 4, 3))
    rcc = refined_cycle_classes(ref, bm, rm)
    prof = pi_profile(rcc, (0,))
    assert prof.k == 1 and prof.p == 2
    assert prof.sorted_items() == ((3, 3),)
    assert check_pi(prof).ok


def test_check_pi_rejects_bad_profiles():
    bad_div = PiProfile(k=1, p=1, pi={2: 1})
    report = check_pi(bad_div)
    assert not report.ok
    assert any("multiplier-divisibility" in m for m in report.messages())
    bad_total = PiProfile(k=1, p=2, pi={1: 1})
    assert any("slot-total" in m for m in check_pi(bad_total).messages())


def test_pi_profile_values_validated():
    with pytest.raises(ValueError):
        PiProfile(k=0, p=1, pi={1: 2})
    with pytest.raises(ValueError):
        PiProfile(k=1, p=1, pi={3: 3})  # l may not exceed p+1
    with pytest.raises(ValueError):
        PiProfile(k=1, p=1, pi={1: -1})


def test_realize_pi_reproduces_crossed_fixture():
    ref, bm, rm = realize_pi(2, 1, PiProfile(k=2, p=1, pi={2: 2}))
    assert bm.perm == (1, 0, 2)
    assert rm.perm == (2, 3, 1, 0, 6, 5, 4)
    assert validate_refined_invariance(ref, bm, rm).ok


def test_realize_pi_round_trips_all_small_profiles():
    for k in (1, 2, 3):
        for p in (0, 1, 2):
            for prof in _admissible(k, p):
                ref, bm, rm = realize_pi(k, p, prof)
                assert validate_refined_invariance(ref, bm, rm).ok
                rcc = refined_cycle_classes(ref, bm, rm)
                back = pi_profile(rcc, tuple(range(k)))
                assert back.sorted_items() == prof.sorted_items()


def test_realize_pi_rejects_infeasible():
    with pytest.raises(InfeasibleProfile):
        realize_pi(1, 1, PiProfile(k=1, p=1, pi={2: 1}))
    with pytest.raises(InfeasibleProfile):
        realize_pi(2, 1, PiProfile(k=1, p=1, pi={2: 2}))


def _admissible(k, p):
    out = []

    def rec(l, left, current):
        if left == 0:
            out.append(PiProfile(k=k, p=p, pi=dict(current)))
            return
        if l > p + 1:
            return
        for blocks in range(left // l + 1):
            if blocks:
                current[l] = blocks * l
            rec(l + 1, left - blocks * l, current)
            current.pop(l, None)

    rec(1, p + 1, {})
    return out


def test_profiles_from_exhaustive_small_lifts_are_admissible():
    # single interval, p = 2: all 3! interval wirings give admissible profiles
    base = build_real_line_partition([])
    ref = refine_real_line(base, {0: ["0", "1"]})
    bm = PieceMap(base, (0,))
    seen = set()
    for sub in permutations(range(3)):
        rm = PieceMap(ref.refined, tuple(sub) + (3, 4))
        rcc = refined_cycle_classes(ref, bm, rm)
        prof = pi_profile(rcc, (0,))
        assert check_pi(prof).ok
        seen.add(prof.sorted_items())
    assert seen == {item.sorted_items() for item in _admissible(1, 2)}
