"""Piece maps, invariance validation, cycle classes, and profiles."""
import copy
import json
import pickle
import random
from collections import Counter
from itertools import islice, permutations
from math import factorial
from pathlib import Path

import pytest

from crossed_commutant import (
    PieceKind,
    PieceMap,
    PiProfile,
    atlas_instances,
    build_abstract_partition,
    build_real_line_partition,
    check_pi,
    cycle_classes,
    enumerate_refined_maps,
    parse_instance,
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
    ValidationReport,
    Violation,
    cycle_lengths,
)
from crossed_commutant.errors import InfeasibleProfile, LiftInconsistent, UnequalChildCounts
from crossed_commutant.selftest import _admissible_profiles, random_instance

GOLDEN = Path(__file__).parent / "golden"


def perm_compose(outer, inner):
    """Apply ``inner`` first, then ``outer``."""
    return tuple(outer[i] for i in inner)


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


@pytest.mark.parametrize("perm", [(1.0, 0, 2), (True, False, 2)], ids=["float", "bool"])
def test_piece_map_refuses_ids_that_are_not_integers(perm):
    with pytest.raises(ValueError, match="not a bijection"):
        PieceMap(build_abstract_partition(3), perm)


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
    assert rcc.base.period_of == (2, 2, 1)


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
            k = rcc.base.period_of[ref.parent_of[c]]
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


@pytest.mark.parametrize("k, p", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_realize_pi_is_the_lex_minimal_lift_with_its_profile(k, p):
    for prof in _admissible(k, p):
        ref, bm, rm = realize_pi(k, p, prof)
        matching = [
            lift.perm
            for lift in enumerate_refined_maps(ref, bm)
            if pi_profile(refined_cycle_classes(ref, bm, lift), range(k)).sorted_items()
            == prof.sorted_items()
        ]
        assert rm.perm == min(matching)


def test_admissible_profiles_follow_the_recursive_order():
    # the last one is read by test_a_failed_realize_round_trip_carries_its_document
    for k in (1, 2, 3):
        for p in range(8):
            got, want = _admissible_profiles(k, p), _admissible(k, p)
            assert list(map(repr, got)) == list(map(repr, want))


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


# ---------------------------------------------------------------------------
# differential tests against per-child references


def _per_child_classes(ref, bm, rm):
    """(k, l) classes, multipliers and base periods, one fine piece at a time."""
    base_period, fine_period = cycle_lengths(bm.perm), cycle_lengths(rm.perm)
    multipliers, grouped = [], {}
    for child, parent in enumerate(ref.parent_of):
        k, fine = base_period[parent], fine_period[child]
        if fine % k != 0:
            raise LiftInconsistent(
                f"piece {ref.refined.label_of(child)} has period {fine}, "
                f"not a multiple of its parent's period {k}"
            )
        multipliers.append(fine // k)
        grouped.setdefault((k, fine // k), set()).add(child)
    classes = {kl: frozenset(v) for kl, v in sorted(grouped.items())}
    return list(classes.items()), tuple(multipliers), base_period


def _classified(classify, ref, bm, rm):
    try:
        got = classify(ref, bm, rm)
    except LiftInconsistent as exc:
        return "raises", str(exc)
    if isinstance(got, tuple):
        return got
    return list(got.tilde_classes.items()), got.multiplier_of, got.base.period_of


def _atlas_lifts():
    return [inst for m in range(4) for inst in atlas_instances(m)]


def _refined_draws(seed, count):
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        inst = random_instance(rng)
        if inst.refined:
            draws.append((inst.refinement, inst.base_map, inst.refined_map))
    return draws


def _mixes_parent_periods(ref, bm, rm):
    periods = cycle_lengths(bm.perm)
    return any(
        len({periods[ref.parent_of[c]] for c in cycle}) > 1 for cycle in perm_cycles(rm.perm)
    )


def test_refined_cycle_classes_equal_the_per_child_reference():
    lifts = _atlas_lifts() + _refined_draws(4481, 500)
    assert len(lifts) == 287 + 500
    assert {type(ref.base).__name__ for ref, _, _ in lifts[287:]} == {
        "RealLinePartition", "AbstractPartition"
    }
    rng = random.Random(4482)
    non_lifts = []
    while len(non_lifts) < 300:
        ref, bm, _ = lifts[rng.randrange(len(lifts))]
        perm = list(range(ref.refined.piece_count))
        rng.shuffle(perm)
        rm = PieceMap(ref.refined, tuple(perm))
        if not validate_refined_invariance(ref, bm, rm).ok:
            non_lifts.append((ref, bm, rm))
    outcomes = {"lift": 0, "raises": 0, "mixed": 0, "classified": 0}
    for i, (ref, bm, rm) in enumerate(lifts + non_lifts):
        want = _classified(_per_child_classes, ref, bm, rm)
        assert _classified(refined_cycle_classes, ref, bm, rm) == want
        if i < len(lifts):
            outcomes["lift"] += want[0] != "raises"
        elif want[0] == "raises":
            outcomes["raises"] += 1
        else:
            outcomes["mixed" if _mixes_parent_periods(ref, bm, rm) else "classified"] += 1
    # every lift classifies; the non-lifts reach the raise, the per-piece
    # classes of an orbit over several parent periods, and whole orbits
    assert outcomes == {"lift": 787, "raises": 205, "mixed": 19, "classified": 76}


def _per_child_validation(ref, bm, rm):
    """The lift check and its diagnoses, one fine piece at a time."""
    parent_of, base, label = ref.parent_of, ref.base, ref.base.label_of
    violations = []
    for child, img in enumerate(rm.perm):
        want, got = bm.perm[parent_of[child]], parent_of[img]
        if got != want:
            message = (
                f"child {ref.refined.label_of(child)} of {label(parent_of[child])} "
                f"lands in {label(got)} instead of {label(want)}"
            )
            violations.append(Violation(RULE_LIFT, message, (child, img)))
    if violations:
        for b in range(base.piece_count):
            b2 = bm.perm[b]
            mine, theirs = len(ref.children_of(b)), len(ref.children_of(b2))
            if mine != theirs:
                message = (
                    f"{label(b)} has {mine} children but its image {label(b2)} has {theirs}"
                )
                violations.append(Violation(RULE_CHILD_COUNT, message, (b, b2)))
        subdivided = {b for b in range(base.piece_count) if len(ref.children_of(b)) > 1}
        moved = sorted(subdivided ^ {bm.perm[b] for b in subdivided})
        if moved:
            message = (
                "the union of subdivided pieces is not carried onto itself; "
                "offending pieces: " + ", ".join(label(b) for b in moved)
            )
            violations.append(Violation(RULE_REGION, message, tuple(moved)))
    return ValidationReport(tuple(violations))


def test_lift_check_equals_the_per_child_reference():
    lifts = _atlas_lifts()
    rng = random.Random(4483)
    swapped, rebased = [], []
    for ref, bm, rm in lifts:
        perm = list(rm.perm)
        if len(perm) > 1:
            i, j = rng.sample(range(len(perm)), 2)
            perm[i], perm[j] = perm[j], perm[i]
            swapped.append((ref, bm, PieceMap(ref.refined, tuple(perm))))
        # another base map of the same partition, for the child-count and
        # region diagnoses
        base_perm = list(bm.perm)
        rng.shuffle(base_perm)
        rebased.append((ref, PieceMap(ref.base, tuple(base_perm)), rm))
    with open(GOLDEN / "cases.json", encoding="utf-8") as handle:
        documents = json.load(handle)
    golden = [
        (inst.refinement, inst.base_map, inst.refined_map)
        for inst in map(parse_instance, documents.values())
    ]
    verdicts, rules = [], {}
    for ref, bm, rm in lifts + swapped + rebased + golden:
        want = _per_child_validation(ref, bm, rm)
        assert validate_refined_invariance(ref, bm, rm) == want
        verdicts.append(want.ok)
        for v in want.violations:
            rules[v.rule] = rules.get(v.rule, 0) + 1
    n, s, r = len(lifts), len(swapped), len(rebased)
    assert (sum(verdicts[:n]), n) == (287, 287)
    # a swap keeps the lift when both images have the same parent
    assert (sum(verdicts[n:n + s]), s) == (195, 286)
    assert (sum(verdicts[n + s:n + s + r]), r) == (165, 287)
    assert verdicts[n + s + r:] == [True] * len(documents)
    assert rules == {RULE_LIFT: 1165, RULE_CHILD_COUNT: 280, RULE_REGION: 108}


def _reference_pi_profile(ref, bm, rm, base_cycle):
    """The profile with one Counter of multipliers per interval member, off the per-child classes."""
    _, multiplier_of, base_period = _per_child_classes(ref, bm, rm)
    members = sorted(set(base_cycle))
    if not members:
        raise ValueError("base_cycle is empty")
    base_part = ref.base
    intervals = [b for b in members if base_part.pieces[b].kind is not PieceKind.POINT]
    if not intervals:
        raise ValueError("base_cycle has no interval members")
    periods = {base_period[b] for b in intervals}
    if len(periods) != 1:
        raise ValueError(f"interval members span several periods: {sorted(periods)}")
    k = periods.pop()

    def profile(b):
        subs = ref.kind_split[b][0]
        return len(subs) - 1, Counter(multiplier_of[c] for c in subs)

    rep = intervals[0]
    p, counts = profile(rep)
    for other in intervals[1:]:
        p2, counts2 = profile(other)
        if p2 != p:
            raise UnequalChildCounts(
                f"{base_part.label_of(rep)} carries {p} added points but "
                f"{base_part.label_of(other)} carries {p2}"
            )
        if counts2 != counts:
            raise UnequalChildCounts(
                f"multiplier counts differ between {base_part.label_of(rep)} "
                f"and {base_part.label_of(other)}"
            )
    return PiProfile(k=k, p=p, pi=dict(sorted(counts.items())))


def _profiles(ref, bm, rm, base_cycle):
    """(the fast profile, the reference), each as (profile, key order) or (error type, message)."""
    def outcome(profile, *args):
        try:
            got = profile(*args)
        except (ValueError, UnequalChildCounts) as exc:
            return type(exc).__name__, str(exc)
        return got, list(got.pi)

    return (outcome(pi_profile, refined_cycle_classes(ref, bm, rm), base_cycle),
            outcome(_reference_pi_profile, ref, bm, rm, base_cycle))


# (k, p) of the lift-stream grid whose streams have at most 1,728 lifts
SMALL_GRID = [(k, p) for k in (1, 2, 3) for p in range(4) if (factorial(p + 1) * factorial(p)) ** k <= 1728]


def test_pi_profile_equals_the_counter_reference_on_grid_streams_and_draws():
    cases = []
    for k, p in SMALL_GRID:
        ref, bm, _ = realize_pi(k, p, PiProfile(k=k, p=p, pi={1: p + 1}))
        cases += [(ref, bm, lift, range(k)) for lift in islice(enumerate_refined_maps(ref, bm), 0, None, 3)]
    grid = len(cases)
    cases += [(ref, bm, rm, cycle) for ref, bm, rm in _refined_draws(4481, 300) for cycle in perm_cycles(bm.perm)]
    outcomes = Counter()
    for i, case in enumerate(cases):
        got, want = _profiles(*case)
        assert got == want
        outcomes["grid" if i < grid else want[0] if isinstance(want[0], str) else "draw"] += 1
    # the draws' orbits reach profiles and the orbits of jump points alone
    assert dict(outcomes) == {"grid": 685, "draw": 567, "ValueError": 156}


def test_pi_profile_refusals_name_what_the_reference_names():
    base = build_real_line_partition(["0"])  # I_0, I_1 and the point {t_1}, all fixed
    bm = PieceMap.identity(base)
    uneven = refine_real_line(base, {0: ["-1"], 1: ["1", "2"]})
    even = refine_real_line(base, {0: ["-1"], 1: ["1"]})
    swapped = PieceMap(even.refined, (1, 0, 2, 3, 4, 5, 6))  # I_0's two subintervals trade places
    line = build_real_line_partition(["0", "1"])
    swap = PieceMap(line, (1, 0, 2, 3, 4))  # I_0 and I_1 trade places, I_2 stays
    cases = [
        ((uneven, bm, PieceMap.identity(uneven.refined), (0, 1)),
         ("UnequalChildCounts", "I_0 carries 1 added points but I_1 carries 2")),
        ((even, bm, swapped, (0, 1)),
         ("UnequalChildCounts", "multiplier counts differ between I_0 and I_1")),
        ((even, bm, swapped, ()), ("ValueError", "base_cycle is empty")),
        ((even, bm, swapped, (2,)), ("ValueError", "base_cycle has no interval members")),
        ((refine_real_line(line, {}), swap, swap, (0, 2)),
         ("ValueError", "interval members span several periods: [1, 2]")),
    ]
    for case, refusal in cases:
        assert _profiles(*case) == (refusal, refusal)


def test_a_profile_reads_the_multipliers_and_leaves_the_classes_unbuilt():
    ref, bm, rm = realize_pi(2, 1, PiProfile(k=2, p=1, pi={2: 2}))
    rcc = refined_cycle_classes(ref, bm, rm)
    assert {"multiplier_of", "tilde_classes"}.isdisjoint(vars(rcc))
    assert pi_profile(rcc, range(2)).sorted_items() == ((2, 2),)
    assert "multiplier_of" in vars(rcc) and "tilde_classes" not in vars(rcc)


def test_classifications_are_equal_exactly_when_their_classes_are():
    ref, bm, _ = realize_pi(2, 2, PiProfile(k=2, p=2, pi={1: 3}))
    lifts = list(enumerate_refined_maps(ref, bm))
    first = [refined_cycle_classes(ref, bm, rm) for rm in lifts]
    again = [refined_cycle_classes(ref, bm, rm) for rm in lifts]
    for rcc in again[::2]:
        rcc.tilde_classes  # a read on one side changes nothing
    assert first == again
    classes = [rcc.tilde_classes for rcc in first]
    assert len({tuple(c.items()) for c in classes}) > 1
    for a, ca in zip(first, classes):
        assert [a == b for b in first] == [ca == cb for cb in classes]


def test_classifications_copy_before_and_after_their_lazy_reads():
    ref, bm, rm = realize_pi(2, 1, PiProfile(k=2, p=1, pi={2: 2}))
    want = refined_cycle_classes(ref, bm, rm)
    lazy = ("multiplier_of", "tilde_classes")
    for read in (False, True):
        rcc = refined_cycle_classes(ref, bm, rm)
        if read:
            rcc.multiplier_of, rcc.tilde_classes
        for twin in (pickle.loads(pickle.dumps(rcc)), copy.deepcopy(rcc)):
            assert twin == rcc == want
            assert all((name in vars(twin)) is read for name in lazy)
            assert twin.multiplier_of == want.multiplier_of == (2, 2, 2, 2, 1, 1, 1)
            assert list(twin.tilde_classes.items()) == list(want.tilde_classes.items())
