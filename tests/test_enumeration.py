"""Lift enumeration, case classification, atlases, and counting."""
import copy
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from crossed_commutant import (
    AbstractPartition,
    PiProfile,
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
    evenly_spaced_inside,
    integer_partition_count,
    integer_partitions,
    perm_cycles,
    realize_pi,
    refine_real_line,
    validate_refined_invariance,
)
from crossed_commutant.errors import LiftInconsistent, PartitionMismatch, ScaleExceeded
from crossed_commutant.selftest import random_instance


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


def _reference_lifts(refinement, base_map):
    """Lift perms by assigning child pairs arc by arc, interval wiring outermost."""
    arcs = [
        (refinement.kind_split[b], refinement.kind_split[base_map.perm[b]])
        for cycle in perm_cycles(base_map.perm)
        for b in cycle
    ]
    if any(len(src[kind]) != len(dst[kind]) for src, dst in arcs for kind in (0, 1)):
        return []
    choices = [
        [tuple(zip(src[kind], chosen)) for chosen in permutations(dst[kind])]
        for kind in (0, 1)
        for src, dst in arcs
    ]
    lifts = []
    for combo in product(*choices):
        perm = [0] * refinement.refined.piece_count
        for assignment in combo:
            for s, image in assignment:
                perm[s] = image
        lifts.append(tuple(perm))
    return lifts


def _stream_bases():
    from crossed_commutant.enumeration import _kind_preserving_base_maps

    refinements = {}
    for m in range(4):
        for refinement, _, _ in atlas_instances(m):
            refinements[id(refinement)] = refinement
    for refinement in refinements.values():
        for base_map in _kind_preserving_base_maps(refinement.base):
            yield refinement, base_map
    for k in (1, 2, 3):
        for p in (0, 1, 2, 3):
            if (k, p) != (3, 3):
                refinement, base_map, _ = realize_pi(k, p, PiProfile(k=k, p=p, pi={1: p + 1}))
                yield refinement, base_map
    # abstract refinements have no point children: every lift is its cell images alone
    rng = random.Random(3)
    drawn = 0
    while drawn < 40:
        instance = random_instance(rng)
        if instance.refined and isinstance(instance.refinement.base, AbstractPartition):
            yield instance.refinement, instance.base_map
            drawn += 1
    single = build_real_line_partition([])
    yield refine_real_line(single, {}), PieceMap(single, (0,))


def test_stream_equals_the_arc_by_arc_reference_in_order():
    bases = lifts = empty = abstract = 0
    for refinement, base_map in _stream_bases():
        streamed = [pm.perm for pm in enumerate_refined_maps(refinement, base_map)]
        assert streamed == _reference_lifts(refinement, base_map)
        assert len(streamed) == count_refined_maps(refinement, base_map)
        assert all(type(perm) is tuple for perm in streamed)
        bases += 1
        lifts += len(streamed)
        empty += not streamed
        abstract += isinstance(refinement.refined, AbstractPartition) and len(streamed) > 1
    # the 1-piece refinement streams its single lift as a 1-tuple
    assert streamed == [(0,)]
    assert empty > 0 and bases > 20 and lifts > 20_000 and abstract >= 30


@pytest.mark.parametrize("jump_points", [["5"], ["0", "1"]], ids=["same size", "larger"])
def test_count_and_stream_reject_a_foreign_base_map(jump_points):
    ref, _ = two_intervals_swapped()
    foreign = PieceMap.identity(build_real_line_partition(jump_points))
    with pytest.raises(ValueError, match="base map does not act on the refinement's base"):
        count_refined_maps(ref, foreign)
    with pytest.raises(ValueError, match="base map does not act on the refinement's base"):
        list(enumerate_refined_maps(ref, foreign))


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


def _reference_atlas(points, base_n):
    """Per distribution, every kind-preserving base map, kept when it has lifts.

    Returns the kept (kind split, base perm, lift perm) in stream order, and
    the sum of ``count_refined_maps`` over every map walked.
    """
    kept, total = [], 0
    for distribution in integer_partitions(points):
        n = max(len(distribution) - 1, 0) if base_n is None else base_n
        base = build_real_line_partition([Fraction(i) for i in range(1, n + 1)])
        ref = refine_real_line(base, {
            alpha: evenly_spaced_inside(*base.bounds_of(alpha), count)
            for alpha, count in enumerate(distribution)
        })
        intervals, jumps = list(base.interval_ids()), list(base.point_ids())
        for iperm, pperm in product(permutations(intervals), permutations(jumps)):
            image = dict(zip(intervals + jumps, iperm + pperm))
            bm = PieceMap(base, tuple(image[b] for b in range(base.piece_count)))
            count = count_refined_maps(ref, bm)
            total += count
            if count > 0:
                kept += [(ref.kind_split, bm.perm, rm.perm) for rm in enumerate_refined_maps(ref, bm)]
    return kept, total


# the censuses of the benchmark's atlas workload, the other small minimal-base
# ones, and two bases where most interval permutations cannot lift
WALKED_CENSUSES = [(m, None) for m in range(5)] + [
    (2, 2), (1, 3), (2, 3), (3, 2), (3, 3), (0, 4), (1, 4),
]


@pytest.mark.parametrize("points, base_n", WALKED_CENSUSES)
def test_atlas_walks_only_base_maps_with_lifts_in_the_reference_order(points, base_n):
    kept, total = _reference_atlas(points, base_n)
    got = [(ref.kind_split, bm.perm, rm.perm) for ref, bm, rm in atlas_instances(points, base_n, max_pieces=15)]
    assert got == kept and len(kept) == total
    # the closed-form total is the census's budget exactly
    assert sum(1 for _ in atlas_instances(points, base_n, max_pieces=15, max_lifts=total)) == total
    with pytest.raises(ScaleExceeded, match=f"^{total} lifts exceeds the budget of {total - 1}$"):
        next(atlas_instances(points, base_n, max_pieces=15, max_lifts=total - 1))


def test_atlas_over_the_lift_budget_builds_no_base_map(monkeypatch):
    built = []
    real = PieceMap.__init__
    monkeypatch.setattr(PieceMap, "__init__", lambda self, *args: built.append(args) or real(self, *args))
    stream = atlas_instances(0, base_n=6)  # 13 pieces, 7! * 6! lifts
    with pytest.raises(ScaleExceeded, match="3628800 lifts"):
        next(stream)
    assert built == []


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
    for name in ("commutant_difference", "enumerate_refined_maps"):
        real = getattr(enumeration, name)
        monkeypatch.setattr(
            enumeration, name, lambda *args, real=real: calls.append(args) or real(*args)
        )
    with pytest.raises(ScaleExceeded):
        classify_cases(atlas_instances(points, base_n=base_n))
    assert calls == []


def test_atlas_classifies_each_lift_from_one_orbit_walk(monkeypatch):
    import crossed_commutant.commutant as commutant
    import crossed_commutant.dynamics as dynamics
    import crossed_commutant.enumeration as enumeration

    calls = dict.fromkeys(
        ["perm_cycles", "cycle_lengths", "commutant_description", "commutant_difference", "count_refined_maps"], 0
    )

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    def constructed(cls):
        real = cls.__init__

        def wrapper(self, *args, **kwargs):
            calls[cls.__name__] += 1
            real(self, *args, **kwargs)

        calls[cls.__name__] = 0
        monkeypatch.setattr(cls, "__init__", wrapper)

    counted(dynamics, "perm_cycles")
    counted(dynamics, "cycle_lengths")
    counted(commutant, "cycle_lengths")
    counted(commutant, "commutant_description")
    counted(enumeration, "commutant_difference")
    counted(enumeration, "count_refined_maps")
    constructed(commutant.SubalgebraView)
    constructed(commutant.CommutantDescription)
    instances = list(atlas_instances(3))
    assert calls["count_refined_maps"] == 0  # the shape screen keeps only maps that lift
    groups = classify_cases(instances)
    assert sum(g.count for g in groups.values()) == 264
    # a list takes the per-lift path: one commutant_difference and one walk of
    # its orbits per lift, plus one walk per base map (14 of them admit lifts)
    # inside its cycle_lengths; the signature reads only the (k, l) class
    # sizes, so no description is built
    assert calls == {
        "perm_cycles": 264 + 14,
        "cycle_lengths": 14,
        "count_refined_maps": 0,
        "commutant_description": 0,
        "commutant_difference": 264,
        "SubalgebraView": 0,
        "CommutantDescription": 0,
    }
    # the base maps keep their classification; no lift fills that cache
    assert len({id(bm) for _, bm, _ in instances if "cycle_classification" in vars(bm)}) == 14
    assert not any("cycle_classification" in vars(rm) for _, _, rm in instances)
    # the descriptions are built when read, without another orbit walk
    ref, bm, rm = groups[max(groups, key=str)].representative
    diff = commutant.commutant_difference(ref, bm, rm)
    assert diff.coarse.class_pieces and diff.refined.class_pieces
    assert calls["SubalgebraView"] == 2 and calls["CommutantDescription"] == 2
    assert calls["cycle_lengths"] == 14
    assert calls["perm_cycles"] == 264 + 14 + 1


def test_atlas_census_walks_no_lift(monkeypatch):
    import crossed_commutant.enumeration as enumeration

    calls = Counter()
    for name in ("enumerate_refined_maps", "commutant_difference"):
        real = getattr(enumeration, name)
        monkeypatch.setattr(
            enumeration, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args)
        )
    groups = classify_cases(atlas_instances(3))
    assert len(groups) == 14 and sum(g.count for g in groups.values()) == 264
    assert not calls
    # the counters see the walk of the same atlas: one stream per lifting base map
    list(atlas_instances(3))
    assert calls == {"enumerate_refined_maps": 14}


def _census_rows(groups):
    """Per case: signature, count, and the representative's piece count and perms."""
    return sorted(
        (sig.triples, g.count, ref.refined.piece_count, bm.perm, rm.perm)
        for sig, g in groups.items()
        for ref, bm, rm in [g.representative]
    )


@pytest.mark.parametrize("points, base_n", WALKED_CENSUSES + [(5, None)])
def test_atlas_census_equals_the_lift_stream(points, base_n):
    census = classify_cases(atlas_instances(points, base_n, max_pieces=19))
    stream = classify_cases(list(atlas_instances(points, base_n, max_pieces=19)))
    assert _census_rows(census) == _census_rows(stream)
    # each representative is a lift with its group's signature
    for sig, group in census.items():
        assert validate_refined_invariance(*group.representative).ok
        assert case_signature(commutant_difference(*group.representative)) == sig


def test_a_partly_consumed_atlas_classifies_its_remaining_lifts():
    stream = atlas_instances(3, base_n=2)
    next(stream)
    rest = list(atlas_instances(3, base_n=2))[1:]
    assert _census_rows(classify_cases(stream)) == _census_rows(classify_cases(rest))
    # a census leaves the stream consumed, as a walk would
    whole = atlas_instances(2)
    assert len(classify_cases(whole)) == 6
    assert list(whole) == [] and classify_cases(whole) == {}


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_one_orbit_table_has_a_row_per_pair_of_cycle_types(p):
    from math import factorial

    from crossed_commutant.enumeration import _orbit_options

    options = _orbit_options(1, p + 1, p)
    assert len(options) == c1_subcase_count(p)
    assert sum(count for count, *_ in options) == factorial(p + 1) * factorial(p)
    # each row's minimal permutations have the cycle types its sizes record
    for _, sizes, sub, pts in options:
        types = sorted(len(c) for perm in (sub, pts) for c in perm_cycles(perm))
        assert sorted(l for (_, l), size in sizes for _ in range(size // l)) == types


def test_minimal_permutation_of_each_cycle_type_is_the_rotation_rule():
    from crossed_commutant.dynamics import _minimal_perm

    for size in range(9):
        first = {}  # the first permutation of each cycle type, in lexicographic order
        for perm in permutations(range(size)):
            first.setdefault(tuple(sorted(map(len, perm_cycles(perm)), reverse=True)), perm)
        assert sorted(first) == sorted(integer_partitions(size))
        for cycle_type, perm in first.items():
            assert _minimal_perm(cycle_type) == perm


# (points, base_n) of every census in the benchmark's atlas workload
ATLAS_CENSUSES = [(2, None), (2, 2), (1, 3), (3, None), (2, 3), (3, 2), (3, 3), (4, None)]


def _reference_cases(instances):
    """Per instance, the signature of its commutant difference; minimal representatives."""
    groups = {}
    for instance in instances:
        ref, bm, rm = instance
        signature = case_signature(commutant_difference(ref, bm, rm))
        key = (ref.refined.piece_count, bm.perm, rm.perm)
        count, best, representative = groups.get(signature, (0, key, instance))
        if key < best:
            best, representative = key, instance
        groups[signature] = (count + 1, best, representative)
    return [(sig, count, rep) for sig, (count, _, rep) in groups.items()]


def _cases(groups):
    return [(sig, g.count, g.representative) for sig, g in groups.items()]


def _same_cases(got, want):
    """Equal signatures and counts in the same order, and the very same representatives."""
    if [(sig, count) for sig, count, _ in got] != [(sig, count) for sig, count, _ in want]:
        return False
    return all(a is b for (_, _, a), (_, _, b) in zip(got, want))


def test_classify_cases_equals_the_per_lift_reference_on_the_censuses():
    censuses = [
        list(atlas_instances(points, base_n, max_pieces=15))
        for points, base_n in ATLAS_CENSUSES + [(m, None) for m in range(5)]
    ]
    assert sum(map(len, censuses)) == 13_380 + 1 + 2 + 20 + 264 + 5952
    for instances in censuses:
        assert _same_cases(_cases(classify_cases(instances)), _reference_cases(instances))
    # shuffled, the refinement or the base map changes on almost every lift
    shuffled = [instance for instances in censuses for instance in instances]
    random.Random(10).shuffle(shuffled)
    got = _cases(classify_cases(shuffled))
    assert _same_cases(got, _reference_cases(shuffled)) and len(got) == 34


def test_classify_cases_equals_the_per_lift_reference_on_random_instances():
    rng = random.Random(10)
    drawn = []
    while len(drawn) < 300:
        instance = random_instance(rng)
        if instance.refined:
            drawn.append((instance.refinement, instance.base_map, instance.refined_map))
    # abstract refinements have no points: every cell is in the head, the tail is empty
    abstract = sum(isinstance(ref.refined, AbstractPartition) for ref, _, _ in drawn)
    assert 100 < abstract < 200
    assert _same_cases(_cases(classify_cases(drawn)), _reference_cases(drawn))


def test_classify_cases_equals_the_per_lift_reference_when_refinements_interleave(monkeypatch):
    import crossed_commutant.enumeration as enumeration

    # two refinements of one base, read through the very same base maps
    base = build_real_line_partition(["0"])
    a = refine_real_line(base, {0: ["-1"], 1: ["1"]})
    b = refine_real_line(base, {0: ["-2", "-1"], 1: ["1"]})
    identity, swap = PieceMap.identity(base), PieceMap(base, (1, 0, 2))
    a_lifts, b_lifts = (
        [(ref, bm, rm) for bm in maps for rm in enumerate_refined_maps(ref, bm)]
        for ref, maps in [(a, (identity, swap)), (b, (identity,))]
    )
    assert len(a_lifts) == 8 and len(b_lifts) == 24
    stream = a_lifts[:5] + b_lifts + a_lifts[5:]
    alternating = [x for pair in zip(a_lifts * 3, b_lifts) for x in pair]
    calls = []
    real = enumeration.commutant_difference
    monkeypatch.setattr(
        enumeration, "commutant_difference", lambda *args: calls.append(args) or real(*args)
    )
    for instances in (stream, alternating):
        calls.clear()
        got = _cases(classify_cases(instances))
        assert len(calls) == len(instances)  # every lift is classified on its own
        assert _same_cases(got, _reference_cases(instances))
    # a head seen in a lift of the swap is no head of an identity lift
    h = a.refined.n + 1
    mixed = PieceMap(a.refined, a_lifts[4][2].perm[:h] + a_lifts[0][2].perm[h:])
    with pytest.raises(LiftInconsistent) as expected:
        real(a, identity, mixed)
    with pytest.raises(LiftInconsistent) as got:
        classify_cases(a_lifts + [(a, identity, mixed)])
    assert str(got.value) == str(expected.value)


def test_classify_cases_equals_the_per_lift_reference_on_equal_but_not_identical_objects():
    rng = random.Random(13)
    mixed = []
    for instance in atlas_instances(3, base_n=2):
        ref, bm, rm = instance
        mixed.append(rng.choice([
            instance,
            copy.deepcopy(instance),  # a copied refinement with its own base and maps
            (copy.deepcopy(ref), bm, rm),
            (ref, copy.deepcopy(bm), rm),
            (ref, bm, copy.deepcopy(rm)),
        ]))
    assert len(mixed) == 720
    assert _same_cases(_cases(classify_cases(mixed)), _reference_cases(mixed))


def _non_lift(case):
    ref, swap = two_intervals_swapped()  # intervals 0-3, points 4-6
    if case == "head":  # I_0's children swap with I_1's, but the base map fixes both
        return ref, PieceMap.identity(ref.base), (2, 3, 0, 1, 4, 5, 6)
    if case == "tail":  # the points stay while their intervals swap
        return ref, swap, (2, 3, 1, 0, 4, 5, 6)
    # a base map on a partition of the same size that is not the refinement's base
    return ref, PieceMap(build_real_line_partition(["5"]), (1, 0, 2)), (2, 3, 1, 0, 6, 5, 4)


@pytest.mark.parametrize(
    "case, error",
    [("head", LiftInconsistent), ("tail", LiftInconsistent), ("foreign base", PartitionMismatch)],
)
def test_classify_cases_raises_what_commutant_difference_raises(case, error):
    ref, bm, perm = _non_lift(case)
    rm = PieceMap(ref.refined, perm)
    with pytest.raises(error) as expected:
        commutant_difference(ref, bm, rm)
    # after a valid lift of the same base map, when there is one
    valid = list(enumerate_refined_maps(ref, bm))[:1] if bm.partition is ref.base else []
    with pytest.raises(error) as got:
        classify_cases([(ref, bm, lift) for lift in valid] + [(ref, bm, rm)])
    assert type(got.value) is error
    assert str(got.value) == str(expected.value)
