"""Subalgebra views, separation sets, and commutant descriptions."""
import copy
import gc
import pickle
import random
import weakref

import pytest

from crossed_commutant import (
    PieceKind,
    PieceMap,
    RealLinePartition,
    Refinement,
    SubalgebraView,
    atlas_instances,
    brute_force_sep,
    build_abstract_partition,
    build_real_line_partition,
    commutant_description,
    commutant_difference,
    crossed_element,
    descend_map,
    evenly_spaced_inside,
    find_noncommuting_witness,
    generator_element,
    indicator_element,
    is_in_commutant,
    multiply,
    perm_cycles,
    refine_abstract,
    refine_real_line,
    refined_sep,
    sep_set,
)
from crossed_commutant.errors import LiftInconsistent, MapDoesNotDescend, PartitionMismatch
from crossed_commutant.selftest import _kind_groups, _random_lift, _shuffle_within, random_instance


def _random_kind_preserving_perm(rng, partition):
    return _shuffle_within(rng, partition.piece_count, _kind_groups(partition))


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


@pytest.mark.parametrize("embed", [(0.0, 0, 0), (False, False, False)], ids=["float", "bool"])
def test_view_refuses_ids_that_are_not_integers(embed):
    with pytest.raises(ValueError, match="onto the coarse pieces"):
        SubalgebraView(build_real_line_partition(["0"]), build_real_line_partition([]), embed)


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
    assert find_noncommuting_witness(elem, view, pm) is None


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


def test_difference_descriptions_are_built_once():
    ref, bm, rm = crossed_fixture()
    diff = commutant_difference(ref, bm, rm)
    assert diff.coarse is diff.coarse
    assert diff.refined is diff.refined
    assert diff.coarse.view == SubalgebraView.of_refinement(ref)
    assert diff.refined.view == SubalgebraView.identity(ref.refined)


def test_is_coarse_only_detects_the_gap():
    ref, bm, rm = crossed_fixture()
    diff = commutant_difference(ref, bm, rm)

    def coarse_only(elem):
        return (
            is_in_commutant(elem, diff.coarse).member
            and not is_in_commutant(elem, diff.refined).member
        )

    assert coarse_only(crossed_element({2: [1, 0, 0, 0, 0, 0, 0]}))
    assert not coarse_only(crossed_element({2: [0, 0, 0, 0, 1, 0, 0]}))
    assert not coarse_only(crossed_element({1: [1, 0, 0, 0, 0, 0, 0]}))


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


def test_oracle_sweep_transports_by_one_power_per_residue(monkeypatch):
    import crossed_commutant.crossed as crossed

    calls = []
    real = crossed.perm_power
    monkeypatch.setattr(crossed, "perm_power", lambda perm, n: calls.append(n) or real(perm, n))
    crossed_ref, _, crossed_rm = crossed_fixture()
    draws = [(crossed_ref, crossed_rm)] + [(r, rm) for r, _, rm in _refined_draws(50, 29)]
    for refinement, refined_map in draws:
        calls.clear()
        for view in (
            SubalgebraView.identity(refinement.refined),
            SubalgebraView.of_refinement(refinement),
        ):
            for n in range(-12, 13):
                assert brute_force_sep(view, refined_map, n) == sep_set(view, refined_map, n)
        assert 1 <= len(calls) <= min(refined_map.period, 25)


def _views_of(inst):
    views = [SubalgebraView.identity(inst.refinement.refined)]
    if inst.refined:
        views.append(SubalgebraView.of_refinement(inst.refinement))
    return views


def test_cached_tables_equal_the_oracle_with_one_descent_per_view_and_map(monkeypatch):
    import crossed_commutant.commutant as commutant

    calls = []
    real = commutant.descend_map
    monkeypatch.setattr(commutant, "descend_map", lambda view, pm: calls.append(1) or real(view, pm))
    rng = random.Random(41)
    draws = [random_instance(rng) for _ in range(80)]
    assert {inst.refined for inst in draws} == {True, False}
    pairs = [(view, inst.refined_map) for inst in draws for view in _views_of(inst)]
    for view, pm in pairs:
        calls.clear()
        for n in range(-12, 13):
            sep_set(view, pm, n)
        assert len(calls) == 1
    # one view shared by two different maps keeps a description for each
    part, swap = swap_instance()
    shared = SubalgebraView.identity(part)
    cycle = PieceMap(part, (2, 0, 1, 3, 4))
    calls.clear()
    for n in range(-12, 13):
        sep_set(shared, swap, n)
        sep_set(shared, cycle, n)
    assert len(calls) == 2 and len(shared._memo) == 2
    assert commutant_description(shared, swap) != commutant_description(shared, cycle)
    for view, pm in pairs + [(shared, swap), (shared, cycle)]:
        description = commutant_description(view, pm)
        assert commutant_description(view, pm) is description
        bound = 3 * description.period + 1
        for n in range(-bound, bound + 1):
            assert sep_set(view, pm, n) == brute_force_sep(view, pm, n), (n, pm.perm)


def test_warm_cache_still_refuses_foreign_and_torn_maps():
    ref, bm, rm = crossed_fixture()
    view = SubalgebraView.of_refinement(ref)
    description = commutant_description(view, rm)
    part, swap = swap_instance()
    other_view = SubalgebraView.identity(part)
    sep_set(other_view, swap, 1)
    torn = PieceMap(ref.refined, (0, 2, 1, 3, 4, 5, 6))
    for _ in range(3):
        with pytest.raises(MapDoesNotDescend):
            sep_set(view, torn, 1)
        with pytest.raises(PartitionMismatch):
            sep_set(view, swap, 1)
        with pytest.raises(PartitionMismatch):
            sep_set(other_view, rm, 1)
    assert list(view._memo.values()) == [(rm, description)]
    assert list(other_view._memo.values()) == [(swap, commutant_description(other_view, swap))]


def test_oracle_builds_its_generators_once_per_view_and_map(monkeypatch):
    import crossed_commutant.commutant as commutant

    descents, builds, transports = [], [], []
    real_descend, real_transport = commutant.descend_map, commutant.sigma_tilde_pow
    real_indicator = commutant.CoefficientVector.indicator
    monkeypatch.setattr(commutant, "descend_map", lambda view, pm: descents.append(1) or real_descend(view, pm))
    monkeypatch.setattr(
        commutant, "sigma_tilde_pow", lambda h, pm, n: transports.append(1) or real_transport(h, pm, n)
    )
    monkeypatch.setattr(
        commutant.CoefficientVector, "indicator",
        classmethod(lambda cls, size, pieces: builds.append(1) or real_indicator(size, pieces)),
    )
    rng = random.Random(41)
    draws = [random_instance(rng) for _ in range(80)]
    assert {inst.refined for inst in draws} == {True, False}
    degrees = range(-12, 13)
    for view, pm in [(view, inst.refined_map) for inst in draws for view in _views_of(inst)]:
        descents.clear()
        builds.clear()
        seps, seen = [], set()
        for n in degrees:
            transports.clear()
            seps.append(brute_force_sep(view, pm, n))
            # every generator at the first call of a residue, none at a later one
            fresh = n % pm.period not in seen
            assert len(transports) == (view.sub.piece_count if fresh else 0)
            seen.add(n % pm.period)
        assert len(descents) == 1 and len(builds) == view.sub.piece_count
        assert seps == [sep_set(view, pm, n) for n in degrees], pm.perm


def test_warm_oracle_still_refuses_foreign_and_torn_maps():
    ref, bm, rm = crossed_fixture()
    view = SubalgebraView.of_refinement(ref)
    want = [brute_force_sep(view, rm, n) for n in range(-3, 4)]
    torn = PieceMap(ref.refined, (0, 2, 1, 3, 4, 5, 6))
    other = build_real_line_partition(["0", "1", "2"])
    foreign = PieceMap(other, tuple(range(other.piece_count)))  # as many pieces as rm's partition
    assert foreign.size == rm.size
    for _ in range(3):
        with pytest.raises(MapDoesNotDescend):
            brute_force_sep(view, torn, 1)
        with pytest.raises(PartitionMismatch):
            brute_force_sep(view, foreign, 1)
    assert [entry[0] for entry in view._memo.values()] == [rm]
    assert [brute_force_sep(view, rm, n) for n in range(-3, 4)] == want


def test_oracle_memo_holds_its_map():
    ref, _, _ = crossed_fixture()
    view = SubalgebraView.of_refinement(ref)
    pm = PieceMap(ref.refined, (2, 3, 1, 0, 6, 5, 4))
    held = weakref.ref(pm)
    brute_force_sep(view, pm, 1)
    del pm
    gc.collect()
    assert held() is not None  # so no later map can take over its id


def test_oracle_keeps_one_table_per_residue_of_each_maps_order():
    from test_crossed import _dense_literal_sep

    part, swap = swap_instance()
    shared = SubalgebraView.identity(part)
    cycle = PieceMap(part, (2, 0, 1, 3, 4))
    rng = random.Random(2503)
    pairs = [(view, inst.refined_map) for inst in (random_instance(rng) for _ in range(80))
             for view in _views_of(inst)]
    for view, pm in [(shared, swap), (shared, cycle)] + pairs:
        L = pm.period
        dense = _dense_literal_sep(view, pm.perm, range(L))
        for n in range(L):
            far = 10**12 * L + n
            for m in (n, n + L, n - L, n + 3 * L, n - 3 * L, far, -far):
                assert brute_force_sep(view, pm, m) == dense[n], (m, pm.perm)
        assert view._memo[("oracle", id(pm))][0] is pm
    # one view shared by two maps keeps each map's tables apart
    assert [entry[0] for entry in shared._memo.values()] == [swap, cycle]
    assert [sorted(entry[2]) for entry in shared._memo.values()] == [[0, 1], [0, 1, 2]]


def test_cached_tables_stay_out_of_copies():
    ref, bm, rm = crossed_fixture()
    view = SubalgebraView.of_refinement(ref)
    description = commutant_description(view, rm)
    diff = commutant_difference(ref, bm, rm)
    degrees = range(-12, 13)

    def tables(view, description, diff):
        return [
            (sep_set(view, rm, n), description.allowed(n), diff.forbidden_at(n), diff.coarse.sep(n))
            for n in degrees
        ]

    want = tables(view, description, diff)
    assert view._memo and description._memo and diff._memo
    for copier in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        twins = copier(view), copier(description), copier(diff)
        assert twins == (view, description, diff)
        assert hash(twins[0]) == hash(view) and hash(twins[1].view) == hash(view)
        caches = {"_memo", "_fibers"}, {"_memo", "period"}, {"_memo", "coarse", "refined"}
        for twin, cached in zip(twins, caches):
            assert not cached & set(vars(twin)), type(twin).__name__
        assert tables(*twins) == want


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


def _refine_along_orbits(rng, partition, piece_map):
    """One refinement step with equal child counts along every orbit, so lifts exist."""
    counts = {}
    for cycle in perm_cycles(piece_map.perm):
        counts.update(dict.fromkeys(cycle, rng.randint(0, 2)))
    if isinstance(partition, RealLinePartition):
        return refine_real_line(partition, {
            b: evenly_spaced_inside(*partition.bounds_of(b), c)
            for b, c in counts.items()
            if partition.pieces[b].kind is PieceKind.INTERVAL
        })
    return refine_abstract(partition, {b: c + 1 for b, c in counts.items()})


def _compose(first, second):
    """The refinement base -> fine of two steps base -> mid -> fine, built by hand."""
    added = None
    if first.added_points is not None:
        merged = {}
        for alpha, points in first.added_points.items():
            merged.setdefault(alpha, []).extend(points)
        for mid, points in second.added_points.items():
            merged.setdefault(first.parent_of[mid], []).extend(points)
        added = {alpha: tuple(sorted(points)) for alpha, points in merged.items()}
    parent_of = tuple(first.parent_of[mid] for mid in second.parent_of)
    return Refinement(first.base, second.refined, parent_of, added)


def _chains(count, seed):
    """Seeded chains base -> mid -> fine with lifts, half on the line and half abstract."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            base = build_abstract_partition(rng.randint(1, 4))
        else:
            base = build_real_line_partition(sorted(rng.sample(range(10), rng.randint(0, 2))))
        bm = PieceMap(base, _random_kind_preserving_perm(rng, base))
        first = _refine_along_orbits(rng, base, bm)
        mm = _random_lift(rng, first, bm)
        second = _refine_along_orbits(rng, first.refined, mm)
        yield first, second, bm, mm, _random_lift(rng, second, mm)


def test_refinement_chains_grow_sep_sets_by_the_composed_difference():
    both_steps = 0
    for first, second, bm, mm, fm in _chains(80, 2701):
        whole = _compose(first, second)
        views = (  # base, mid and fine, all on the fine partition
            SubalgebraView.of_refinement(whole),
            SubalgebraView.of_refinement(second),
            SubalgebraView.identity(second.refined),
        )
        steps = commutant_difference(first, bm, mm), commutant_difference(second, mm, fm)
        composed = commutant_difference(whole, bm, fm)
        for n in range(-12, 13):
            base_sep, mid_sep, fine_sep = seps = [sep_set(view, fm, n) for view in views]
            assert base_sep <= mid_sep <= fine_sep
            outer = steps[1].forbidden_at(n)
            pulled = {c for c, mid in enumerate(second.parent_of) if mid in steps[0].forbidden_at(n)}
            assert not outer & pulled
            assert composed.forbidden_at(n) == outer | pulled == fine_sep - base_sep
            assert [brute_force_sep(view, fm, n) for view in views] == seps
            both_steps += bool(outer and pulled)
    assert both_steps >= 100  # the law is exercised with both steps at work
