"""The self-test runner: counting, the skip cap and counterexamples."""
import gc
import json
import random
import re
import weakref
from fractions import Fraction

import pytest

import crossed_commutant.selftest as selftest
from crossed_commutant.cli import main
from crossed_commutant.commutant import SubalgebraView, brute_force_sep, commutant_description
from crossed_commutant.crossed import CoefficientVector, crossed_element
from crossed_commutant.dynamics import PieceMap, perm_cycles, validate_invariance, validate_refined_invariance
from crossed_commutant.instances import Instance, parse_instance, render_instance
from crossed_commutant.partition import (
    build_abstract_partition,
    build_real_line_partition,
    evenly_spaced_inside,
    identity_refinement,
    refine_abstract,
    refine_real_line,
)
from crossed_commutant.selftest import _run_suite, random_instance, suite_sep_oracle


def _document(counterexample):
    """The instance document a counterexample ends in, parsed."""
    head, sep, document = counterexample.rpartition(" on ")
    assert sep and document.startswith("{")
    return json.loads(document)


def test_a_broken_formula_yields_a_counterexample(monkeypatch):
    monkeypatch.setattr(selftest, "sep_set", lambda view, piece_map, n: frozenset())
    result = suite_sep_oracle(seed=3, instances=50)
    assert not result.ok
    assert result.total == 50
    assert result.passed < 50
    assert result.counterexample.startswith(f"subject {result.passed + 1}: n=")
    assert parse_instance(_document(result.counterexample)).window == selftest.WINDOW


def test_a_counterexample_replays_through_validate_and_report(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(selftest, "sep_set", lambda view, piece_map, n: frozenset())
    assert main(["selftest", "--seed", "3", "--iterations", "20"]) == 1
    lines = [
        line.split("counterexample: ", 1)[1]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("  counterexample: ")
    ]
    assert lines
    for line in lines:  # every suite's counterexample ends in a parseable document
        parse_instance(_document(line))
    n = int(re.match(r"subject \d+: n=(-?\d+) ", lines[0]).group(1))
    document = _document(lines[0])
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps(document))

    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["report", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["window"] == selftest.WINDOW
    instance = parse_instance(document)
    oracle = brute_force_sep(
        SubalgebraView.identity(instance.analysis_partition), instance.refined_map, n
    )
    assert payload["sep"][str(n)] == sorted(oracle) != []


def test_a_failed_realize_round_trip_carries_its_document(monkeypatch):
    real = selftest.realize_pi

    def realize_the_last(k, p, profile):
        return real(k, p, selftest._admissible_profiles(k, p)[-1])

    monkeypatch.setattr(selftest, "realize_pi", realize_the_last)
    result = selftest.suite_profiles(seed=0, instances=5)
    assert result.counterexample.startswith("realize round trip failed for k=1, p=1, ")
    instance = parse_instance(_document(result.counterexample))
    assert instance.refined and instance.window == selftest.WINDOW


def test_skips_stop_at_the_attempt_cap():
    draws = []

    def never_qualifies(rng):
        draws.append(rng.random())

    result = _run_suite("skips", 0, 3, never_qualifies, attempts=2)
    assert (result.passed, result.total, result.counterexample) == (0, 0, None)
    assert len(draws) == 6


def test_subjects_share_one_seeded_stream():
    seen = []

    def record(rng):
        instance = random_instance(rng)
        seen.append(render_instance(instance))
        return instance, None

    assert _run_suite("stream", 11, 4, record).ok
    rng = random.Random(11)
    assert seen == [render_instance(random_instance(rng)) for _ in range(4)]


def test_refinement_suite_checks_each_lift_and_view_once(monkeypatch):
    import crossed_commutant.commutant as commutant

    calls = {"descend_map": 0, "validate_refined_invariance": 0}
    for name in calls:
        real = getattr(commutant, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(commutant, name, counted)
    result = selftest.suite_refinement_monotone(6, 40)
    assert result.ok and result.total == 40
    # one coarse and one fine view per instance, one lift check per instance
    assert calls == {"descend_map": 80, "validate_refined_invariance": 40}


def _reference_vector(rng, size):
    """``_random_vector`` before the draw table, kept as it was."""
    return CoefficientVector(
        tuple(
            Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.7 else Fraction(0)
            for _ in range(size)
        )
    )


def _reference_member(rng, description):
    """``_random_member`` before the draw table, kept as it was."""
    terms = {}
    for n in rng.sample(range(-6, 7), rng.randint(1, 3)):
        allowed = sorted(description.allowed(n))
        if not allowed:
            continue
        values = [Fraction(0)] * description.piece_count
        for p in allowed:
            if rng.random() < 0.7:
                values[p] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        terms[n] = values
    return crossed_element(terms)


def test_draw_table_gives_the_values_and_stream_of_the_fraction_formulas():
    setup = random.Random(2414)
    for seed in range(150):
        instance = random_instance(setup)
        view = selftest._views(instance)[-1]
        description = commutant_description(view, instance.refined_map)
        size = instance.refinement.refined.piece_count
        table, formula = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert selftest._random_vector(table, size) == _reference_vector(formula, size)
            assert table.getstate() == formula.getstate()
            assert selftest._random_member(table, description) == _reference_member(formula, description)
            assert table.getstate() == formula.getstate()


def _shuffled(rng, ids):
    images = list(ids)
    rng.shuffle(images)
    return images


def _reference_instance(rng, max_pieces):
    """``random_instance`` before the table of shapes, built from scratch and checked."""
    if rng.random() < 0.5:
        base = build_real_line_partition(sorted(rng.sample(range(0, 10), rng.randint(0, 3))))
        perm = [0] * base.piece_count
        for ids in (base.interval_ids(), base.point_ids()):
            for src, dst in zip(ids, _shuffled(rng, ids)):
                perm[src] = dst
        base_map = PieceMap(base, tuple(perm))
        if rng.random() < 0.35:
            return Instance("real_line", identity_refinement(base), base_map, base_map, selftest.WINDOW, False)
        budget, additions = (max_pieces - base.piece_count) // 2, {}
        for cycle in perm_cycles(base_map.perm):
            cap = budget // len(cycle) if cycle[0] in base.interval_ids() else 0
            count = rng.randint(0, min(2, cap)) if cap > 0 else 0
            budget -= count * len(cycle)
            additions.update({a: evenly_spaced_inside(*base.bounds_of(a), count) for a in cycle if count})
        refinement = refine_real_line(base, additions)
    else:
        base = build_abstract_partition(rng.randint(1, 6))
        base_map = PieceMap(base, tuple(_shuffled(rng, range(base.piece_count))))
        if rng.random() < 0.35:
            return Instance("abstract", identity_refinement(base), base_map, base_map, selftest.WINDOW, False)
        cells, budget, remaining = {}, max_pieces, base.piece_count
        for cycle in perm_cycles(base_map.perm):
            remaining -= len(cycle)
            s = rng.randint(1, max(1, min(3, (budget - remaining) // len(cycle))))
            budget -= s * len(cycle)
            cells.update(dict.fromkeys(cycle, s))
        refinement = refine_abstract(base, cells)
    kind = "real_line" if refinement.added_points is not None else "abstract"
    if refinement.is_identity:
        return Instance(kind, refinement, base_map, base_map, selftest.WINDOW, False)
    perm = [0] * refinement.refined.piece_count
    for b in range(base.piece_count):
        src, dst = refinement.kind_split[b], refinement.kind_split[base_map.perm[b]]
        for kind_ in (1, 0):
            for s, d in zip(src[kind_], _shuffled(rng, dst[kind_])):
                perm[s] = d
    lift = PieceMap(refinement.refined, tuple(perm))
    return Instance(kind, refinement, base_map, lift, selftest.WINDOW, True)


@pytest.mark.parametrize("max_pieces", [9, 11, 15])
def test_draws_from_one_table_equal_fresh_and_reference_draws(max_pieces):
    shared, fresh, reference = (random.Random(3000 + max_pieces) for _ in range(3))
    shapes = {}
    for _ in range(300):
        table = selftest._draw(shared, shapes, max_pieces)
        for other in (random_instance(fresh, max_pieces), _reference_instance(reference, max_pieces)):
            assert render_instance(table) == render_instance(other)
            assert table.base_map.perm == other.base_map.perm
            assert table.refined_map.perm == other.refined_map.perm
            assert table.refinement == other.refinement
        assert shared.getstate() == fresh.getstate() == reference.getstate()
    assert len(shapes) < 300  # shapes did repeat


def test_drawn_maps_rebuild_through_the_checked_constructor():
    rng, shapes = random.Random(3011), {}
    refined = 0
    for i in range(300):
        instance = selftest._draw(rng, shapes, (9, 11, 15)[i % 3])
        base, fine = instance.base, instance.analysis_partition
        bm, rm = instance.base_map, instance.refined_map
        assert PieceMap(base, bm.perm) == bm and validate_invariance(base, bm).ok
        assert PieceMap(fine, rm.perm) == rm and validate_invariance(fine, rm).ok
        if instance.refined:
            refined += 1
            assert validate_refined_invariance(instance.refinement, bm, rm).ok
    assert refined >= 100


def _shape_of(instance):
    """An instance's document without its maps: equal shapes have equal table keys."""
    return json.dumps({k: v for k, v in render_instance(instance).items() if "perm" not in k})


def test_a_run_shares_its_shapes_and_keeps_none_afterwards(monkeypatch):
    real, runs = selftest._draw, []

    def recording(rng, shapes, max_pieces=11):
        instance = real(rng, shapes, max_pieces)
        runs[-1].append((id(shapes), instance))
        return instance

    monkeypatch.setattr(selftest, "_draw", recording)
    for seed in (5, 6):
        runs.append([])
        assert all(result.ok for result in selftest.run_selftest(seed, 3))
    held = []
    for draws in runs:
        assert len({table for table, _ in draws}) == 1  # one table for all eight suites
        objects: dict[str, set[int]] = {}
        for _, instance in draws:
            objects.setdefault(_shape_of(instance), set()).add(id(instance.refinement))
        assert all(len(ids) == 1 for ids in objects.values())
        assert len(objects) < len(draws)
        held.append({id(x) for _, i in draws for x in (i.refinement, i.base, i.analysis_partition)})
    assert not held[0] & held[1]  # two runs share nothing
    alive = [weakref.ref(i.refinement) for draws in runs for _, i in draws]
    del draws, instance  # the loops' last bindings
    runs.clear()
    gc.collect()
    assert not any(ref() for ref in alive)  # no table outlives its run


def test_a_bare_draw_holds_no_table():
    rng = random.Random(3013)
    first = random_instance(rng)
    for _ in range(200):
        again = random_instance(rng)
        if _shape_of(again) == _shape_of(first):
            break
    assert _shape_of(again) == _shape_of(first) and again.refinement is not first.refinement
    assert again.base is not first.base
    alive = weakref.ref(first.refinement)
    del first
    gc.collect()
    assert alive() is None
