"""The self-test runner: counting, the skip cap and counterexamples."""
import json
import random
import re
from fractions import Fraction

import crossed_commutant.selftest as selftest
from crossed_commutant.cli import main
from crossed_commutant.commutant import SubalgebraView, brute_force_sep, commutant_description
from crossed_commutant.crossed import CoefficientVector, crossed_element
from crossed_commutant.instances import parse_instance, render_instance
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
