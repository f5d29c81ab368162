"""The self-test runner: counting, the skip cap and counterexamples."""
import random

import crossed_commutant.selftest as selftest
from crossed_commutant.selftest import _run_suite, random_instance, suite_sep_oracle


def test_a_broken_formula_yields_a_counterexample(monkeypatch):
    monkeypatch.setattr(selftest, "sep_set", lambda view, piece_map, n: frozenset())
    result = suite_sep_oracle(seed=3, instances=50)
    assert not result.ok
    assert result.total == 50
    assert result.passed < 50
    assert result.counterexample.startswith(f"subject {result.passed + 1}: n=")
    assert " on " in result.counterexample


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
        seen.append(instance.describe())
        return instance, None

    assert _run_suite("stream", 11, 4, record).ok
    rng = random.Random(11)
    assert seen == [random_instance(rng).describe() for _ in range(4)]


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
