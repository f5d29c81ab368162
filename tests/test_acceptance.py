"""Acceptance checks: one test and one printed PASS line per criterion.

Every comparison here is exact; there are no tolerances.  The random
criteria use fixed seeds, so runs are reproducible.
"""
import math
import time

from crossed_commutant import (
    PieceMap,
    PiProfile,
    SubalgebraView,
    build_real_line_partition,
    c1_subcase_count,
    c1_subcase_diagnostic,
    case_signature,
    check_pi,
    classify_cases,
    commutant_description,
    commutant_difference,
    count_refined_maps,
    atlas_instances,
    enumerate_refined_maps,
    integer_partition_count,
    is_strongly_graded,
    parse_instance,
    pi_profile,
    realize_pi,
    refined_cycle_classes,
    refined_sep,
    validate_refined_invariance,
)
from crossed_commutant.fixtures import builtin_instance
from crossed_commutant.partition import PieceKind
from crossed_commutant.selftest import (
    suite_action_laws,
    suite_algebra_laws,
    suite_commutant_commutes,
    suite_noncommuting_witness,
    suite_refinement_monotone,
    suite_sep_oracle,
)

WINDOW = 12


def report(line):
    print(line)


def test_criterion_1_sep_formula_equals_oracle():
    started = time.time()
    result = suite_sep_oracle(seed=10501, instances=1000)
    elapsed = time.time() - started
    assert result.ok, result.counterexample
    assert result.passed == result.total == 1000
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(
        "criterion 1 (separation formula = brute-force oracle, "
        f"1000 instances, |n| <= 12, {elapsed:.1f}s): PASS"
    )


def _expected_rules():
    intervals3 = frozenset({0, 1, 2})
    points2 = frozenset({3, 4})
    first_two = frozenset({0, 1})
    quad = frozenset({0, 1, 2, 3})
    odd_all = frozenset({0, 1, 2, 3, 4, 6})
    empty = frozenset()

    def swap_rule(n):
        return first_two if n % 2 else empty

    def cycle_rule(n):
        return intervals3 if n % 3 else empty

    def split_rule(n):
        out = set()
        if n % 3:
            out |= intervals3
        if n % 2:
            out |= points2
        return frozenset(out)

    def crossed_sep(n):
        if n % 2:
            return odd_all
        if n % 4:
            return quad
        return empty

    def crossed_forbidden(n):
        return quad if (n % 2 == 0 and n % 4 != 0) else empty

    always_empty = lambda n: empty
    return {
        "one-interval-identity": (always_empty, always_empty),
        "one-interval-swap": (swap_rule, swap_rule),
        "one-interval-3cycle": (cycle_rule, cycle_rule),
        "one-interval-3cycle-pointswap": (split_rule, split_rule),
        "two-intervals-identity": (always_empty, always_empty),
        "two-intervals-one-swap": (swap_rule, swap_rule),
        "two-intervals-crossed": (crossed_sep, crossed_forbidden),
    }


def test_criterion_2_builtin_cases_match_divisibility_rules():
    for name, (sep_rule, forbidden_rule) in _expected_rules().items():
        inst = parse_instance(builtin_instance(name))
        diff = commutant_difference(inst.refinement, inst.base_map, inst.refined_map)
        for n in range(-WINDOW, WINDOW + 1):
            fine = refined_sep(inst.refinement, inst.base_map, inst.refined_map, n)
            assert fine == sep_rule(n), (name, n, sorted(fine))
            assert diff.forbidden_at(n) == forbidden_rule(n), (name, n)
    # the two-condition split: at n = 3 only the points stay forbidden
    inst = parse_instance(builtin_instance("one-interval-3cycle-pointswap"))
    assert refined_sep(inst.refinement, inst.base_map, inst.refined_map, 3) == frozenset(
        {3, 4}
    )
    report("criterion 2 (all 7 built-in cases reproduce their divisibility rules): PASS")


def test_criterion_3_two_point_atlas_has_six_cases():
    groups = classify_cases(atlas_instances(2))
    assert len(groups) == 6
    counts = {str(sig): g.count for sig, g in groups.items()}
    assert sum(counts.values()) == 20
    assert counts["no difference"] == 4
    # the identity-style cases of both shapes share the empty signature
    sig_one = case_signature(
        commutant_difference(
            *_triple(parse_instance(builtin_instance("one-interval-identity")))
        )
    )
    sig_two = case_signature(
        commutant_difference(
            *_triple(parse_instance(builtin_instance("two-intervals-identity")))
        )
    )
    assert sig_one == sig_two
    assert sig_one in groups
    report("criterion 3 (two added points give exactly 6 case signatures): PASS")


def _triple(inst):
    return inst.refinement, inst.base_map, inst.refined_map


def _admissible_items(k, p):
    # independent enumerator: multisets over l = 1..p+1 with l | pi(l), sum p+1
    out = set()

    def rec(l, left, current):
        if left == 0:
            out.add(tuple(sorted(current.items())))
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


def _interval_child_ids(refinement):
    refined = refinement.refined
    return tuple(
        c for c in range(refined.piece_count)
        if refined.pieces[c].kind is not PieceKind.POINT
    )


def test_criterion_4_profile_characterization_exhaustive():
    started = time.time()
    checked_lifts = 0
    for k in (1, 2, 3):
        for p in (0, 1, 2, 3):
            trivial = PiProfile(k=k, p=p, pi={1: p + 1})
            refinement, base_map, _ = realize_pi(k, p, trivial)
            cycle = tuple(range(k))
            expected = _admissible_items(k, p)
            total = (math.factorial(p + 1) * math.factorial(p)) ** k
            assert count_refined_maps(refinement, base_map) == total
            seen = set()
            count = 0
            if total <= 30000:
                for lift in enumerate_refined_maps(refinement, base_map):
                    rcc = refined_cycle_classes(refinement, base_map, lift)
                    prof = pi_profile(rcc, cycle)
                    assert check_pi(prof).ok, (k, p, prof)
                    seen.add(prof.sorted_items())
                    count += 1
            else:
                # the stream varies point wiring fastest: profiles are constant
                # on blocks of (p!)^k lifts, proven per lift by slice equality
                block = math.factorial(p) ** k
                ivals = _interval_child_ids(refinement)
                head_slice = None
                head_items = None
                for index, lift in enumerate(enumerate_refined_maps(refinement, base_map)):
                    ival_slice = tuple(lift.perm[c] for c in ivals)
                    if index % block == 0:
                        rcc = refined_cycle_classes(refinement, base_map, lift)
                        prof = pi_profile(rcc, cycle)
                        assert check_pi(prof).ok, (k, p, prof)
                        seen.add(prof.sorted_items())
                        head_slice = ival_slice
                        head_items = prof.sorted_items()
                    else:
                        assert ival_slice == head_slice
                    if index % 9973 == 0:
                        rcc = refined_cycle_classes(refinement, base_map, lift)
                        assert pi_profile(rcc, cycle).sorted_items() == head_items
                    count += 1
            assert count == total, (k, p, count, total)
            assert seen == expected, (k, p, sorted(seen), sorted(expected))
            checked_lifts += count
            # converse: every admissible profile is realized and round-trips
            for items in expected:
                profile = PiProfile(k=k, p=p, pi=dict(items))
                r2, b2, m2 = realize_pi(k, p, profile)
                assert validate_refined_invariance(r2, b2, m2).ok
                back = pi_profile(refined_cycle_classes(r2, b2, m2), cycle)
                assert back.sorted_items() == profile.sorted_items()
    elapsed = time.time() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(
        "criterion 4 (profile law, both directions, k <= 3, p <= 3, "
        f"{checked_lifts} lifts, {elapsed:.1f}s): PASS"
    )


def test_criterion_5_counting_formulas():
    # independent brute force: count monotone tuples by recursion with a cap
    def slow_count(n, cap=None):
        cap = n if cap is None else cap
        if n == 0:
            return 1
        return sum(slow_count(n - part, part) for part in range(min(cap, n), 0, -1))

    for n in range(13):
        assert integer_partition_count(n) == slow_count(n)
    expected = {1: 2, 2: 6, 3: 15, 4: 35}
    for k, value in expected.items():
        assert c1_subcase_count(k) == value
        diag = c1_subcase_diagnostic(k)
        assert diag.machine == diag.formula == value, (k, diag)
    report("criterion 5 (partition counts and k <= 4 subcase counts, exact): PASS")


def test_criterion_6_algebraic_laws():
    laws = suite_algebra_laws(seed=777, triples=500)
    assert laws.ok and laws.total == 500, laws.counterexample
    action = suite_action_laws(seed=778, iterations=500)
    assert action.ok and action.total == 500, action.counterexample
    pairs = suite_commutant_commutes(seed=779, pairs=500)
    assert pairs.ok and pairs.total == 500, pairs.counterexample
    witnesses = suite_noncommuting_witness(seed=780, count=500)
    assert witnesses.ok and witnesses.total == 500, witnesses.counterexample
    assert witnesses.passed == 500
    report(
        "criterion 6 (associativity, bilinearity, action laws, commuting "
        "members, 500/500 witnesses): PASS"
    )


def test_criterion_7_strong_grading_certificates():
    part = build_real_line_partition(["0", "1"])
    swap = PieceMap(part, (1, 0, 2, 4, 3))
    desc = commutant_description(SubalgebraView.identity(part), swap)
    verdict = is_strongly_graded(desc, swap)
    assert not verdict.strongly_graded
    assert verdict.witness == (1, 1)

    ident = PieceMap.identity(part)
    desc2 = commutant_description(SubalgebraView.identity(part), ident)
    verdict2 = is_strongly_graded(desc2, ident)
    assert verdict2.strongly_graded and verdict2.witness is None
    report(
        "criterion 7 (swap certified not strongly graded at (1,1); "
        "identity strongly graded): PASS"
    )


def test_criterion_8_refinement_monotonicity():
    result = suite_refinement_monotone(seed=781, instances=400)
    assert result.ok and result.total == 400, result.counterexample
    # direct spot check on the crossed fixture
    inst = parse_instance(builtin_instance("two-intervals-crossed"))
    coarse_view = SubalgebraView.of_refinement(inst.refinement)
    from crossed_commutant import sep_set

    for n in range(-WINDOW, WINDOW + 1):
        coarse = sep_set(coarse_view, inst.refined_map, n)
        fine = refined_sep(inst.refinement, inst.base_map, inst.refined_map, n)
        assert coarse <= fine
    report(
        "criterion 8 (coarse separation contained in refined, exact "
        "decomposition, 400 refined instances): PASS"
    )
