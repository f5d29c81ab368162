"""Randomized self-checks: oracle equivalences and algebraic laws.

Instances are generated from a seeded RNG, so a given seed reproduces the
identical stream.  Each partition and refinement is built once per
``run_selftest`` call and shared by its suites; the drawn maps are valid by
construction and built unchecked.  Each suite returns how many
subjects passed and its first counterexample when one exists, ending in the
instance document it failed on (one line of JSON that ``validate`` and
``report`` read back); the command line front end prints one line per suite.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from .commutant import (
    SubalgebraView,
    brute_force_sep,
    commutant_description,
    commutant_difference,
    find_noncommuting_witness,
    generator_element,
    sep_set,
)
from .crossed import CoefficientVector, crossed_element, multiply, sigma_tilde_pow
from .dynamics import (
    PieceMap,
    PiProfile,
    _unchecked_piece_map,
    check_pi,
    perm_cycles,
    pi_profile,
    realize_pi,
    refined_cycle_classes,
    validate_refined_invariance,
)
from .enumeration import count_refined_maps, enumerate_refined_maps, integer_partitions
from .instances import Instance, render_instance
from .partition import (
    PieceKind,
    RealLinePartition,
    Refinement,
    build_abstract_partition,
    build_real_line_partition,
    evenly_spaced_inside,
    identity_refinement,
    refine_abstract,
    refine_real_line,
)

WINDOW = 12  # the suites check degrees -WINDOW..WINDOW


@dataclass
class SuiteResult:
    name: str
    passed: int
    total: int
    counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return self.passed == self.total and self.counterexample is None


# ---------------------------------------------------------------------------
# random generation


def _kind_groups(partition) -> list[list[int]]:
    kinds = dict.fromkeys(piece.kind for piece in partition.pieces)  # in order of first piece
    return [[piece.id for piece in partition.pieces if piece.kind is kind] for kind in kinds]


def _shuffle_within(rng: random.Random, size: int, groups: list[list[int]]) -> tuple[int, ...]:
    perm = [0] * size
    for ids in groups:
        images = ids[:]
        rng.shuffle(images)
        for src, dst in zip(ids, images):
            perm[src] = dst
    return tuple(perm)


def _random_lift(rng: random.Random, refinement: Refinement, base_map: PieceMap) -> PieceMap:
    perm = [0] * refinement.refined.piece_count
    for b in range(refinement.base.piece_count):
        src, dst = refinement.kind_split[b], refinement.kind_split[base_map.perm[b]]
        for kind in (1, 0):  # point children first, then the others
            images = list(dst[kind])
            if len(images) > 1:  # shuffling fewer draws nothing
                rng.shuffle(images)
            for s, d in zip(src[kind], images):
                perm[s] = d
    return _unchecked_piece_map(refinement.refined, tuple(perm))


def _instance(refinement: Refinement, base_map: PieceMap, refined_map: PieceMap) -> Instance:
    kind = "real_line" if isinstance(refinement.base, RealLinePartition) else "abstract"
    return Instance(kind, refinement, base_map, refined_map, WINDOW, not refinement.is_identity)


def _document(instance: Instance) -> str:
    return json.dumps(render_instance(instance))


def random_instance(rng: random.Random, max_pieces: int = 11) -> Instance:
    """One random instance, at most ``max_pieces`` fine pieces, two levels deep."""
    return _draw(rng, None, max_pieces)


def _shape(shapes: dict, key: object, build: Callable):
    """The entry under ``key`` in one run's table of shapes, built on first use."""
    return shapes[key] if key in shapes else shapes.setdefault(key, build())


def _base(partition) -> tuple:
    return partition, identity_refinement(partition), _kind_groups(partition)


def _draw(rng: random.Random, shapes: dict | None, max_pieces: int = 11) -> Instance:
    """``random_instance`` reading its partitions and refinements from ``shapes`` (None: a fresh table)."""
    shapes = {} if shapes is None else shapes
    if rng.random() < 0.5:
        jumps = tuple(sorted(rng.sample(range(0, 10), rng.randint(0, 3))))
        key, build = ("line", jumps), lambda: build_real_line_partition(jumps)
    else:
        count = rng.randint(1, 6)
        key, build = ("abstract", count), lambda: build_abstract_partition(count)
    base, identity, groups = _shape(shapes, key, lambda: _base(build()))
    base_map = _unchecked_piece_map(base, _shuffle_within(rng, base.piece_count, groups))
    if rng.random() < 0.35:
        return _instance(identity, base_map, base_map)
    if isinstance(base, RealLinePartition):
        budget = (max_pieces - base.piece_count) // 2
        counts: dict[int, int] = {}
        for cycle in (c for c in perm_cycles(base_map.perm) if c[0] <= base.n):  # interval orbits
            cap = budget // len(cycle)
            count = rng.randint(0, min(2, cap)) if cap > 0 else 0
            if count:
                budget -= count * len(cycle)
                counts.update(dict.fromkeys(cycle, count))
        added = tuple(sorted(counts.items()))
        refinement = _shape(shapes, ("line-refinement", jumps, added), lambda: refine_real_line(
            base, {alpha: evenly_spaced_inside(*base.bounds_of(alpha), k) for alpha, k in added}))
    else:
        cells: dict[int, int] = {}
        budget, remaining_min = max_pieces, base.piece_count
        for cycle in perm_cycles(base_map.perm):
            remaining_min -= len(cycle)
            cap = (budget - remaining_min) // len(cycle)
            s = rng.randint(1, max(1, min(3, cap)))
            budget -= s * len(cycle)
            cells.update(dict.fromkeys(cycle, s))
        key = ("abstract-refinement", base.piece_count, tuple(sorted(cells.items())))
        refinement = _shape(shapes, key, lambda: refine_abstract(base, cells))
    if refinement.is_identity:  # no piece split: the base's own identity entry
        return _instance(identity, base_map, base_map)
    return _instance(refinement, base_map, _random_lift(rng, refinement, base_map))


def _views(instance: Instance) -> list[SubalgebraView]:
    views = [SubalgebraView.identity(instance.refinement.refined)]
    if instance.refined:
        views.append(SubalgebraView.of_refinement(instance.refinement))
    return views


# the small fractions p/q the random draws use, built once
_SMALL = {(p, q): Fraction(p, q) for p in range(-2, 3) for q in range(1, 4)}


def _random_vector(rng: random.Random, size: int) -> CoefficientVector:
    return CoefficientVector(
        tuple(
            _SMALL[rng.randint(-2, 2), rng.randint(1, 3)] if rng.random() < 0.7 else _SMALL[0, 1]
            for _ in range(size)
        )
    )


def _random_element(rng: random.Random, size: int):
    degrees = rng.sample(range(-4, 5), rng.randint(1, 3))
    return crossed_element({n: _random_vector(rng, size) for n in degrees})


# ---------------------------------------------------------------------------
# suites


Outcome = tuple[Instance, str | None] | None


def _run_suite(
    name: str,
    seed: int,
    count: int,
    subject: Callable[[random.Random], Outcome],
    attempts: int = 50,
) -> SuiteResult:
    """Check ``count`` subjects drawn one after another from one seeded stream.

    ``subject(rng)`` draws one subject and returns None to skip it, else its
    instance and None (a pass) or a failure description.  A failure is
    reported with the document of its instance.  At most ``attempts`` draws
    are made per wanted subject; the total is the number checked.
    """
    rng = random.Random(seed)
    passed = 0
    for _ in range(count * attempts):
        if passed == count:
            break
        outcome = subject(rng)
        if outcome is None:
            continue
        instance, failure = outcome
        if failure is not None:
            counterexample = f"subject {passed + 1}: {failure} on {_document(instance)}"
            return SuiteResult(name, passed, count, counterexample)
        passed += 1
    return SuiteResult(name, passed, passed)


def suite_sep_oracle(seed: int, instances: int = 1000, shapes: dict | None = None) -> SuiteResult:
    """Formula-based separation sets equal the generator-by-generator oracle."""
    def subject(rng: random.Random) -> Outcome:
        instance = _draw(rng, shapes)
        for view in _views(instance):
            for n in range(-WINDOW, WINDOW + 1):
                fast = sep_set(view, instance.refined_map, n)
                slow = brute_force_sep(view, instance.refined_map, n)
                if fast != slow:
                    return instance, f"n={n} formula={sorted(fast)} oracle={sorted(slow)}"
        return instance, None

    return _run_suite("sep formula = oracle", seed, instances, subject)


def suite_action_laws(seed: int, iterations: int = 300, shapes: dict | None = None) -> SuiteResult:
    """Transport is a group action by algebra automorphisms."""
    def subject(rng: random.Random) -> Outcome:
        instance = _draw(rng, shapes)
        pm = instance.refined_map
        size = pm.size
        f, g = _random_vector(rng, size), _random_vector(rng, size)
        n, m = rng.randint(-6, 6), rng.randint(-6, 6)
        ok = (
            sigma_tilde_pow(f, pm, 0) == f
            and sigma_tilde_pow(sigma_tilde_pow(f, pm, m), pm, n) == sigma_tilde_pow(f, pm, n + m)
            and sigma_tilde_pow(f * g, pm, n) == sigma_tilde_pow(f, pm, n) * sigma_tilde_pow(g, pm, n)
            and sigma_tilde_pow(f + g, pm, n) == sigma_tilde_pow(f, pm, n) + sigma_tilde_pow(g, pm, n)
        )
        return instance, None if ok else f"n={n}, m={m}"

    return _run_suite("transport group action laws", seed, iterations, subject)


def suite_algebra_laws(seed: int, triples: int = 500, shapes: dict | None = None) -> SuiteResult:
    """Multiplication is associative and bilinear over the rationals."""
    def subject(rng: random.Random) -> Outcome:
        instance = _draw(rng, shapes)
        pm = instance.refined_map
        size = pm.size
        f, g, h = (_random_element(rng, size) for _ in range(3))
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        assoc = multiply(multiply(f, g, pm), h, pm) == multiply(f, multiply(g, h, pm), pm)
        left = multiply(f.scale(a) + g.scale(b), h, pm) == (
            multiply(f, h, pm).scale(a) + multiply(g, h, pm).scale(b)
        )
        right = multiply(h, f.scale(a) + g.scale(b), pm) == (
            multiply(h, f, pm).scale(a) + multiply(h, g, pm).scale(b)
        )
        return instance, None if assoc and left and right else f"a={a}, b={b}"

    return _run_suite("associativity and bilinearity", seed, triples, subject)


def _random_member(rng: random.Random, description):
    terms = {}
    for n in rng.sample(range(-6, 7), rng.randint(1, 3)):
        allowed = sorted(description.allowed(n))
        if not allowed:
            continue
        values = [_SMALL[0, 1]] * description.piece_count
        for p in allowed:
            if rng.random() < 0.7:
                values[p] = _SMALL[rng.randint(-2, 2), rng.randint(1, 2)]
        terms[n] = values
    return crossed_element(terms)


def suite_commutant_commutes(seed: int, pairs: int = 500, shapes: dict | None = None) -> SuiteResult:
    """Any two members of the fine algebra's commutant commute.

    This is the commutativity half of maximality and it is specific to the
    commutant of the full function algebra: the commutant of a coarse
    subalgebra is larger and genuinely noncommutative.
    """
    def subject(rng: random.Random) -> Outcome:
        instance = _draw(rng, shapes)
        view = SubalgebraView.identity(instance.refinement.refined)
        description = commutant_description(view, instance.refined_map)
        f = _random_member(rng, description)
        g = _random_member(rng, description)
        pm = instance.refined_map
        commute = multiply(f, g, pm) == multiply(g, f, pm)
        return instance, None if commute else "the pair does not commute"

    return _run_suite("commutant members commute", seed, pairs, subject)


def suite_noncommuting_witness(seed: int, count: int = 500, shapes: dict | None = None) -> SuiteResult:
    """Every non-member is caught by a coarse indicator generator."""
    def subject(rng: random.Random) -> Outcome:
        instance = _draw(rng, shapes)
        view = SubalgebraView.of_refinement(instance.refinement)
        pm = instance.refined_map
        description = commutant_description(view, pm)
        bad_degrees = [n for n in range(1, 7) if description.sep(n)]
        if not bad_degrees:
            return None
        n = rng.choice(bad_degrees)
        forbidden = sorted(description.sep(n))
        values = [Fraction(0)] * description.piece_count
        values[rng.choice(forbidden)] = Fraction(rng.randint(1, 3))
        elem = _random_member(rng, description) + crossed_element({n: values})
        witness = find_noncommuting_witness(elem, view, pm)
        if witness is None:
            return instance, "no witness"
        g = generator_element(view, witness)
        if multiply(elem, g, pm) == multiply(g, elem, pm):
            return instance, f"witness {witness} commutes"
        return instance, None

    return _run_suite("non-members yield generator witnesses", seed, count, subject)


def suite_refinement_monotone(seed: int, instances: int = 400, shapes: dict | None = None) -> SuiteResult:
    """Refining only grows separation sets, in the exact decomposed shape.

    At every degree the refined separation set is the coarse one plus the
    fine pieces that ``commutant_difference`` forbids there.  The lift is
    checked once, by ``commutant_difference``.
    """
    def subject(rng: random.Random) -> Outcome:
        instance = _draw(rng, shapes)
        if not instance.refined:
            return None
        refinement, bm, rm = instance.refinement, instance.base_map, instance.refined_map
        coarse_view = SubalgebraView.of_refinement(refinement)
        fine_view = SubalgebraView.identity(refinement.refined)
        difference = commutant_difference(refinement, bm, rm)
        for n in range(-WINDOW, WINDOW + 1):
            fine = sep_set(fine_view, rm, n)
            if fine != sep_set(coarse_view, rm, n) | difference.forbidden_at(n):
                return instance, f"n={n}"
        return instance, None

    return _run_suite("refinement grows separation sets", seed, instances, subject)


def _lift_stream_failure(refinement: Refinement, base_map: PieceMap, expected: int) -> str | None:
    seen = set()
    for lift in enumerate_refined_maps(refinement, base_map):
        seen.add(lift.perm)
        if not validate_refined_invariance(refinement, base_map, lift).ok:
            return f"invalid lift {list(lift.perm)}"
        rcc = refined_cycle_classes(refinement, base_map, lift)
        for child, l in enumerate(rcc.multiplier_of):
            subs, points = refinement.kind_split[refinement.parent_of[child]]
            bound = len(points) if child in points else len(subs)
            if l > max(bound, 1):
                return f"multiplier {l} exceeds bound {bound} on piece {child}"
    if len(seen) != expected:
        return f"stream yielded {len(seen)} distinct lifts, expected {expected}"
    return None


def suite_enumeration(seed: int, instances: int = 40, shapes: dict | None = None) -> SuiteResult:
    """Lift streams are complete, valid, duplicate-free, and bounded."""
    def subject(rng: random.Random) -> Outcome:
        instance = _draw(rng, shapes, max_pieces=9)
        if not instance.refined:
            return None
        expected = count_refined_maps(instance.refinement, instance.base_map)
        if not 0 < expected <= 5000:
            return None
        return instance, _lift_stream_failure(instance.refinement, instance.base_map, expected)

    return _run_suite("lift enumeration complete and valid", seed, instances, subject)


def suite_profiles(seed: int, instances: int = 40, shapes: dict | None = None) -> SuiteResult:
    """Profiles of valid lifts are admissible; admissible profiles are realized."""
    def subject(rng: random.Random) -> Outcome:
        instance = _draw(rng, shapes)
        if not instance.refined:
            return None
        refinement, bm, rm = instance.refinement, instance.base_map, instance.refined_map
        base = refinement.base
        rcc = refined_cycle_classes(refinement, bm, rm)
        checked_one = False
        for cycle in perm_cycles(bm.perm):
            if base.pieces[cycle[0]].kind is PieceKind.POINT:
                continue
            if len({len(refinement.children_of(b)) for b in cycle}) != 1:
                continue
            profile = pi_profile(rcc, cycle)
            checked_one = True
            if not check_pi(profile).ok:
                return instance, f"inadmissible profile {profile} from orbit {cycle}"
        return (instance, None) if checked_one else None

    result = _run_suite("lift profiles are admissible", seed, instances, subject, attempts=60)
    if result.counterexample:
        return result
    # deterministic converse at small scale
    for k, p in product((1, 2), (1, 2)):
        for profile in _admissible_profiles(k, p):
            refinement, bm, rm = realize_pi(k, p, profile)
            rcc = refined_cycle_classes(refinement, bm, rm)
            back = pi_profile(rcc, range(k))
            if back.sorted_items() != profile.sorted_items():
                document = _document(_instance(refinement, bm, rm))
                result.counterexample = (
                    f"realize round trip failed for k={k}, p={p}, {profile} on {document}"
                )
                return result
    return result


def _admissible_profiles(k: int, p: int) -> list[PiProfile]:
    """One profile per cycle type of the p+1 subintervals: fewest 1-cycles first, then 2-cycles, ..."""
    return [
        PiProfile(k=k, p=p, pi={l: l * lam.count(l) for l in sorted(set(lam))})
        for lam in sorted(integer_partitions(p + 1), key=lambda lam: [lam.count(l) for l in range(1, p + 2)])
    ]


def run_selftest(seed: int, iterations: int = 1000) -> list[SuiteResult]:
    scale = max(1, iterations)
    shapes: dict = {}  # one table of shapes for the whole run
    return [
        suite_sep_oracle(seed, scale, shapes),
        suite_action_laws(seed + 1, max(50, scale // 3), shapes),
        suite_algebra_laws(seed + 2, max(50, scale // 2), shapes),
        suite_commutant_commutes(seed + 3, max(50, scale // 2), shapes),
        suite_noncommuting_witness(seed + 4, max(50, scale // 2), shapes),
        suite_refinement_monotone(seed + 5, max(40, scale // 3), shapes),
        suite_enumeration(seed + 6, max(10, scale // 25), shapes),
        suite_profiles(seed + 7, max(10, scale // 25), shapes),
    ]
