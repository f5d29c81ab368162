"""Coefficient vectors, twisted convolution, rank, and strong grading."""
import copy
import math
import operator
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import crossed_commutant.crossed as crossed
from crossed_commutant import (
    CoefficientVector,
    CommutantDescription,
    PieceMap,
    SubalgebraView,
    brute_force_sep,
    build_abstract_partition,
    build_real_line_partition,
    commutant_description,
    crossed_element,
    indicator_element,
    is_strongly_graded,
    monomial,
    multiply,
    rational_rank,
    sep_set,
    sigma_tilde_pow,
)
from crossed_commutant.crossed import GradingResult
from crossed_commutant.dynamics import perm_power
from crossed_commutant.errors import PartitionMismatch
from crossed_commutant.selftest import random_instance


def swap_map():
    part = build_real_line_partition(["0", "1"])
    return part, PieceMap(part, (1, 0, 2, 4, 3))


def test_vector_arithmetic_is_pointwise():
    a = CoefficientVector(("1/2", 1, 0))
    b = CoefficientVector((1, "1/3", 2))
    assert (a + b).values == (Fraction(3, 2), Fraction(4, 3), Fraction(2))
    assert (a - b).values == (Fraction(-1, 2), Fraction(2, 3), Fraction(-2))
    assert (a * b).values == (Fraction(1, 2), Fraction(1, 3), Fraction(0))
    assert a.scale("2/3").values == (Fraction(1, 3), Fraction(2, 3), Fraction(0))
    assert a.support() == frozenset({0, 1})


def test_vector_length_mismatch_raises():
    with pytest.raises(PartitionMismatch):
        CoefficientVector((1, 0)) + CoefficientVector((1, 0, 0))


def test_indicator_and_zeros():
    v = CoefficientVector.indicator(4, (1, 3))
    assert v.values == (0, 1, 0, 1)
    assert CoefficientVector((0, 0, 0)).is_zero()
    assert not CoefficientVector((1, 1, 1)).is_zero()


def test_crossed_element_normal_form_prunes_zeros():
    e = crossed_element({2: [0, 0, 0], 0: [1, 0, 0], -1: [0, "1/2", 0]})
    assert e.degrees() == (-1, 0)
    assert e.term(2) is None
    assert e.term(0).values == (1, 0, 0)
    assert crossed_element({}).is_zero()
    assert crossed_element({3: [0, 0]}).is_zero()


def test_crossed_element_rejects_mixed_sizes():
    with pytest.raises(PartitionMismatch):
        crossed_element({0: [1, 0], 1: [1, 0, 0]})


def test_crossed_element_names_the_mixed_vector_lengths():
    with pytest.raises(PartitionMismatch, match=re.escape("terms have mixed vector lengths: [1, 2]")):
        crossed_element({0: ["1"], 1: ["1", "2"]})


@pytest.mark.parametrize(
    "values, message",
    [([0.5], "floats are not exact"), (["1", [2]], "cannot interpret [2]")],
    ids=["float", "uncoercible"],
)
def test_vector_rejects_inexact_and_uncoercible_values(values, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        CoefficientVector(values)
    with pytest.raises(TypeError, match=re.escape(message)):
        crossed_element({0: values})


def test_element_addition_merges_degrees():
    a = monomial([1, 0], 1)
    b = monomial([0, 1], 1)
    c = monomial([2, 2], -1)
    s = a + b + c
    assert s.degrees() == (-1, 1)
    assert s.term(1).values == (1, 1)
    assert (s - s).is_zero()
    assert s.scale(0).is_zero()


def test_sigma_tilde_moves_along_the_inverse_orbit():
    part, pm = swap_map()
    f = CoefficientVector((1, 2, 3, 4, 5))
    assert sigma_tilde_pow(f, pm, 1).values == (2, 1, 3, 5, 4)
    assert sigma_tilde_pow(f, pm, 2) == f
    assert sigma_tilde_pow(f, pm, -1) == sigma_tilde_pow(f, pm, 1)
    assert sigma_tilde_pow(f, pm, 0) == f


def test_sigma_tilde_indicator_follows_the_map():
    part, pm = swap_map()
    chi = CoefficientVector.indicator(5, (1,))
    # the indicator of a piece is carried to the indicator of its image
    assert sigma_tilde_pow(chi, pm, 1) == CoefficientVector.indicator(5, (0,))


def _step(values, perm, sign):
    # one application of the map (sign 1) or of its inverse (sign -1)
    if sign > 0:
        out = [None] * len(values)
        for q, img in enumerate(perm):
            out[img] = values[q]
        return tuple(out)
    return tuple(values[img] for img in perm)


def _seeded_maps(count, seed=1105):
    rng = random.Random(seed)
    yield PieceMap.identity(build_abstract_partition(1))
    yield PieceMap.identity(build_abstract_partition(6))
    for _ in range(count - 2):
        size = rng.randint(1, 9)
        perm = list(range(size))
        rng.shuffle(perm)
        yield PieceMap(build_abstract_partition(size), tuple(perm))


def test_transport_matches_repeated_single_steps_on_seeded_maps():
    rng = random.Random(7)
    for pm in _seeded_maps(300):
        size = pm.size
        f = CoefficientVector(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(size))
        )
        # the period is the first return of the labels under single steps
        labels, L = _step(tuple(range(size)), pm.perm, 1), 1
        while labels != tuple(range(size)):
            labels, L = _step(labels, pm.perm, 1), L + 1
        assert pm.period == L
        for sign in (1, -1):
            want = f.values
            for k in range(3 * L + 1):
                assert sigma_tilde_pow(f, pm, sign * k).values == want
                want = _step(want, pm.perm, sign)
        assert len(pm._memo) == L


def _dense_literal_sep(view, perm, degrees):
    """Per degree, the separation set from dense indicators moved one step at a time."""
    size = len(perm)
    found = {n: set() for n in degrees}
    for q in range(view.sub.piece_count):
        h = tuple(Fraction(int(view.embed[p] == q)) for p in range(size))
        for sign in (1, -1):
            moved = h
            for k in range(max(abs(n) for n in degrees) + 1):
                if sign * k in found:
                    found[sign * k].update(p for p in range(size) if h[p] != moved[p])
                moved = _step(moved, perm, sign)
    return found


def test_sparse_oracle_equals_a_dense_literal_oracle():
    rng = random.Random(1811)
    degrees = range(-12, 13)
    for _ in range(200):
        inst = random_instance(rng)
        views = [SubalgebraView.identity(inst.refinement.refined)]
        if inst.refined:
            views.append(SubalgebraView.of_refinement(inst.refinement))
        pm = inst.refined_map
        for view in views:
            dense = _dense_literal_sep(view, pm.perm, degrees)
            for n in degrees:
                assert brute_force_sep(view, pm, n) == dense[n] == sep_set(view, pm, n)


def test_transport_memo_reuses_residues_and_stays_out_of_copies(monkeypatch):
    calls = []
    real = crossed.perm_power
    monkeypatch.setattr(crossed, "perm_power", lambda perm, n: calls.append(n) or real(perm, n))
    pm = PieceMap(build_abstract_partition(5), (1, 2, 0, 4, 3))
    f = CoefficientVector((1, 2, 3, 4, 5))
    moved = sigma_tilde_pow(f, pm, 2)
    assert len(calls) == 1
    for n in (2 + 6, 2 - 6, 2 + 60):
        assert sigma_tilde_pow(f, pm, n) == moved
    assert len(calls) == 1 and len(pm._memo) == 1
    for twin in (pickle.loads(pickle.dumps(pm)), copy.deepcopy(pm)):
        assert twin == pm
        assert "_memo" not in vars(twin)
        assert sigma_tilde_pow(f, twin, 2) == moved
    assert len(calls) == 3


def test_coefficients_are_coerced_only_when_not_fractions(monkeypatch):
    mixed = CoefficientVector((Fraction(1, 2), 1, "1/3"))
    assert mixed.values == (Fraction(1, 2), Fraction(1), Fraction(1, 3))
    assert {type(v) for v in mixed.values} == {Fraction}
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            CoefficientVector((Fraction(1), bad))
    with pytest.raises(ValueError):
        CoefficientVector((Fraction(1), "1e5000"))

    class Half(Fraction):
        pass

    half = Half(1, 2)
    assert CoefficientVector((Fraction(1), half)).values[1] == half
    assert crossed.as_fraction(half) is half

    calls = []
    real = crossed.as_fraction
    monkeypatch.setattr(crossed, "as_fraction", lambda v: calls.append(v) or real(v))
    CoefficientVector((1, 0))
    assert len(calls) == 2
    calls.clear()
    pm = PieceMap(build_abstract_partition(3), (1, 2, 0))
    f = crossed_element({n: [Fraction(n), Fraction(1, 2), Fraction(-1)] for n in (-1, 0, 2)})
    g = crossed_element({n: [Fraction(2), Fraction(n), Fraction(1, 3)] for n in (0, 1, 3)})
    assert not multiply(f, g, pm).is_zero()
    assert calls == []


_ZERO_SPELLINGS = (Fraction(0, 7), 0, "0/3")


def _sparse_values(rng, size):
    # mostly zeros, each spelled one of three ways, the rest small rationals
    return [
        rng.choice(_ZERO_SPELLINGS)
        if rng.random() < 0.6
        else Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        for _ in range(size)
    ]


def _dense_multiply(f, g, perm):
    """Twisted convolution entry by entry, every zero multiplied and added."""
    size = len(perm)
    acc = {}
    for n, fn in f.items():
        for m, gm in g.items():
            moved = [Fraction(v) for v in gm]
            for _ in range(abs(n)):
                moved = list(_step(moved, perm, 1 if n > 0 else -1))
            row = acc.setdefault(n + m, [Fraction(0)] * size)
            for p in range(size):
                row[p] += Fraction(fn[p]) * moved[p]
    return {d: tuple(row) for d, row in sorted(acc.items()) if any(v != 0 for v in row)}


def test_zero_skipping_operations_equal_the_dense_reference():
    rng = random.Random(2911)
    for pm in _seeded_maps(60, seed=2911):
        size = pm.size
        raw_a, raw_b = _sparse_values(rng, size), _sparse_values(rng, size)
        if rng.random() < 0.2:
            raw_a = [rng.choice(_ZERO_SPELLINGS) for _ in range(size)]
        a, b = CoefficientVector(tuple(raw_a)), CoefficientVector(tuple(raw_b))
        da, db = [Fraction(v) for v in raw_a], [Fraction(v) for v in raw_b]
        c = rng.choice(_ZERO_SPELLINGS + ("3/2",))
        pieces = rng.sample(range(size), rng.randint(0, size))
        results = [
            (a * b, [x * y for x, y in zip(da, db)]),
            (a + b, [x + y for x, y in zip(da, db)]),
            (a - b, [x - y for x, y in zip(da, db)]),
            (a.scale(c), [Fraction(c) * x for x in da]),
            (
                CoefficientVector.indicator(size, pieces),
                [Fraction(int(i in pieces)) for i in range(size)],
            ),
        ]
        for vec, want in results:
            assert vec.values == tuple(want)
            assert all(type(v) is Fraction for v in vec.values)
            assert vec.support() == frozenset(i for i, v in enumerate(want) if v != 0)
            assert vec.is_zero() == all(v == 0 for v in want)
        f = {n: _sparse_values(rng, size) for n in rng.sample(range(-4, 5), rng.randint(1, 3))}
        g = {n: _sparse_values(rng, size) for n in rng.sample(range(-4, 5), rng.randint(1, 3))}
        product = multiply(crossed_element(f), crossed_element(g), pm)
        assert {n: vec.values for n, vec in product.terms} == _dense_multiply(f, g, pm.perm)
        assert all(type(v) is Fraction for _, vec in product.terms for v in vec.values)


def test_indicator_rejects_pieces_outside_the_partition():
    for bad in (-1, 3):
        with pytest.raises(ValueError):
            CoefficientVector.indicator(3, (0, bad))


@pytest.mark.parametrize("bad", [True, 1.0, "1", -1, 3])
def test_indicator_refuses_piece_ids_that_are_not_int(bad):
    with pytest.raises(ValueError, match=re.escape(f"piece {bad!r} is not among the 3 pieces")):
        CoefficientVector.indicator(3, [bad])


@pytest.mark.parametrize("size, error", [(-1, ValueError), (2.5, TypeError), (True, TypeError), ("3", TypeError)])
def test_indicators_refuse_sizes_that_are_not_nonnegative_ints(size, error):
    message = re.escape(f"size {size!r} is not an int >= 0")
    for build in (lambda: CoefficientVector.indicator(size, []), lambda: indicator_element(size, [], 0)):
        with pytest.raises(error, match=message):
            build()
    assert len(CoefficientVector.indicator(0, [])) == 0 and CoefficientVector.indicator(0, []).values == ()


@pytest.mark.parametrize("degree", [2.5, 2.0, True, "3", Fraction(2)])
def test_crossed_element_refuses_degrees_that_are_not_int(degree):
    message = re.escape(f"degree {degree!r} is not an int")
    for build in (
        lambda: crossed_element({degree: [1, 0]}),
        lambda: monomial([1, 0], degree),
        lambda: indicator_element(2, (0,), degree),
    ):
        with pytest.raises(TypeError, match=message):
            build()


def test_cancellation_stores_no_zero():
    a = CoefficientVector(("1/2", 0, -3, 0))
    disjoint = CoefficientVector((0, 7, 0, "2/5"))
    for vec in (a + a.scale(-1), a - a, a.scale(0), a * disjoint, (a + disjoint) - disjoint - a):
        assert vec.is_zero() and vec.support() == frozenset() and vec.entries == {}
        assert vec.values == (0, 0, 0, 0)
        assert crossed_element({1: vec, 2: a}).degrees() == (2,)
    assert (a + disjoint - a).entries == disjoint.entries


def test_equal_vectors_built_two_ways_are_equal_and_hash_alike():
    a, b = CoefficientVector((0, 1, 0, "1/2")), CoefficientVector.indicator(4, (3, 1))
    pairs = [
        (a, b.scale("1/2") + CoefficientVector.indicator(4, (1,)).scale("1/2")),
        (a + b, b + a),
        (b, CoefficientVector((0, 1, 0, 1))),
        (a * b, CoefficientVector.indicator(4, (1,)) + CoefficientVector((0, 0, 0, "1/2"))),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        ex, ey = crossed_element({-1: x, 2: b}), crossed_element({2: b, -1: y})
        assert ex == ey and hash(ex) == hash(ey)
    assert a != b and CoefficientVector((1, 0)) != CoefficientVector((1, 0, 0))


def test_vectors_keep_value_semantics_through_copies():
    a = CoefficientVector(("1/2", 0, -3))
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)
        assert twin.values == a.values and len(twin) == 3
    assert "size=3" in repr(a) and "Fraction(-3, 1)" in repr(a)


def test_values_is_a_dense_tuple_of_fractions():
    vectors = (CoefficientVector((0, "1/2", 0)), CoefficientVector.indicator(5, (4, 0)), CoefficientVector(()))
    for vec in vectors:
        assert type(vec.values) is tuple and len(vec.values) == vec.size == len(vec)
        assert all(type(v) is Fraction for v in vec.values)
        assert {i for i, v in enumerate(vec.values) if v} == vec.support()


def test_operations_cost_the_support_not_the_size():
    size = 10**6  # a dense tuple of this many entries alone takes 8 MB
    tracemalloc.start()
    try:
        a = CoefficientVector.indicator(size, (17,)).scale("3/2")
        b = CoefficientVector.indicator(size, (size - 1,))
        results = [a * b, a + b, a - b, b - a, a.scale(-2), a * a]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [len(r.entries) for r in results] == [0, 2, 2, 2, 1, 1]
    assert results[3].entries == {17: Fraction(-3, 2), size - 1: Fraction(1)}


def test_twisted_product_of_indicators():
    part, pm = swap_map()
    f = indicator_element(5, (0,), 1)
    g = indicator_element(5, (1,), 1)
    fg = multiply(f, g, pm)
    gf = multiply(g, f, pm)
    assert fg == indicator_element(5, (0,), 2)
    assert gf == indicator_element(5, (1,), 2)
    assert fg != gf


def test_unit_element_is_neutral():
    part, pm = swap_map()
    unit = monomial(CoefficientVector((1,) * 5), 0)
    rng = random.Random(5)
    for _ in range(20):
        terms = {
            n: [Fraction(rng.randint(-3, 3)) for _ in range(5)]
            for n in rng.sample(range(-4, 5), 2)
        }
        e = crossed_element(terms)
        assert multiply(unit, e, pm) == e
        assert multiply(e, unit, pm) == e


def test_degree_zero_multiplication_is_pointwise():
    part, pm = swap_map()
    a = monomial([1, 2, 3, 4, 5], 0)
    b = monomial([5, 4, 3, 2, 1], 0)
    assert multiply(a, b, pm) == monomial([5, 8, 9, 8, 5], 0)


def test_degrees_add_under_multiplication():
    part, pm = swap_map()
    a = monomial([1, 1, 1, 1, 1], 2)
    b = monomial([1, 1, 1, 1, 1], -3)
    assert multiply(a, b, pm).degrees() == (-1,)


def test_associativity_seeded():
    part, pm = swap_map()
    rng = random.Random(6)
    for _ in range(60):
        elems = []
        for _ in range(3):
            terms = {
                n: [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(5)]
                for n in rng.sample(range(-3, 4), 2)
            }
            elems.append(crossed_element(terms))
        f, g, h = elems
        assert multiply(multiply(f, g, pm), h, pm) == multiply(f, multiply(g, h, pm), pm)


def _assert_normal_form(elem, size):
    degrees = elem.degrees()
    assert list(degrees) == sorted(set(degrees))
    assert all(type(n) is int and vec.size == size and vec.entries for n, vec in elem.terms)


def test_trusted_products_and_scales_equal_the_checked_constructor():
    rng = random.Random(3301)
    cancelled = 0
    for i, pm in enumerate(_seeded_maps(300, seed=3301)):
        size = pm.size

        def element():
            degrees = rng.sample(range(-3, 4), rng.randint(0, 3))
            return crossed_element({n: _sparse_values(rng, size) for n in degrees})

        f, g = element(), element()
        if i % 3 == 0:
            # the degree-1 contributions a*c and sigma(d) cancel: f = a + t, g = c*t + d
            a, c = CoefficientVector(_sparse_values(rng, size)), CoefficientVector(_sparse_values(rng, size))
            d = sigma_tilde_pow((a * c).scale(-1), pm, -1)
            f = crossed_element({0: a, 1: CoefficientVector.indicator(size, range(size))})
            g = crossed_element({1: c, 0: d})
        acc = {}
        for n, fn in f.terms:
            for m, gm in g.terms:
                row = acc.setdefault(n + m, [Fraction(0)] * size)
                for p, (x, y) in enumerate(zip(fn.values, sigma_tilde_pow(gm, pm, n).values)):
                    row[p] += x * y
        cancelled += any(not any(row) for row in acc.values())
        product = multiply(f, g, pm)
        assert product == crossed_element(acc)
        _assert_normal_form(product, size)
        for c in (0, -1, Fraction(2, 3)):
            scaled = f.scale(c)
            assert scaled == crossed_element({n: [c * v for v in vec.values] for n, vec in f.terms})
            _assert_normal_form(scaled, size)
    assert cancelled >= 100


def test_trusted_sums_equal_the_checked_constructor():
    """``f + g`` against a reference summed entry by entry and built by ``crossed_element``."""
    rng = random.Random(3001)
    cases = {"disjoint": 0, "cancels in a degree": 0, "cancels everywhere": 0, "zero operand": 0}
    for i in range(300):
        size = rng.randint(1, 9)

        def element():
            degrees = rng.sample(range(-3, 4), rng.randint(0, 3))
            return crossed_element({n: _sparse_values(rng, size) for n in degrees})

        f, g = element(), element()
        if i % 5 == 1:
            g = f.scale(-1)
        elif i % 5 == 2 and f.terms:
            n, vec = f.terms[0]
            g = g + crossed_element({n: vec.scale(-1)}) if n not in g.degrees() else f.scale(-1)
        elif i % 5 == 3:
            g = crossed_element({n: _sparse_values(rng, size) for n in range(4, 4 + rng.randint(1, 2))})
        a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 2)), Fraction(rng.randint(-3, 3), 3)
        for x, y in ((f, g), (g, f), (f.scale(a), g.scale(b))):
            acc = {}
            for elem in (x, y):
                for n, vec in elem.terms:
                    row = acc.setdefault(n, [Fraction(0)] * size)
                    for p, v in enumerate(vec.values):
                        row[p] += v
            total = x + y
            assert total == crossed_element(acc)
            _assert_normal_form(total, size)
            cases["disjoint"] += bool(x.terms and y.terms) and not set(x.degrees()) & set(y.degrees())
            cases["cancels in a degree"] += any(not any(row) for row in acc.values()) and bool(total.terms)
            cases["cancels everywhere"] += bool(acc) and not total.terms
            cases["zero operand"] += not (x.terms and y.terms)
    assert min(cases.values()) >= 30, cases


_SUM_OF_MIXED_LENGTHS = """
from crossed_commutant import monomial
from crossed_commutant.errors import PartitionMismatch
try:
    monomial([1, 2], 0) + monomial([1, 2, 3], 5)
except PartitionMismatch as exc:
    print(exc)
"""


def test_element_sums_name_both_lengths_also_under_python_O():
    small, wide = monomial([1, 2], 0), monomial([1, 2, 3], 5)
    with pytest.raises(PartitionMismatch, match=re.escape("elements of vector length 2 and 3")):
        small + wide
    assert small + crossed_element({}) == small == crossed_element({}) + small
    src = os.path.join(os.path.dirname(crossed.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-O", "-c", _SUM_OF_MIXED_LENGTHS], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.stdout == "elements of vector length 2 and 3\n", run.stderr


def test_public_element_paths_still_check_sizes():
    part, pm = swap_map()
    small, wide = monomial([1, 2], 0), monomial([1, 2, 3, 4, 5], 1)
    for f, g in ((small, wide), (wide, small), (small, small)):
        with pytest.raises(PartitionMismatch):
            multiply(f, g, pm)
    # disjoint degrees never meet in a vector sum, so only the element check sees the sizes
    for f, g in ((small, wide), (wide, small)):
        with pytest.raises(PartitionMismatch):
            f + g


def test_products_and_transports_share_one_power_per_map_and_residue(monkeypatch):
    calls = []
    real = crossed.perm_power
    monkeypatch.setattr(
        crossed, "perm_power", lambda perm, n: calls.append((id(perm), n)) or real(perm, n)
    )
    rng = random.Random(2411)
    maps = list(_seeded_maps(120, seed=2411))
    for pm in maps:
        size, asked = pm.size, set()

        def element():
            degrees = rng.sample(range(-9, 10), rng.randint(0, 3))
            return crossed_element({n: _sparse_values(rng, size) for n in degrees})

        for _ in range(4):
            f, g, n = element(), element(), rng.randint(-9, 9)
            product = multiply(f, g, pm)
            _assert_normal_form(product, size)
            sigma_tilde_pow(CoefficientVector(_sparse_values(rng, size)), pm, n)
            asked |= {d % pm.period for d in (*f.degrees(), n)}
        assert {k for i, k in calls if i == id(pm.perm)} <= asked
    # each (map, residue) is computed at most once, by whichever of the two asks first
    assert len(calls) == len(set(calls))
    # a zero factor gives the zero element, on either side
    part, pm = swap_map()
    zero, f = crossed_element({}), monomial([1, 2, 0, 0, 3], 2)
    assert multiply(zero, f, pm) == multiply(f, zero, pm) == multiply(zero, zero, pm) == zero
    # f = a*e_p + a*e_p t and g = b*e_r - b*e_p t, with r -> p and p moved: degree 1
    # cancels, and degrees 0 and 2 have disjoint supports, so every degree is zero
    cancelled = 0
    for pm in maps:
        moved = [p for p in range(pm.size) if pm.perm[p] != p]
        if not moved:
            continue
        p = rng.choice(moved)
        r = pm.perm.index(p)
        a, b = (Fraction(rng.choice((-3, -1, 2)), rng.randint(1, 4)) for _ in range(2))
        f = crossed_element({0: CoefficientVector.indicator(pm.size, [p]).scale(a),
                             1: CoefficientVector.indicator(pm.size, [p]).scale(a)})
        g = crossed_element({0: CoefficientVector.indicator(pm.size, [r]).scale(b),
                             1: CoefficientVector.indicator(pm.size, [p]).scale(-b)})
        product = multiply(f, g, pm)
        assert product.is_zero() and product == zero
        cancelled += 1
    assert cancelled >= 80


def test_indicator_element_checks_its_degree_and_pieces():
    for degree in (True, 1.0, "1", None, Fraction(1)):
        with pytest.raises(TypeError):
            indicator_element(3, [0], degree)
    for pieces in ([3], [-1], [0, 5], ["0"], [True]):
        with pytest.raises(ValueError):
            indicator_element(3, pieces, 1)
    rng = random.Random(2412)
    for _ in range(300):
        size = rng.randint(1, 9)
        pieces = rng.sample(range(size), rng.randint(0, size))
        degree = rng.randint(-5, 5)
        elem = indicator_element(size, pieces, degree)
        assert elem == crossed_element({degree: CoefficientVector.indicator(size, pieces)})
        _assert_normal_form(elem, size)


def test_rational_rank_exact():
    assert rational_rank([]) == 0
    assert rational_rank([[Fraction(0), Fraction(0)]]) == 0
    assert rational_rank([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 2
    assert rational_rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(2)]]
    assert rational_rank(rows) == 1


def test_swap_instance_is_not_strongly_graded():
    part, pm = swap_map()
    desc = commutant_description(SubalgebraView.identity(part), pm)
    res = is_strongly_graded(desc, pm)
    assert not res.strongly_graded
    assert res.witness == (1, 1)
    assert "rank 1" in res.detail and "dimension 5" in res.detail


def test_identity_instance_is_strongly_graded():
    part = build_real_line_partition(["0", "1"])
    pm = PieceMap.identity(part)
    desc = commutant_description(SubalgebraView.identity(part), pm)
    res = is_strongly_graded(desc, pm)
    assert res.strongly_graded
    assert res.witness is None


def _scan_order(window):
    """Degree pairs by radius, each radius in the order 0, 1, -1, 2, -2, ..."""
    order = [0]
    for i in range(1, window + 1):
        order.extend((i, -i))
    for radius in range(window + 1):
        for n in order:
            for m in order:
                if max(abs(n), abs(m)) == radius:
                    yield n, m


def _rank_oracle(description, piece_map, window, products):
    """The grading check done the long way.

    Every product of a basis monomial of degree n with one of degree m is a
    row, and ``rational_rank`` measures their span.  ``products`` caches the
    products of one piece map, so that views share them.
    """
    size = piece_map.size

    def product(p, n, q, m):
        key = (p, n, q, m)
        if key not in products:
            left = indicator_element(size, (p,), n)
            right = indicator_element(size, (q,), m)
            products[key] = multiply(left, right, piece_map).term(n + m)
        return products[key]

    for n, m in _scan_order(window):
        target = description.allowed(n + m)
        rows = []
        for p in sorted(description.allowed(n)):
            for q in sorted(description.allowed(m)):
                vec = product(p, n, q, m)
                if vec is None:
                    continue
                if not vec.support() <= target:
                    raise AssertionError("product of commutant components left the commutant")
                rows.append(vec.values)
        rank = rational_rank(rows)
        if rank < len(target):
            detail = (
                f"products from degrees {n} and {m} span rank {rank} "
                f"inside a component of dimension {len(target)}"
            )
            return GradingResult(False, (n, m), detail)
    return GradingResult(True, None, "every degree pair has full product span")


def _outcome(check, *args):
    try:
        return check(*args)
    except AssertionError as exc:
        return f"AssertionError: {exc}"


def _assert_matches_oracle(description, piece_map, products):
    """The verdict equals the rank oracle at window 3, and so at windows 1 and 2.

    The oracle scans degree pairs by radius, so its scans at windows 1 and 2
    are prefixes of its scan at window 3, and a verdict's witness always has
    radius 1.  An oracle that agrees at window 3 either found no short pair
    up to radius 3, so none in the shorter prefixes, or stopped at the
    verdict's witness, which both prefixes reach before any other short pair.
    """
    expected = _outcome(_rank_oracle, description, piece_map, 3, products)
    assert _outcome(is_strongly_graded, description, piece_map) == expected


def _is_union_of_orbits(pieces, piece_map):
    return all(piece_map.perm[p] in pieces for p in pieces)


def test_grading_matches_the_rank_oracle_on_seeded_instances():
    rng = random.Random(3109)
    verdicts = set()
    for _ in range(1000):
        instance = random_instance(rng, max_pieces=15)
        piece_map = instance.refined_map
        views = [SubalgebraView.identity(instance.refinement.refined)]
        if instance.refined:
            views.append(SubalgebraView.of_refinement(instance.refinement))
        products = {}
        for view in views:
            description = commutant_description(view, piece_map)
            _assert_matches_oracle(description, piece_map, products)
            verdicts.add(is_strongly_graded(description, piece_map).strongly_graded)
    assert verdicts == {True, False}


def test_grading_matches_the_rank_oracle_on_hand_built_descriptions():
    rng = random.Random(3110)
    orbit_unions = with_longer_periods = refused = 0
    for _ in range(300):
        instance = random_instance(rng)
        piece_map = instance.refined_map
        view = SubalgebraView.identity(instance.refinement.refined)
        grouped = {}
        for p in range(piece_map.size):
            k = rng.choice((None, 1, 1, 2, 3, 4))
            if k is not None:
                grouped.setdefault(k, set()).add(p)
        class_pieces = {k: frozenset(v) for k, v in grouped.items()}
        description = CommutantDescription(view=view, class_pieces=class_pieces)
        if all(_is_union_of_orbits(v, piece_map) for v in class_pieces.values()):
            orbit_unions += 1
            with_longer_periods += max(class_pieces, default=1) >= 2
            _assert_matches_oracle(description, piece_map, {})
        else:
            refused += 1
            with pytest.raises(ValueError, match="unions of orbits"):
                is_strongly_graded(description, piece_map)
    assert (orbit_unions, with_longer_periods, refused) == (79, 56, 221)


@pytest.mark.parametrize("jump_points", [1, 3])
def test_grading_takes_one_product_at_the_witness(monkeypatch, jump_points):
    calls = {"multiply": 0, "rational_rank": 0}

    def counted(name):
        original = getattr(crossed, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(crossed, "multiply", counted("multiply"))
    monkeypatch.setattr(crossed, "rational_rank", counted("rational_rank"))
    part = build_real_line_partition([str(t) for t in range(jump_points)])
    pm = PieceMap.identity(part)
    description = commutant_description(SubalgebraView.identity(part), pm)
    assert is_strongly_graded(description, pm).strongly_graded
    assert calls == {"multiply": 0, "rational_rank": 0}
    part, pm = swap_map()
    description = commutant_description(SubalgebraView.identity(part), pm)
    assert not is_strongly_graded(description, pm).strongly_graded
    assert calls == {"multiply": 1, "rational_rank": 0}


# ---------------------------------------------------------------------------
# the numerator form against Fraction-dict arithmetic, the form vectors had before


def _ref_merge(a, b, op):
    out = dict(a)
    for i, y in b.items():
        v = op(out.get(i, Fraction(0)), y)
        if v:
            out[i] = v
        else:
            del out[i]
    return out


def _ref_scale(a, c):
    return {i: c * v for i, v in a.items()} if c else {}


def _ref_multiply(f, g, pm):
    """The fused twisted product on degree -> {piece: Fraction} dicts."""
    acc = {}
    for n, fn in f.items():
        forward = perm_power(pm.perm, n % pm.period)
        for m, gm in g.items():
            out = acc.setdefault(n + m, {})
            for i, v in gm.items():
                j = forward[i]
                if j in fn:
                    w = fn[j] * v + out.get(j, 0)
                    if w:
                        out[j] = w
                    else:
                        out.pop(j)
    return {d: e for d, e in acc.items() if e}


_BIG_PRIMES = (999983, 2**61 - 1)


def _draw_values(rng, size):
    """Dense values: small ones as the self-test draws them, or over large coprime denominators."""
    if rng.random() < 0.6:
        return [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.7 else Fraction(0)
                for _ in range(size)]
    return [Fraction(rng.randint(-10**6, 10**6), rng.choice(_BIG_PRIMES + (1, 6))) if rng.random() < 0.7
            else Fraction(0) for _ in range(size)]


def _check_vector(vec, want, size):
    """``vec`` holds the values of ``want`` in reduced form and reads them back alike."""
    assert vec.size == size and type(vec.den) is int and vec.den >= 1
    assert all(type(v) is int and v for v in vec.nums.values())
    assert math.gcd(vec.den, *vec.nums.values()) == 1
    assert vec.entries == want and vec.support() == frozenset(want)
    assert vec.values == tuple(want.get(i, Fraction(0)) for i in range(size))
    assert repr(vec) == f"CoefficientVector(size={size}, entries={want!r})"
    rebuilt = CoefficientVector(vec.values)
    assert rebuilt == vec and hash(rebuilt) == hash(vec) and rebuilt.nums == vec.nums


def test_numerator_form_equals_fraction_dict_arithmetic():
    rng = random.Random(2801)
    scalars = (0, -1, Fraction(2, 3), Fraction(10**12, 7))
    kinds = set()
    for pm in _seeded_maps(160, seed=2801):
        size = pm.size
        raw_a, raw_b = _draw_values(rng, size), _draw_values(rng, size)
        kind = rng.randrange(3)
        if kind == 1:  # the sum cancels everywhere
            raw_b = [-v for v in raw_a]
        elif kind == 2:  # the product is zero: disjoint supports
            raw_b = [Fraction(0) if v else w for v, w in zip(raw_a, raw_b)]
        a, b = CoefficientVector(raw_a), CoefficientVector(raw_b)
        ra = {i: v for i, v in enumerate(raw_a) if v}
        rb = {i: v for i, v in enumerate(raw_b) if v}
        results = [
            (a, ra), (b, rb),
            (a + b, _ref_merge(ra, rb, operator.add)),
            (a - b, _ref_merge(ra, rb, operator.sub)),
            (a * b, {i: v * rb[i] for i, v in ra.items() if i in rb}),
        ]
        results += [(a.scale(c), _ref_scale(ra, Fraction(c))) for c in scalars]
        for n in (-3, 1, 5):
            forward = perm_power(pm.perm, n % pm.period)
            results.append((sigma_tilde_pow(b, pm, n), {forward[i]: v for i, v in rb.items()}))
        for vec, want in results:
            _check_vector(vec, want, size)
        kinds.add((kind, (a + b).is_zero(), (a * b).is_zero()))
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)
        assert a.scale(Fraction(2, 3)).scale(Fraction(3, 2)) == a

        f = {n: _draw_values(rng, size) for n in rng.sample(range(-3, 4), rng.randint(1, 3))}
        g = {n: _draw_values(rng, size) for n in rng.sample(range(-3, 4), rng.randint(1, 3))}
        if kind == 1:
            # f = a + t, g = c*t + d with d = -sigma^-1(a*c): degree 1 cancels
            c = CoefficientVector(raw_b)
            d = sigma_tilde_pow((a * c).scale(-1), pm, -1)
            f, g = {0: raw_a, 1: [Fraction(1)] * size}, {1: raw_b, 0: list(d.values)}
        # by ascending degree, the order in which products meet, so entries meet in one order too
        rf = {n: {i: v for i, v in enumerate(vals) if v} for n, vals in sorted(f.items())}
        rg = {n: {i: v for i, v in enumerate(vals) if v} for n, vals in sorted(g.items())}
        ef, eg = crossed_element(f), crossed_element(g)
        elements = [(multiply(ef, eg, pm), _ref_multiply(rf, rg, pm))]
        merged = {n: _ref_merge(rf.get(n, {}), rg.get(n, {}), operator.add) for n in {*rf, *rg}}
        elements.append((ef + eg, merged))
        elements += [(ef.scale(c), {n: _ref_scale(e, Fraction(c)) for n, e in rf.items()}) for c in scalars]
        for elem, want in elements:
            want = {n: e for n, e in sorted(want.items()) if e}
            assert elem.degrees() == tuple(want)
            for n, vec in elem.terms:
                _check_vector(vec, want[n], size)
        if kind == 1:
            assert 1 not in multiply(ef, eg, pm).degrees()
    assert {k for k, _, _ in kinds} == {0, 1, 2}
    assert any(summed for k, summed, _ in kinds if k == 1) and any(p for k, _, p in kinds if k == 2)
