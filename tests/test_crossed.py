"""Coefficient vectors, twisted convolution, rank, and strong grading."""
import random
from fractions import Fraction

import pytest

import crossed_commutant.crossed as crossed
from crossed_commutant import (
    CoefficientVector,
    CommutantDescription,
    CrossedElement,
    PieceMap,
    SubalgebraView,
    build_real_line_partition,
    commutant_description,
    crossed_element,
    indicator_element,
    is_strongly_graded,
    monomial,
    multiply,
    rational_rank,
    sigma_tilde_pow,
)
from crossed_commutant.crossed import GradingResult
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
    assert CoefficientVector.zeros(3).is_zero()
    assert not CoefficientVector.ones(3).is_zero()


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


def test_element_addition_merges_degrees():
    a = monomial([1, 0], 1)
    b = monomial([0, 1], 1)
    c = monomial([2, 2], -1)
    s = a + b + c
    assert s.degrees() == (-1, 1)
    assert s.term(1).values == (1, 1)
    assert (s - s).is_zero()
    assert s.scale(0).is_zero()


def test_json_round_trip():
    e = crossed_element({1: ["1/2", 0, 1], -2: [1, 0, 0]})
    data = e.to_json()
    assert data == {"terms": {"-2": ["1", "0", "0"], "1": ["1/2", "0", "1"]}}
    assert CrossedElement.from_json(data) == e


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
    unit = monomial(CoefficientVector.ones(5), 0)
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
    res = is_strongly_graded(desc, pm, 2)
    assert not res.strongly_graded
    assert res.witness == (1, 1)
    assert "rank 1" in res.detail and "dimension 5" in res.detail


def test_identity_instance_is_strongly_graded():
    part = build_real_line_partition(["0", "1"])
    pm = PieceMap.identity(part)
    desc = commutant_description(SubalgebraView.identity(part), pm)
    res = is_strongly_graded(desc, pm, 3)
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
    products of one piece map, so that views and windows share them.
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
            return GradingResult(False, (n, m), window, detail)
    return GradingResult(
        True, None, window, "every degree pair in the window has full product span"
    )


def _outcome(check, *args):
    try:
        return check(*args)
    except AssertionError as exc:
        return f"AssertionError: {exc}"


def _assert_matches_oracle(description, piece_map, products):
    for window in range(4):
        expected = _outcome(_rank_oracle, description, piece_map, window, products)
        assert _outcome(is_strongly_graded, description, piece_map, window) == expected


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
            verdicts.add(is_strongly_graded(description, piece_map, 3).strongly_graded)
    assert verdicts == {True, False}


def test_grading_matches_the_rank_oracle_on_hand_built_descriptions():
    rng = random.Random(3110)
    not_orbit_unions = 0
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
        if not all(_is_union_of_orbits(v, piece_map) for v in class_pieces.values()):
            not_orbit_unions += 1
        description = CommutantDescription(view=view, class_pieces=class_pieces)
        _assert_matches_oracle(description, piece_map, {})
    assert not_orbit_unions > 100


class _PerDegree:
    """Allowed sets given degree by degree: all three pieces up to |n| = 2, else piece 0.

    With class keys a product can only leave the commutant once the (1, -1)
    pair has already come up short, so the check is reached this way.
    """

    def allowed(self, n):
        return frozenset(range(3)) if abs(n) <= 2 else frozenset({0})


def test_a_product_leaving_the_commutant_raises_like_the_oracle():
    part = build_real_line_partition(["0"])
    pm = PieceMap.identity(part)
    description = _PerDegree()
    assert is_strongly_graded(description, pm, 1).strongly_graded
    _assert_matches_oracle(description, pm, {})
    with pytest.raises(AssertionError, match="left the commutant"):
        is_strongly_graded(description, pm, 2)


@pytest.mark.parametrize("window", [0, 1, 3])
def test_grading_takes_one_product_per_degree_pair(monkeypatch, window):
    calls = {"multiply": 0, "rational_rank": 0}

    def counted(name):
        original = getattr(crossed, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(crossed, "multiply", counted("multiply"))
    monkeypatch.setattr(crossed, "rational_rank", counted("rational_rank"))
    part = build_real_line_partition(["0", "1", "2"])
    pm = PieceMap.identity(part)
    description = commutant_description(SubalgebraView.identity(part), pm)
    assert is_strongly_graded(description, pm, window).strongly_graded
    assert calls == {"multiply": (2 * window + 1) ** 2, "rational_rank": 0}
