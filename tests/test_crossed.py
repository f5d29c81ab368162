"""Coefficient vectors, twisted convolution, rank, and strong grading."""
import random
from fractions import Fraction

import pytest

from crossed_commutant import (
    CoefficientVector,
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
from crossed_commutant.errors import PartitionMismatch


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
