import operator
import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitkit.dynamics import SparsePoint
from orbitkit.polymap import Polynomial, PolyParseError, constant, parse_poly, variable

from helpers import reference_evaluate


def indicator(bits):
    # product of x_i / (1 - x_i) factors, 1 exactly on `bits` among 0/1 inputs
    p = constant(1)
    for i, b in enumerate(bits):
        p = p * (variable(i) if b else 1 - variable(i))
    return p


def random_poly(rng, nvars=3, max_deg=3, max_terms=4, cmax=5):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple((rng.randrange(nvars), 1) for _ in range(rng.randint(0, max_deg)))
        terms.append((mono, rng.randint(-cmax, cmax)))
    return Polynomial(terms)


monomials = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 2)), max_size=3)
polys = st.lists(st.tuples(monomials, st.integers(-5, 5)), max_size=4).map(Polynomial)
points = st.dictionaries(st.integers(0, 4), st.integers(-4, 4), max_size=4)

# few variables, so terms often share a prefix; the empty monomial is a constant term;
# assignments read variables the polynomial lacks and lack variables it reads
big_ints = st.one_of(st.integers(-3, 3), st.integers(-(2**200), 2**200))
tree_monomials = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)), max_size=4)
tree_polys = st.lists(st.tuples(tree_monomials, big_ints), max_size=8).map(Polynomial)
tree_points = st.dictionaries(st.integers(0, 5), big_ints, max_size=6)


def test_add_inverse_cancels_to_zero():
    p = variable(0) + (-variable(0))
    assert p == Polynomial()
    assert not p
    assert p.to_text() == "0"


def test_add_merges_like_terms():
    p = variable(0) * variable(1)
    assert p + p == 2 * p


def test_sum_of_two_birth_indicators():
    a = (0, 1, 1, 1, 0, 0, 0, 0, 0)
    b = (0, 1, 1, 0, 1, 0, 0, 0, 0)
    s = indicator(a) + indicator(b)
    for bits in product((0, 1), repeat=9):
        assert s.evaluate(dict(enumerate(bits))) == (1 if bits in (a, b) else 0)


def test_mul_expands_binomial():
    x0 = variable(0)
    assert (1 - x0) * x0 == x0 - x0**2


def test_mul_identity():
    rng = random.Random(1)
    for _ in range(10):
        p = random_poly(rng)
        assert p * constant(1) == p
        assert p * 1 == p


def test_nine_factor_product_hits_only_its_pattern():
    bits = (0, 1, 1, 1, 0, 0, 0, 0, 0)
    p = indicator(bits)
    assert p.evaluate(dict(enumerate(bits))) == 1
    assert p.evaluate(dict(enumerate((0,) * 9))) == 0
    assert p.evaluate(dict(enumerate((1, 1, 1, 1, 0, 0, 0, 0, 0)))) == 0


def test_evaluate_defaults_missing_variables_to_zero():
    p = variable(0) + 2 * variable(5)
    assert p.evaluate({0: 3}) == 3
    assert p.evaluate({}) == 0
    assert p.evaluate({5: -1, 9: 100}) == -2


@given(tree_polys, tree_points)
def test_evaluate_matches_the_flat_reference_loop(p, a):
    expected = reference_evaluate(p, a)
    assert p.evaluate(a) == expected
    assert p.evaluate(SparsePoint(a)) == expected
    # both constructors build the monomial tree, and it takes no part in
    # equality or hashing
    for fresh in (Polynomial(p.terms), Polynomial._raw(dict(p.terms)), parse_poly(p.to_text())):
        assert fresh == p and hash(fresh) == hash(p)
        assert fresh.evaluate(a) == expected


def test_a_long_monomial_evaluates_without_recursion():
    p = Polynomial([(tuple((i, 1) for i in range(3000)), 1)]) + 1
    ones = dict.fromkeys(range(3000), 1)
    assert p.evaluate(ones) == 2
    assert p.evaluate({**ones, 2999: 0}) == 1
    assert p.evaluate(dict.fromkeys(range(3000), -2)) == 2**3000 + 1


def test_support_vars():
    assert Polynomial().support_vars() == frozenset()
    assert constant(7).support_vars() == frozenset()
    full = indicator((0, 1, 1, 1, 0, 0, 0, 0, 0))
    assert full.support_vars() == frozenset(range(9))


def test_renormalization_is_identity():
    rng = random.Random(4)
    for _ in range(20):
        p = random_poly(rng)
        assert Polynomial(p.terms) == p


@given(polys, polys, polys, points)
def test_ring_laws_hold_canonically(p, q, r, a):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p * q + r).evaluate(a) == p.evaluate(a) * q.evaluate(a) + r.evaluate(a)


def test_ring_laws_by_evaluation_at_random_points():
    rng = random.Random(5)
    for _ in range(20):
        p, q, r = (random_poly(rng) for _ in range(3))
        for _ in range(20):
            a = {v: rng.randint(-5, 5) for v in range(3)}
            assert (p + q).evaluate(a) == p.evaluate(a) + q.evaluate(a)
            assert (p * q).evaluate(a) == p.evaluate(a) * q.evaluate(a)
            assert (p * (q + r)).evaluate(a) == p.evaluate(a) * (q.evaluate(a) + r.evaluate(a))


def test_pow():
    p = variable(0) + 1
    assert p**0 == constant(1)
    assert p**3 == p * p * p
    with pytest.raises(ValueError):
        p ** (-1)


def test_text_format_matches_spec_ordering():
    x0, x1, x4 = variable(0), variable(1), variable(4)
    p = -(x0**2 * x1) + 3 * x4 + 2
    assert p.to_text() == "-1*x0^2*x1 + 3*x4 + 2"
    assert str(p) == "-1*x0^2*x1 + 3*x4 + 2"
    assert repr(p) == "<Polynomial -1*x0^2*x1 + 3*x4 + 2>"
    assert str(Polynomial()) == "0" and repr(Polynomial()) == "<Polynomial 0>"


def test_text_format_negative_tail_and_graded_order():
    x0, x1 = variable(0), variable(1)
    p = x0 * x1**2 + x0**2 * x1 - 5
    assert p.to_text() == "1*x0^2*x1 + 1*x0*x1^2 - 5"


@given(polys)
def test_text_round_trip(p):
    assert parse_poly(p.to_text()) == p


def test_parse_accepts_any_order_and_whitespace():
    assert parse_poly("2+3*x4  + -1*x0^2*x1") == parse_poly("-1*x0^2*x1 + 3*x4 + 2")
    assert parse_poly("x0 - x0") == Polynomial()
    assert parse_poly("x3") == variable(3)
    assert parse_poly(" - x2 ") == -variable(2)
    # a separator is "+", "-" or "+" then "-"; the first term may carry one as its sign
    assert parse_poly("+-x0") == -variable(0)
    assert parse_poly("+x0") == variable(0)
    assert parse_poly("x0 + - x1") == variable(0) - variable(1)


# str.isdigit and the regex \d also match other scripts' digits: int() rejects "²"
# and reads "٣" (Arabic-Indic three) as 3, so neither may reach it
@pytest.mark.parametrize(
    "bad",
    ["", "x0 @ x1", "2*", "x0*2", "x0 + + x1", "y0", "x0^", "3..2", "²*x0", "٣*x0", "x٣", "x0^٣",
     "-", "x0 +", "- - x0", "x0 -+ x1"],
)
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(PolyParseError):
        parse_poly(bad)


def test_construction_validates_inputs():
    with pytest.raises(ValueError):
        Polynomial([(((-1, 1),), 1)])
    with pytest.raises(ValueError):
        Polynomial([(((0, -2),), 1)])
    with pytest.raises(ValueError):
        Polynomial([((), 1.5)])
    # x_True would print as "xTrue", which parse_poly rejects
    with pytest.raises(ValueError, match="variable index"):
        Polynomial([(((True, 1),), 1)])


def test_a_bool_coefficient_is_rejected():
    with pytest.raises(ValueError, match="coefficient must be an integer, got True"):
        Polynomial([((), True)])


def test_a_bool_exponent_is_rejected():
    with pytest.raises(ValueError, match="exponent must be an integer >= 0, got True"):
        Polynomial([(((0, True),), 1)])
    with pytest.raises(ValueError, match="exponent"):
        variable(0) ** True


def test_a_bool_operand_still_reads_as_its_int():
    # arithmetic and comparison coerce a bool like Python's own ints do
    assert variable(0) + True == variable(0) + 1
    assert constant(1) == True  # noqa: E712
    assert variable(0) * False == Polynomial()


def test_equality_and_hash_are_value_based():
    p = variable(0) * 2 + 1
    q = 1 + variable(0) + variable(0)
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1
    assert p == p + Polynomial()
    # only polynomials and ints compare; anything else is unequal, not an error
    assert (p == "1*x0 + 1") is False and (p == 1.0) is False and p != "x0"


@pytest.mark.parametrize("other", ["x", 1.5, None])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul], ids=["add", "sub", "mul"])
def test_arithmetic_with_a_foreign_type_raises_type_error(op, other):
    with pytest.raises(TypeError):
        op(variable(0), other)
    with pytest.raises(TypeError):
        op(other, variable(0))


def test_constants_hash_like_the_integers_they_equal():
    for c in (0, 1, 5, -1, 2**70):
        assert constant(c) == c and hash(constant(c)) == hash(c)
    assert len({5, constant(5)}) == 1
    assert {0: "zero"}[Polynomial()] == "zero"
    assert hash(variable(0) + 5) == hash(5 + variable(0))
