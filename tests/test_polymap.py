import operator
import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitkit.dynamics import SparsePoint
from orbitkit.polymap import Polynomial, PolyParseError, constant, parse_poly

from helpers import reference_evaluate


def indicator(bits):
    # product of x_i / (1 - x_i) factors, 1 exactly on `bits` among 0/1 inputs
    p = constant(1)
    for i, b in enumerate(bits):
        p = p * parse_poly(f"x{i}" if b else f"1 - x{i}")
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


# (terms, canonical text): the constructor merges a monomial's factors, sums equal
# monomials and drops zero coefficients and zero exponents
CANONICAL = [
    pytest.param([(((0, 1), (1, 1), (0, 2)), 1)], "1*x0^3*x1", id="repeated-factors-merge"),
    pytest.param([(((0, 1), (1, 1)), 1), (((1, 1), (0, 1)), 1), ((), 1)], "2*x0*x1 + 1",
                 id="equal-monomials-sum"),
    pytest.param([(((0, 1),), 3), (((1, 1),), 0), (((0, 1),), -3)], "0",
                 id="opposite-coefficients-cancel"),
    pytest.param([(((0, 0), (1, 1)), 2), (((2, 0),), 5)], "2*x1 + 5", id="zero-exponent-drops"),
    pytest.param([((), 2), (((4, 0),), 3)], "5", id="constant-hashes-like-its-int"),
]


@pytest.mark.parametrize("terms, text", CANONICAL)
def test_the_constructor_is_canonical(terms, text):
    p = Polynomial(terms)
    assert p.to_text() == text and bool(p) is (text != "0")
    # term order changes neither == nor hash, and a constant equals and hashes like its int
    same = [Polynomial(terms[::-1]), parse_poly(text)] + ([] if p.support_vars() else [int(text)])
    for q in same:
        assert p == q and hash(p) == hash(q)


def test_sum_of_two_birth_indicators():
    a = (0, 1, 1, 1, 0, 0, 0, 0, 0)
    b = (0, 1, 1, 0, 1, 0, 0, 0, 0)
    s = Polynomial([*indicator(a).terms.items(), *indicator(b).terms.items()])
    for bits in product((0, 1), repeat=9):
        assert s.evaluate(dict(enumerate(bits))) == (1 if bits in (a, b) else 0)


def test_mul_expands_binomial():
    assert parse_poly("1 - x0") * parse_poly("x0") == parse_poly("x0 - x0^2")


def test_mul_identity():
    rng = random.Random(1)
    for _ in range(10):
        p = random_poly(rng)
        assert p * constant(1) == p
        assert p * 1 == p == 1 * p


def test_nine_factor_product_hits_only_its_pattern():
    bits = (0, 1, 1, 1, 0, 0, 0, 0, 0)
    p = indicator(bits)
    assert p.evaluate(dict(enumerate(bits))) == 1
    assert p.evaluate(dict(enumerate((0,) * 9))) == 0
    assert p.evaluate(dict(enumerate((1, 1, 1, 1, 0, 0, 0, 0, 0)))) == 0


def test_evaluate_defaults_missing_variables_to_zero():
    p = parse_poly("x0 + 2*x5")
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
    p = Polynomial([(tuple((i, 1) for i in range(3000)), 1), ((), 1)])
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
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    # a sum is the constructor over both term lists
    q_plus_r = Polynomial([*q.terms.items(), *r.terms.items()])
    assert p * q_plus_r == Polynomial([*(p * q).terms.items(), *(p * r).terms.items()])
    assert (p * q).evaluate(a) == p.evaluate(a) * q.evaluate(a)


def test_ring_laws_by_evaluation_at_random_points():
    rng = random.Random(5)
    for _ in range(20):
        p, q, r = (random_poly(rng) for _ in range(3))
        for _ in range(20):
            a = {v: rng.randint(-5, 5) for v in range(3)}
            q_plus_r = Polynomial([*q.terms.items(), *r.terms.items()])
            assert (p * q).evaluate(a) == p.evaluate(a) * q.evaluate(a)
            assert (p * q_plus_r).evaluate(a) == p.evaluate(a) * (q.evaluate(a) + r.evaluate(a))


def test_text_format_matches_spec_ordering():
    p = Polynomial([((), 2), (((4, 1),), 3), (((1, 1), (0, 2)), -1)])
    assert p.to_text() == "-1*x0^2*x1 + 3*x4 + 2"
    assert str(p) == "-1*x0^2*x1 + 3*x4 + 2"
    assert repr(p) == "<Polynomial -1*x0^2*x1 + 3*x4 + 2>"
    assert str(Polynomial()) == "0" and repr(Polynomial()) == "<Polynomial 0>"


def test_text_format_negative_tail_and_graded_order():
    p = Polynomial([(((0, 1), (1, 2)), 1), ((), -5), (((0, 2), (1, 1)), 1)])
    assert p.to_text() == "1*x0^2*x1 + 1*x0*x1^2 - 5"


@given(polys)
def test_text_round_trip(p):
    assert parse_poly(p.to_text()) == p


def test_parse_accepts_any_order_and_whitespace():
    assert parse_poly("2+3*x4  + -1*x0^2*x1") == parse_poly("-1*x0^2*x1 + 3*x4 + 2")
    assert parse_poly("x0 - x0") == Polynomial()
    assert parse_poly("x3") == Polynomial([(((3, 1),), 1)])
    assert parse_poly(" - x2 ") == Polynomial([(((2, 1),), -1)])
    # a separator is "+", "-" or "+" then "-"; the first term may carry one as its sign
    assert parse_poly("+-x0") == Polynomial([(((0, 1),), -1)])
    assert parse_poly("+x0") == Polynomial([(((0, 1),), 1)])
    assert parse_poly("x0 + - x1") == Polynomial([(((0, 1),), 1), (((1, 1),), -1)])


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


def test_a_bool_operand_still_reads_as_its_int():
    # * and == coerce a bool like Python's own ints do
    assert constant(3) * True == constant(3)
    assert constant(1) == True  # noqa: E712
    assert parse_poly("x0") * False == Polynomial()


def test_equality_and_hash_are_value_based():
    p = parse_poly("2*x0 + 1")
    q = parse_poly("1 + x0 + x0")
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1
    # only polynomials and ints compare; anything else is unequal, not an error
    assert (p == "1*x0 + 1") is False and (p == 1.0) is False and p != "x0"


@pytest.mark.parametrize("other", ["x", 1.5, None])
@pytest.mark.parametrize("op", [operator.mul], ids=["mul"])
def test_arithmetic_with_a_foreign_type_raises_type_error(op, other):
    x0 = parse_poly("x0")
    with pytest.raises(TypeError):
        op(x0, other)
    with pytest.raises(TypeError):
        op(other, x0)


def test_constants_hash_like_the_integers_they_equal():
    for c in (0, 1, 5, -1, 2**70):
        assert constant(c) == c and hash(constant(c)) == hash(c)
    assert len({5, constant(5)}) == 1
    assert {0: "zero"}[Polynomial()] == "zero"
