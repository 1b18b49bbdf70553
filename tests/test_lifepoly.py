import random
import re
from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitkit import cli, life, lifepoly
from orbitkit.dynamics import SparsePoint, iterate
from orbitkit.lifepoly import (
    NotAConfigurationError,
    OutOfQuadrantError,
    build_gol_map,
    build_local_rule,
    decode,
    encode,
    expand_patterns,
    life_patterns,
    pair,
    pattern_product_text,
    quadrant_safe,
    unpair,
)
from orbitkit.polymap import Polynomial, constant, variable

from helpers import (
    BLINKER,
    BLOCK,
    TOAD,
    count_calls,
    pattern_factors,
    pattern_term,
    reference_next_state,
    reference_pattern_sum,
)

ALL_INPUTS = tuple(product((0, 1), repeat=9))
BIRTH_PROBE = (0, 1, 1, 1, 0, 0, 0, 0, 0)


def test_pattern_term_is_the_expected_product():
    expected = constant(1)
    for i, bit in enumerate(BIRTH_PROBE):
        expected = expected * (variable(i) if bit else 1 - variable(i))
    assert pattern_term(BIRTH_PROBE) == expected


def test_pattern_term_all_dead_pattern():
    p = pattern_term((0,) * 9)
    assert p.evaluate(dict(enumerate((0,) * 9))) == 1
    assert sum(p.evaluate(dict(enumerate(bits))) for bits in ALL_INPUTS) == 1


def test_rule_patterns_are_exact_indicators():
    rng = random.Random(10)
    sample = list(life_patterns()) + [rng.choice(ALL_INPUTS) for _ in range(10)]
    for bits in sample:
        p = pattern_term(bits)
        assert p.evaluate(dict(enumerate(bits))) == 1
        # 0/1 products are 0 or 1, so total mass 1 means 0 everywhere else
        assert sum(p.evaluate(dict(enumerate(v))) for v in ALL_INPUTS) == 1


def test_pattern_term_validates():
    with pytest.raises(ValueError):
        pattern_term((0, 1))
    with pytest.raises(ValueError):
        pattern_term((2,) * 9)


def test_pattern_factors_are_nine_affine_factors():
    for bits in life_patterns():
        factors = pattern_factors(bits)
        assert len(factors) == 9
        rebuilt = constant(1)
        for i, f in enumerate(factors):
            assert f in (variable(i), 1 - variable(i))
            rebuilt = rebuilt * f
        assert rebuilt == pattern_term(bits)


def test_pattern_count_matches_combinatorics():
    patterns = life_patterns()
    assert len(patterns) == 140
    births = [p for p in patterns if p[0] == 0]
    surv2 = [p for p in patterns if p[0] == 1 and sum(p[1:]) == 2]
    surv3 = [p for p in patterns if p[0] == 1 and sum(p[1:]) == 3]
    assert len(births) == comb(8, 3) == 56
    assert len(surv2) == comb(8, 2) == 28
    assert len(surv3) == comb(8, 3) == 56
    assert len(births) + len(surv2) + len(surv3) == len(patterns)
    assert all(sum(p[1:]) == 3 for p in births)


def test_local_rule_truth_table_is_exact():
    rule = build_local_rule()
    for bits in ALL_INPUTS:
        assert rule.evaluate(dict(enumerate(bits))) == reference_next_state(bits)


def test_local_rule_probes():
    rule = build_local_rule()
    assert rule.evaluate(dict(enumerate(BIRTH_PROBE))) == 1
    assert rule.evaluate(dict(enumerate((0,) * 9))) == 0
    assert rule.evaluate({}) == 0


def test_expanded_and_pattern_sum_forms_agree():
    rule = build_local_rule()
    for bits in ALL_INPUTS:
        assert rule.evaluate(dict(enumerate(bits))) == reference_pattern_sum(bits)
    # also off the 0/1 cube, where both are ordinary integer polynomials
    rng = random.Random(11)
    for _ in range(20):
        values = tuple(rng.randint(-3, 3) for _ in range(9))
        assert rule.evaluate(dict(enumerate(values))) == reference_pattern_sum(values)


def test_rule_check_catches_any_one_dropped_pattern(monkeypatch):
    real_expand = lifepoly.expand_patterns
    for dropped in random.Random(12).sample(life_patterns(), 10):
        monkeypatch.setattr(
            lifepoly, "expand_patterns",
            lambda patterns, dropped=dropped: real_expand(p for p in patterns if p != dropped),
        )
        build_local_rule.cache_clear()
        try:
            # the dropped pattern is the only neighborhood where the rule is wrong
            with pytest.raises(RuntimeError, match=re.escape(f"B3/S23 at x0..x8 = {dropped}")):
                build_local_rule()
        finally:
            build_local_rule.cache_clear()
    monkeypatch.undo()
    assert len(build_local_rule().terms) == 466


class CountingDict(dict):
    """A dict that counts ``get`` calls, the reads ``Polynomial.evaluate`` makes."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def test_rule_check_reads_only_variables_below_nonzero_prefixes():
    rule = build_local_rule()
    reads = 0
    for bits in ALL_INPUTS:
        assignment = CountingDict(enumerate(bits))
        assert rule.evaluate(assignment) == reference_next_state(bits)
        reads += assignment.reads
    # a flat loop over the 466 terms reads 452,666 times
    assert reads <= 60_000


def test_moebius_rule_equals_the_sum_of_pattern_products():
    expected = Polynomial()
    for bits in life_patterns():
        expected = expected + pattern_term(bits)
    assert dict(build_local_rule().terms) == dict(expected.terms)


@given(st.sets(st.sampled_from(ALL_INPUTS), max_size=40))
def test_expanded_pattern_set_equals_the_sum_of_pattern_products(patterns):
    expected = Polynomial()
    for bits in patterns:
        expected = expected + pattern_term(bits)
    assert expand_patterns(patterns) == expected


def test_fresh_rule_build_multiplies_no_polynomials(monkeypatch):
    build_gol_map.cache_clear()
    build_local_rule.cache_clear()
    calls = count_calls(monkeypatch, Polynomial, "__mul__", "__rmul__")
    try:
        rule = build_local_rule()
    finally:
        build_local_rule.cache_clear()
        build_gol_map.cache_clear()
    assert calls == []
    assert len(rule.terms) == 466
    # the verify --corrupt control rule goes through the same expansion
    corrupted = cli._corrupted_rule()
    assert calls == []
    assert len(corrupted.terms) == 219


def test_expand_patterns_hands_over_canonical_terms(monkeypatch):
    patterns = life_patterns()
    calls = count_calls(monkeypatch, Polynomial, "__init__")
    rules = [expand_patterns(patterns), cli._corrupted_rule()]
    assert calls == []
    monkeypatch.undo()
    for rule in rules:
        # the checking constructor finds nothing to normalize
        checked = Polynomial(rule.terms)
        assert dict(checked.terms) == dict(rule.terms)
        assert hash(checked) == hash(rule)
    assert rules[0] == build_local_rule()


def test_gol_map_apply_on_a_soup_evaluates_no_polynomial(monkeypatch):
    phi = build_gol_map()
    soup = life.random_soup(random.Random(15), 16, 0.3, origin=(1, 1))
    calls = count_calls(monkeypatch, Polynomial, "evaluate")
    image = phi.apply(encode(soup))
    assert calls == []
    assert decode(image) == life.step(soup)


def test_pattern_product_text():
    text = pattern_product_text(BIRTH_PROBE)
    assert text == "(1-x0)*x1*x2*x3*(1-x4)*(1-x5)*(1-x6)*(1-x7)*(1-x8)"


def test_pair_base_cases():
    assert pair(0, 0) == 0
    assert pair(1, 0) == 1
    assert pair(0, 1) == 2


def test_pair_round_trip_random():
    rng = random.Random(12)
    for _ in range(10000):
        a, b = rng.randrange(10**6), rng.randrange(10**6)
        assert unpair(pair(a, b)) == (a, b)


def test_unpair_then_pair_is_identity():
    for n in range(10000):
        a, b = unpair(n)
        assert pair(a, b) == n


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_pair_round_trip_property(a, b):
    assert unpair(pair(a, b)) == (a, b)


def test_distinct_cells_get_distinct_coordinates():
    cells = [(a, b) for a in range(100) for b in range(100)]
    assert len({pair(a, b) for a, b in cells}) == len(cells)


def test_pair_rejects_negatives():
    with pytest.raises(ValueError):
        pair(-1, 0)
    with pytest.raises(ValueError):
        unpair(-1)


def test_encode_examples():
    assert encode(frozenset()) == SparsePoint()
    assert encode(frozenset({(0, 0)})) == SparsePoint({0: 1})


def test_encode_decode_round_trip():
    c = life.translate(BLINKER, 3, 5)
    assert decode(encode(c)) == c


def test_encode_rejects_negative_cells():
    with pytest.raises(OutOfQuadrantError):
        encode(frozenset({(-1, 2)}))


def test_decode_rejects_non_cell_values():
    with pytest.raises(NotAConfigurationError):
        decode(SparsePoint({0: 2}))
    with pytest.raises(NotAConfigurationError):
        decode(SparsePoint({3: -1}))


def test_gol_map_zero_at_zero():
    phi = build_gol_map()
    assert phi.rule.evaluate({}) == 0
    assert phi.apply(SparsePoint()) == SparsePoint()


def test_gol_map_block_commutes_with_engine():
    phi = build_gol_map()
    c = life.translate(BLOCK, 2, 2)
    assert decode(phi.apply(encode(c))) == life.step(c)


def test_gol_map_blinker_period_two():
    phi = build_gol_map()
    c = life.translate(BLINKER, 2, 2)
    x = encode(c)
    once = phi.apply(x)
    assert decode(once) == life.step(c)
    assert iterate(phi, x, 2) == x


def test_gol_map_toad_period_two():
    phi = build_gol_map()
    x = encode(life.translate(TOAD, 2, 2))
    assert iterate(phi, x, 2) == x
    assert phi.apply(x) != x


def test_quadrant_safe():
    assert quadrant_safe(life.translate(BLOCK, 5, 5))
    assert not quadrant_safe(frozenset({(0, 1), (1, 1), (2, 1)}))  # touches column 0
    # touches row 0, and its next step births a cell at row -1
    at_edge = life.translate(BLINKER, 1, 0)
    assert any(y < 0 for _, y in life.step(at_edge))
    assert not quadrant_safe(at_edge)
    assert quadrant_safe(life.translate(BLINKER, 2, 2))
    assert quadrant_safe(frozenset())


@given(st.frozensets(st.tuples(st.integers(1, 12), st.integers(1, 12)), max_size=40))
def test_cells_off_the_boundary_step_inside_the_quadrant(config):
    # why quadrant_safe need not run the step: births happen only next to live cells
    assert quadrant_safe(config)
    assert all(x >= 0 and y >= 0 for x, y in life.step(config))


def test_commuting_square_on_random_soups():
    phi = build_gol_map()
    rng = random.Random(13)
    for _ in range(200):
        soup = life.random_soup(rng, 16, rng.choice((0.1, 0.2, 0.3, 0.4, 0.5)), origin=(1, 1))
        assert quadrant_safe(soup) or all(x >= 1 and y >= 1 for x, y in soup)
        assert decode(phi.apply(encode(soup))) == life.step(soup)


def test_gol_map_output_values_are_cell_states():
    phi = build_gol_map()
    rng = random.Random(14)
    for _ in range(50):
        soup = life.random_soup(rng, 10, 0.35, origin=(1, 1))
        y = phi.apply(encode(soup))
        assert set(v for _, v in y.items()) <= {1}
        assert all(v != 0 for _, v in y.items())


def test_gol_map_off_cube_values_allowed():
    # points are not restricted to 0/1; the map still applies exactly
    phi = build_gol_map()
    x = SparsePoint({pair(3, 3): 2})
    y = phi.apply(x)
    # a lone cell with value 2: its own neighborhood is (2,0,...,0) and the
    # neighbors see one live-ish cell; exactness is what matters here
    assert y == SparsePoint(
        {pair(a, b): phi.rule.evaluate(_neighborhood_values(x, a, b)) for a in range(2, 5) for b in range(2, 5)}
    )


def _neighborhood_values(x, a, b):
    from orbitkit.dynamics import NEIGHBOR_OFFSETS

    offsets = ((0, 0),) + NEIGHBOR_OFFSETS
    values = []
    for da, db in offsets:
        ca, cb = a + da, b + db
        values.append(x.get(pair(ca, cb)) if ca >= 0 and cb >= 0 else 0)
    return dict(enumerate(values))
