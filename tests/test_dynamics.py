import random
import time
import tracemalloc
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from orbitkit import cli, dynamics, life
from orbitkit.dynamics import (
    NEIGHBOR_OFFSETS,
    FiniteComponentMap,
    GridRuleMap,
    PointParseError,
    SparsePoint,
    _key_walk,
    emit_point,
    iterate,
    parse_point,
)
from orbitkit.lifepoly import (
    build_gol_map,
    build_local_rule,
    cantor_pairing,
    encode,
    pair,
    unpair,
)
from orbitkit.orbit import Stable, is_stable_singleton, orbit_closure
from orbitkit.polymap import Polynomial, constant, parse_poly

from helpers import count_calls, reference_component_apply, reference_grid_apply

points = st.dictionaries(
    st.integers(0, 30), st.integers(-9, 9).filter(bool), max_size=6
).map(SparsePoint)


def test_sparse_point_drops_zero_entries():
    p = SparsePoint({0: 1, 3: 0, 7: -2})
    assert p.support() == frozenset({0, 7})
    assert p[3] == 0
    assert p.get(7) == -2
    assert len(p) == 2
    assert bool(SparsePoint()) is False and bool(SparsePoint({3: 0})) is False
    assert bool(SparsePoint({0: 1})) is True


def test_key_is_sorted_coordinates_then_values():
    assert SparsePoint({5: -3, 0: 1})._key() == ((0, 5), 1, -3)
    assert SparsePoint()._key() == ((),)
    assert SparsePoint({0: 1, 1: 2})._key() != SparsePoint({0: 1})._key()
    # a key holds the layout it is given when its own sorted coordinates equal it
    layout = (0, 5)
    assert SparsePoint({5: 7, 0: 2})._key(layout)[0] is layout
    assert SparsePoint({5: 7, 0: 2})._key()[0] is not layout
    assert SparsePoint({0: 2})._key(layout) == ((0,), 2)


@given(points)
def test_from_key_inverts_key(p):
    q = SparsePoint._from_key(p._key())
    assert q == p
    assert dict(q.items()) == dict(p.items())


@given(points, points)
def test_keys_are_injective(p, q):
    assert (p._key() == q._key()) == (p == q)


def test_component_map_rejects_a_component_that_is_no_polynomial():
    with pytest.raises(ValueError, match="must be a Polynomial"):
        FiniteComponentMap({0: "x0"})


def test_component_map_rejects_a_bool_component():
    # True would otherwise be taken as the constant 1
    with pytest.raises(ValueError, match="must be a Polynomial or an int, got True"):
        FiniteComponentMap({0: True})


def test_an_int_component_is_a_constant():
    # 3 sets coordinate 0 and 0 deletes it, in apply and in both orbit walks
    sets, deletes = FiniteComponentMap({0: 3}), FiniteComponentMap({0: 0})
    assert sets.components[0] == constant(3)
    x = SparsePoint({0: 5, 1: 7})
    assert sets.apply(x) == SparsePoint({0: 3, 1: 7})
    assert deletes.apply(x) == SparsePoint({1: 7})
    assert orbit_closure([sets, deletes], x, 100, 100) == Stable(orbit_size=3)
    assert is_stable_singleton(sets, x, 100) == Stable(orbit_size=2, witness=(1, 1))
    assert is_stable_singleton(deletes, x, 100) == Stable(orbit_size=2, witness=(1, 1))


def test_sparse_point_equality_and_hash():
    a = SparsePoint({0: 1, 5: -3})
    b = SparsePoint([(5, -3), (0, 1), (9, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert (a == {0: 1, 5: -3}) is False and (a == "0:1 5:-3") is False


def test_sparse_point_refuses_iteration_at_once():
    # __getitem__ answers 0 at every index, so the sequence protocol never ends:
    # iter() is checked first, because ``in`` and list() would hang without the fix
    p = SparsePoint({0: 1})
    with pytest.raises(TypeError):
        iter(p)
    with pytest.raises(TypeError):
        3 in p
    with pytest.raises(TypeError):
        list(p)
    assert sorted(p.items()) == [(0, 1)] and p.support() == {0}


def test_sparse_point_repeated_coordinates_are_last_wins():
    later_value = SparsePoint([(0, 1), (0, 2)])
    assert later_value == SparsePoint({0: 2})
    assert hash(later_value) == hash(SparsePoint({0: 2}))
    # a later zero deletes the earlier entry instead of being skipped
    later_zero = SparsePoint([(0, 1), (0, 0)])
    assert later_zero == SparsePoint() and emit_point(later_zero) == ""
    assert hash(later_zero) == hash(SparsePoint())
    assert SparsePoint([(3, 0), (3, -4)]) == SparsePoint({3: -4})


def test_emit_point_is_sorted():
    p = SparsePoint({12: 7, 0: 1, 5: -3})
    assert emit_point(p) == "0:1 5:-3 12:7"
    assert emit_point(SparsePoint()) == ""


def test_parse_point_accepts_any_order():
    assert parse_point("5:-3 0:1 12:7") == SparsePoint({0: 1, 5: -3, 12: 7})
    assert parse_point("") == SparsePoint()
    assert parse_point("  \n ") == SparsePoint()


# "٣" is the Arabic-Indic three, which the regex \d and int() both accept
@pytest.mark.parametrize(
    "bad", ["0:0", "1:2 1:3", "x:1", "3", "3:", "-1:2", "1:2:3", "0:٣", "٣:1", "2:-٣"]
)
def test_parse_point_rejects(bad):
    with pytest.raises(PointParseError):
        parse_point(bad)


@given(points)
def test_point_text_round_trip(p):
    assert parse_point(emit_point(p)) == p


def test_identity_component_map():
    m = FiniteComponentMap({})
    x = SparsePoint({0: 3, 4: -1})
    assert m.apply(x) == x


def test_map_reprs_are_pinned():
    m = FiniteComponentMap({3: parse_poly("x0*x1"), 0: 5})
    assert repr(m) == "<FiniteComponentMap {0: 5, 3: 1*x0*x1}>"
    assert repr(FiniteComponentMap({})) == "<FiniteComponentMap {}>"
    assert repr(build_gol_map()) == "<GridRuleMap rule_terms=466>"
    rule = parse_poly("x2 + x0*x8")
    assert repr(GridRuleMap(rule, cantor_pairing())) == "<GridRuleMap rule_terms=2>"


def test_single_coordinate_square():
    m = FiniteComponentMap({0: parse_poly("x0^2")})
    assert m.apply(SparsePoint({0: 3})) == SparsePoint({0: 9})


def test_components_read_the_original_point():
    # a swap map must not see its own partial writes
    m = FiniteComponentMap({0: parse_poly("x1"), 1: parse_poly("x0")})
    assert m.apply(SparsePoint({0: 2, 1: 5})) == SparsePoint({0: 5, 1: 2})


@given(points)
def test_component_map_locality(x):
    m = FiniteComponentMap({0: parse_poly("x0 + 1"), 1: constant(0)})
    y = m.apply(x)
    for coord in x.support() | y.support():
        if coord not in (0, 1):
            assert y[coord] == x[coord]


def test_iterate():
    m = FiniteComponentMap({0: parse_poly("2*x0")})
    x = SparsePoint({0: 1})
    assert iterate(m, x, 0) == x
    assert iterate(m, x, 10) == SparsePoint({0: 1024})


def test_apply_dispatches():
    m = FiniteComponentMap({0: parse_poly("x0 + 1")})
    assert m.apply(SparsePoint()) == SparsePoint({0: 1})


def test_grid_rule_rejects_nonzero_at_zero(monkeypatch):
    with pytest.raises(ValueError, match="all-zero neighborhood"):
        GridRuleMap(parse_poly("x0 + 1"), cantor_pairing())
    # the x0..x8 check comes first, and the zero check reads the compiled table
    with pytest.raises(ValueError, match="found x9"):
        GridRuleMap(parse_poly("x9 + 1"), cantor_pairing())
    rules = [build_local_rule(), cli._corrupted_rule()]
    calls = count_calls(monkeypatch, Polynomial, "evaluate")
    for rule in rules:
        GridRuleMap(rule, cantor_pairing())
    assert calls == []


def test_grid_rule_rejects_high_variables():
    with pytest.raises(ValueError):
        GridRuleMap(parse_poly("x9"), cantor_pairing())


def test_grid_rule_malformed_point():
    def gappy_inverse(n):
        if n % 2:
            raise ValueError("odd index")
        return unpair(n // 2)

    m = GridRuleMap(parse_poly("x0"), (lambda a, b: 2 * pair(a, b), gappy_inverse))
    assert m.apply(SparsePoint({4: 1})).support() == frozenset({4})
    with pytest.raises(ValueError, match="odd index"):
        m.apply(SparsePoint({3: 1}))


@pytest.mark.parametrize("value", [2, -1])
def test_grid_rule_malformed_point_on_the_generic_path(value):
    def small_inverse(n):
        if n > 10:
            raise ValueError("outside the image")
        return unpair(n)

    m = GridRuleMap(parse_poly("x0"), (pair, small_inverse))
    assert m.apply(SparsePoint({4: value})) == SparsePoint({4: value})
    with pytest.raises(ValueError, match="outside the image"):
        m.apply(SparsePoint({4: value, 11: 1}))


def test_grid_rule_shift():
    # rule x1 copies the NW neighbor, so the support translates by (+1, +1)
    m = GridRuleMap(parse_poly("x1"), cantor_pairing())
    x = SparsePoint({pair(2, 2): 5, pair(3, 2): -7})
    y = m.apply(x)
    assert y == SparsePoint({pair(3, 3): 5, pair(4, 3): -7})


def test_grid_rule_clips_candidates_to_quadrant():
    # the same shift rule applied at the corner: nothing reads off-quadrant
    m = GridRuleMap(parse_poly("x1"), cantor_pairing())
    y = m.apply(SparsePoint({pair(0, 0): 9}))
    assert y == SparsePoint({pair(1, 1): 9})


def _random_multilinear_rule(rng):
    terms = []
    for _ in range(rng.randint(1, 5)):
        mono = tuple((v, 1) for v in rng.sample(range(9), rng.randint(1, 3)))
        terms.append((mono, rng.randint(-2, 2)))
    return Polynomial(terms)


def test_grid_rule_support_growth_bound():
    rng = random.Random(6)
    for _ in range(40):
        rule = _random_multilinear_rule(rng)
        m = GridRuleMap(rule, cantor_pairing())
        cells = {(rng.randrange(6), rng.randrange(6)) for _ in range(rng.randint(0, 8))}
        x = SparsePoint({pair(a, b): rng.choice((1, -1, 2)) for a, b in cells})
        before = {unpair(i) for i in x.support()}
        after = {unpair(i) for i in m.apply(x).support()}
        dilation = {
            (a + da, b + db)
            for a, b in before
            for da, db in ((0, 0),) + NEIGHBOR_OFFSETS
        }
        assert after <= dilation


wide_values = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80)).filter(bool)
wide_points = st.dictionaries(st.integers(0, 12), wide_values, max_size=6).map(SparsePoint)
# the empty monomial is a constant term
component_polys = st.lists(
    st.tuples(
        st.dictionaries(st.integers(0, 12), st.integers(1, 3), max_size=3).map(
            lambda exps: tuple(exps.items())
        ),
        wide_values,
    ),
    max_size=4,
).map(Polynomial)


@given(st.data())
def test_component_apply_matches_checking_reference(data):
    x = data.draw(wide_points)
    # moves c*x_j read variables on x's support and off it (those read 0)
    var = st.one_of(st.sampled_from(sorted(x.support() | {13})), st.integers(0, 14))
    move = st.builds(lambda j, c: parse_poly(f"{c}*x{j}"), var, st.sampled_from((1, -1, 1, -1, 3)))
    kinds = st.one_of(move, move, st.integers(-2, 2).map(constant), component_polys)
    components = data.draw(st.dictionaries(st.integers(0, 14), kinds, max_size=6))
    if data.draw(st.booleans()):
        coord = data.draw(var)
        components[coord] = parse_poly(f"-x{coord}")  # reads the coordinate it writes
    for a, b in data.draw(st.lists(st.tuples(var, var), max_size=2)):
        components[a], components[b] = parse_poly(f"x{b}"), parse_poly(f"x{a}")  # a swap
    # some components cancel to 0 on x; on x's support that removes the coordinate
    for coord in data.draw(st.sets(st.sampled_from(sorted(set(components) | x.support() | {0})))):
        poly = components.get(coord, parse_poly(f"x{coord}"))
        components[coord] = Polynomial([*poly.terms.items(), ((), -poly.evaluate(x))])
    m = FiniteComponentMap(components)
    before = list(x.items())
    h = hash(x)
    got = m.apply(x)
    expected = reference_component_apply(m, x)
    assert got == expected
    assert hash(got) == hash(expected)
    assert all(type(c) is int and c >= 0 and type(v) is int and v != 0 for c, v in got.items())
    assert list(x.items()) == before
    assert hash(x) == h == hash(SparsePoint(before))


def test_component_apply_pin_mixes_moves_and_general_components():
    m = cli.parse_component_map("0: -x0\n1: x2\n2: x1\n3: 5*x7\n4: x0^2 + 1\n6: 0")
    big = 2**100 + 1
    x = SparsePoint({0: big, 1: 3, 2: -7, 6: 9, 7: 4, 9: 11})
    assert m.apply(x) == SparsePoint({0: -big, 1: -7, 2: 3, 3: 20, 4: big**2 + 1, 7: 4, 9: 11})
    # moves from x2 and x7, both 0 here, delete coordinates 1 and 3
    y = SparsePoint({0: -5, 1: 3, 3: 8})
    assert m.apply(y) == SparsePoint({0: 5, 2: 3, 4: 26})
    assert m.apply(y) == reference_component_apply(m, y)


def test_moves_evaluate_nothing_and_share_the_source_ints(monkeypatch):
    x = SparsePoint({0: 2**320 + 1, 1: -(2**300), 5: 7})
    m = cli.parse_component_map("0: x1\n1: x0\n2: -x5\n5: 3*x5\n9: x4")
    expected = SparsePoint({0: -(2**300), 1: 2**320 + 1, 2: -7, 5: 21})
    assert m.apply(x) == expected
    calls = count_calls(monkeypatch, Polynomial, "evaluate")
    # a scale and a move onto a new coordinate take apply, every component evaluated
    start, [step], point = _key_walk([m], x)
    assert start == x._key() and point(step(start)) == expected
    assert calls == ["evaluate"] * 5
    del calls[:]
    # unit moves that keep the layout step a code and skip evaluate
    signed = cli.parse_component_map("0: x1\n1: x0\n5: -x5\n9: x4")
    start, [step], point = _key_walk([signed], x)
    assert type(start) is bytes
    y = point(step(start))
    assert calls == []
    assert y == SparsePoint({0: -(2**300), 1: 2**320 + 1, 5: -7})
    # a coefficient-1 move stores the input's own int object, not a copy
    assert y[0] is x[1] and y[1] is x[0]


def test_general_components_are_evaluated_once_each(monkeypatch):
    # apply evaluates every component, the move 4: x2 included
    m = cli.parse_component_map("0: x0^2\n1: x0 + x1\n2: 4\n3: 0\n4: x2\n5: 2*x0*x1")
    calls = count_calls(monkeypatch, Polynomial, "evaluate")
    assert m.apply(SparsePoint({0: 3, 1: 5, 2: 1})) == SparsePoint({0: 9, 1: 8, 2: 4, 4: 1, 5: 30})
    assert calls == ["evaluate"] * 6


def test_maps_and_encode_build_points_without_the_checking_constructor(monkeypatch):
    blinker = frozenset({(2, 1), (2, 2), (2, 3)})
    binary = encode(blinker)
    holding_two = SparsePoint({12: 1, 17: 2, 23: 1})
    m = cli.parse_component_map("0: x1\n1: x0^2 + 1\n5: 0")
    x = SparsePoint({0: 2, 1: -3, 5: 4})
    gol = build_gol_map()
    calls = count_calls(monkeypatch, SparsePoint, "__init__")
    images = [m.apply(x), gol.apply(binary), gol.apply(holding_two), encode(blinker),
              parse_point("23:1 12:1 17:2")]
    assert calls == []
    assert images[0] == SparsePoint({0: -3, 1: 5})
    assert images[1] == encode(life.step(blinker))
    assert images[2] == reference_grid_apply(gol.rule, holding_two)
    assert images[3] == binary
    assert images[4] == holding_two


def test_symbolic_composition_matches_numeric_double_apply():
    rng = random.Random(8)
    for _ in range(10):
        comps = {}
        for coord in range(3):
            terms = []
            for _ in range(rng.randint(1, 3)):
                mono = tuple((rng.randrange(3), 1) for _ in range(rng.randint(0, 2)))
                terms.append((mono, rng.randint(-2, 2)))
            comps[coord] = Polynomial(terms)
        f = FiniteComponentMap(comps)
        for _ in range(50):
            x = SparsePoint({c: rng.randint(-3, 3) for c in range(3) if rng.random() < 0.8})
            once = reference_component_apply(f, x)
            assert iterate(f, x, 2) == reference_component_apply(f, once)


# A dense cluster, cells on row 0 and column 0 next to it (their off-quadrant
# neighbors read as 0), and a few cells nearby or up to 10**12 away, so that
# either side of the switch between the packed and the per-cell path runs.
cluster = st.frozensets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30)
edge_cells = st.frozensets(
    st.one_of(st.tuples(st.just(0), st.integers(0, 9)), st.tuples(st.integers(0, 9), st.just(0))),
    max_size=4,
)
near_or_far = st.one_of(st.integers(0, 60), st.integers(0, 10**12))
far_cells = st.frozensets(st.tuples(near_or_far, near_or_far), max_size=3)
binary_points = st.builds(
    lambda *parts: SparsePoint({pair(a, b): 1 for a, b in frozenset().union(*parts)}),
    cluster, edge_cells, far_cells,
)
mixed_points = (
    st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        st.sampled_from((1, 1, 2, -1)),
        min_size=1,
        max_size=20,
    )
    .filter(lambda cells: any(v != 1 for v in cells.values()))
    .map(lambda cells: SparsePoint({pair(a, b): v for (a, b), v in cells.items()}))
)
# zero at zero: no constant monomial
random_rules = st.lists(
    st.tuples(
        st.dictionaries(st.integers(0, 8), st.integers(1, 3), min_size=1, max_size=4).map(
            lambda exps: tuple(exps.items())
        ),
        st.integers(-3, 3).filter(bool),
    ),
    max_size=8,
).map(Polynomial)

NAMED_RULES = {"life": build_local_rule, "corrupt": lru_cache(maxsize=1)(cli._corrupted_rule)}


def _counting_evaluate():
    return mock.patch.object(Polynomial, "evaluate", autospec=True, side_effect=Polynomial.evaluate)


def _check_against_reference(rule, x, *, table_path):
    m = GridRuleMap(rule, cantor_pairing())
    expected = reference_grid_apply(rule, x)
    # the switch as it stands, then the per-cell path, then the board path on a small box
    limits = [dynamics._BOARD_BITS_PER_CELL, 0]
    if all(a < 100 and b < 100 for a, b in map(unpair, x.support())):
        limits.append(10**9)
    for limit in limits:
        with mock.patch.object(dynamics, "_BOARD_BITS_PER_CELL", limit), \
                _counting_evaluate() as evaluate:
            got = m.apply(x)
        assert got == expected
        if table_path:
            assert evaluate.call_count == 0
        else:
            assert evaluate.call_count > 0


@pytest.mark.parametrize("name", sorted(NAMED_RULES))
def test_each_nonzero_table_value_has_its_diagram(name):
    m = GridRuleMap(NAMED_RULES[name](), cantor_pairing())
    diagram = m._diagram
    assert set(m._table) == {0, 1} and type(diagram) is tuple
    assert len(diagram) == {"life": 26, "corrupt": 23}[name]
    for mask in range(512):
        # a node's children come before it, so one pass in order reaches the root
        node = [0, 1]
        for var, lo, hi in diagram:
            assert lo < len(node) and hi < len(node) and lo != hi
            node.append(node[hi] if mask >> var & 1 else node[lo])
        assert node[-1] == (m._table[mask] == 1)


@pytest.mark.parametrize("rule", [parse_poly("2*x0"), parse_poly("x0 + x1*x8")],
                         ids=["doubling", "sum"])
def test_a_table_with_other_values_has_no_diagram_and_reads_the_table(rule):
    m = GridRuleMap(rule, cantor_pairing())
    assert m._diagram is None and set(m._table) - {0, 1}
    # a dense soup with cells on row 0 and column 0
    rng = random.Random(5)
    x = encode({(a, b) for a in range(12) for b in range(12) if rng.random() < 0.5})
    expected = reference_grid_apply(rule, x)
    with _counting_evaluate() as evaluate:
        got = m.apply(x)
    assert evaluate.call_count == 0
    assert got == expected


def test_map_on_cells_far_apart_stays_small():
    # two blocks about 10**12 apart: the board path would need a 10**24-bit int
    block = {(1, 1), (2, 1), (1, 2), (2, 2)}
    cells = block | {(a + 10**12, b + 10**12 - 7) for a, b in block}
    x = SparsePoint({pair(a, b): 1 for a, b in cells})
    gol = build_gol_map()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        got = gol.apply(x)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == x
    assert elapsed < 1.0
    assert peak < 2**20


# three live cells in a line along row 0 or column 0 bring a cell to life at a
# negative coordinate, which the map must leave out
EDGE_BLINKERS = SparsePoint({pair(a, b): 1 for a, b in ((4, 0), (5, 0), (6, 0), (0, 4), (0, 5),
                                                        (0, 6), (3, 3))})


@pytest.mark.parametrize("name", sorted(NAMED_RULES))
@given(x=binary_points)
@example(x=EDGE_BLINKERS)
def test_compiled_rule_matches_reference_on_binary_points(name, x):
    _check_against_reference(NAMED_RULES[name](), x, table_path=True)


@given(rule=random_rules, x=binary_points)
def test_compiled_random_rule_matches_reference_on_binary_points(rule, x):
    _check_against_reference(rule, x, table_path=True)


@pytest.mark.parametrize("name", sorted(NAMED_RULES))
@given(x=mixed_points)
def test_points_off_the_cube_take_the_generic_path(name, x):
    _check_against_reference(NAMED_RULES[name](), x, table_path=False)


@given(rule=random_rules, x=mixed_points)
def test_random_rule_off_the_cube_takes_the_generic_path(rule, x):
    _check_against_reference(rule, x, table_path=False)
