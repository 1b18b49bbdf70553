import inspect
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitkit import cycles, life, orbit
from orbitkit.dynamics import FiniteComponentMap, GridRuleMap, SparsePoint
from orbitkit.lifepoly import build_gol_map, cantor_pairing, encode, quadrant_safe
from orbitkit.orbit import (
    Stable,
    Unknown,
    enumerate_orbit,
    is_stable_singleton,
    orbit_closure,
    report_line,
)
from orbitkit.polymap import Polynomial, constant, variable

from helpers import BLINKER, BLOCK, GLIDER, TOAD, count_calls, reference_closure, reference_singleton


def random_component_map(rng):
    comps = {}
    for coord in range(2):
        if rng.random() < 0.85:
            terms = []
            max_deg = 1 if rng.random() < 0.5 else 2
            for _ in range(rng.randint(1, 3)):
                mono = tuple((rng.randrange(2), 1) for _ in range(rng.randint(0, max_deg)))
                terms.append((mono, rng.randint(-2, 2)))
            comps[coord] = Polynomial(terms)
    return FiniteComponentMap(comps)


def random_start(rng):
    return SparsePoint({c: rng.randint(-3, 3) for c in range(2)})


def test_identity_map_fixed_point():
    verdict = is_stable_singleton(FiniteComponentMap({}), SparsePoint({3: 9}), 10)
    assert verdict == Stable(orbit_size=1, witness=(0, 1))


def test_gol_blinker_is_stable_with_period_two():
    phi = build_gol_map()
    x = encode(life.translate(BLINKER, 2, 2))
    assert is_stable_singleton(phi, x, 100) == Stable(orbit_size=2, witness=(0, 2))


def test_increment_map_is_unknown():
    f = FiniteComponentMap({0: variable(0) + 1})
    verdict = is_stable_singleton(f, SparsePoint(), 10000)
    assert verdict == Unknown(points_explored=10001, budget_hit="budget")


def test_singleton_budget_validation():
    for budget in (0, True):
        with pytest.raises(ValueError):
            is_stable_singleton(FiniteComponentMap({}), SparsePoint(), budget)


def test_closure_identity_generator():
    verdict = orbit_closure([FiniteComponentMap({})], SparsePoint({0: 4}), 10, 10)
    assert verdict == Stable(orbit_size=1)


def test_closure_gol_block_still_life():
    phi = build_gol_map()
    x = encode(life.translate(BLOCK, 2, 2))
    assert orbit_closure([phi], x, 100, 100) == Stable(orbit_size=1)


def test_closure_two_generators_sign_flip():
    flip = FiniteComponentMap({0: -variable(0)})
    keep = FiniteComponentMap({0: variable(0)})
    verdict = orbit_closure([flip, keep], SparsePoint({0: 5}), 100, 100)
    assert verdict == Stable(orbit_size=2)
    orbit_set = enumerate_orbit([flip, keep], SparsePoint({0: 5}), 100, 100)
    assert orbit_set == frozenset({SparsePoint({0: 5}), SparsePoint({0: -5})})


def test_closure_rejects_empty_generators_and_bad_limits():
    with pytest.raises(ValueError):
        orbit_closure([], SparsePoint(), 10, 10)
    with pytest.raises(ValueError):
        orbit_closure([FiniteComponentMap({})], SparsePoint(), 0, 10)
    # a fractional limit is never reached, so the walk would stop on the other one,
    # and True would run as a limit of 1
    inc = FiniteComponentMap({0: variable(0) + 1})
    for max_points, max_depth in ((2.5, 50), (50, 2.5), ("2", 50), (True, 50), (50, True)):
        with pytest.raises(ValueError, match="integers"):
            orbit_closure([inc], SparsePoint({0: 1}), max_points, max_depth)


def test_closure_limits_fire_honestly():
    inc = FiniteComponentMap({0: variable(0) + 1})
    assert orbit_closure([inc], SparsePoint(), 5, 100) == Unknown(
        points_explored=5, budget_hit="max_points"
    )
    assert orbit_closure([inc], SparsePoint(), 100, 5) == Unknown(
        points_explored=6, budget_hit="max_depth"
    )


# A point uses coordinates 0-5; a move may also read 6 or 7, which stay absent
# until a constant sets them, so moves delete coordinates as well as move them.
COORDS = range(8)
components = st.one_of(
    st.builds(lambda c, j: c * variable(j), st.sampled_from((1, -1, 2)), st.sampled_from(COORDS)),
    st.sampled_from((1, -2, 3)).map(constant),
    st.just(constant(0)),
)
component_maps = st.dictionaries(
    st.sampled_from(COORDS), components, min_size=1, max_size=4).map(FiniteComponentMap)
# linear rules keep values small: the identity, a sign flip, shifts toward the
# origin (cells fall off the quadrant), their sum, and a shift away from it
GRID_RULES = (variable(0), -variable(0), variable(5), variable(7),
              variable(5) + variable(7), variable(4))
grid_maps = st.sampled_from(GRID_RULES).map(lambda rule: GridRuleMap(rule, cantor_pairing()))
generator_lists = st.tuples(st.lists(component_maps, min_size=1, max_size=3),
                            st.lists(grid_maps, max_size=1)).flatmap(
    lambda parts: st.permutations(parts[0] + parts[1]))
small_points = st.dictionaries(
    st.integers(0, 5), st.integers(-3, 3).filter(bool), max_size=4).map(SparsePoint)


def check_against_reference(gens, x, max_points, max_depth):
    expected, points, _ = reference_closure(gens, x, max_points, max_depth)
    assert orbit_closure(gens, x, max_points, max_depth) == expected
    verdict, keys = orbit._explore(gens, x, max_points, max_depth)
    assert verdict == expected
    assert {SparsePoint._from_key(key) for key in keys} == points
    orbit_set = enumerate_orbit(gens, x, max_points, max_depth)
    assert orbit_set == (frozenset(points) if isinstance(expected, Stable) else None)
    return expected


@given(generator_lists, small_points, st.integers(1, 40), st.integers(1, 8))
def test_closure_matches_the_point_storing_reference(gens, x, max_points, max_depth):
    check_against_reference(gens, x, max_points, max_depth)
    verdict = check_against_reference(gens, x, 200, 30)
    if not isinstance(verdict, Stable):
        return
    # limits exactly at the orbit's size and depth close it; one below does not
    _, _, depth = reference_closure(gens, x, 200, 30)
    size = verdict.orbit_size
    assert check_against_reference(gens, x, size, depth) == verdict
    if size > 1:
        assert check_against_reference(gens, x, size - 1, depth) == Unknown(size - 1, "max_points")
    if depth > 1:
        assert check_against_reference(gens, x, size, depth - 1) == Unknown(size, "max_depth")
    if size > 1 and depth > 1:
        check_against_reference(gens, x, size - 1, depth - 1)


# moves only: scaled reads of any coordinate (6 and 7 are absent from the points,
# so such a read deletes its coordinate), sign flips c: -1*x_c, and a swap
move_components = st.builds(lambda c, j: c * variable(j),
                            st.sampled_from((1, -1, 2, 3)), st.sampled_from(COORDS))


@st.composite
def move_maps(draw):
    table = draw(st.dictionaries(st.sampled_from(COORDS), move_components, max_size=3))
    for coord in draw(st.lists(st.sampled_from(COORDS), max_size=2)):
        table[coord] = -variable(coord)
    if draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(COORDS), min_size=2, max_size=2, unique=True))
        table[a], table[b] = variable(b), variable(a)
    return FiniteComponentMap(table)


# move-only maps mixed with a map that may have a general component and a grid map
mixed_generator_lists = st.tuples(st.lists(move_maps(), min_size=1, max_size=3),
                                  st.lists(component_maps, max_size=1),
                                  st.lists(grid_maps, max_size=1)).flatmap(
    lambda parts: st.permutations(parts[0] + parts[1] + parts[2]))
# the empty point and one-coordinate points, drawn as often as larger ones
edge_points = st.one_of(
    st.just(SparsePoint()),
    st.builds(lambda c, v: SparsePoint({c: v}), st.integers(0, 5), st.integers(-3, 3).filter(bool)),
    small_points)


@given(mixed_generator_lists, edge_points, st.integers(1, 40), st.integers(1, 8))
def test_move_only_closures_match_the_point_storing_reference(gens, x, max_points, max_depth):
    check_against_reference(gens, x, max_points, max_depth)
    check_against_reference(gens, x, 200, 30)


@given(move_maps(), st.lists(edge_points, min_size=1, max_size=6))
def test_key_mover_matches_apply(g, points):
    # several points, so later ones reuse plans built for earlier layouts
    move = g._key_mover(points[0]._key())
    for p in points * 2:
        assert move(p._key()) == g.apply(p)._key()


def test_key_mover_on_empty_and_one_coordinate_keys():
    swap = FiniteComponentMap({0: variable(1), 1: variable(0)})._key_mover(((),))
    assert swap(((),)) == ((),)
    assert swap(((0,), 5)) == ((1,), 5)
    assert swap(((1,), 5)) == ((0,), 5)
    layout = (0, 1)
    image = swap((layout, 5, 7))
    assert image == ((0, 1), 7, 5)
    # an unchanged layout is handed out as the source's own object
    assert image[0] is layout
    assert FiniteComponentMap({0: variable(6)})._key_mover(((0,), 5))(((0,), 5)) == ((),)
    key = ((2,), 4)
    assert FiniteComponentMap({0: -3 * variable(2)})._key_mover(key)(key) == ((0, 2), -12, 4)


def test_a_general_component_has_no_key_mover():
    start = SparsePoint({0: 1})._key()
    assert FiniteComponentMap({0: variable(0) + 1, 1: variable(0)})._key_mover(start) is None
    assert FiniteComponentMap({0: constant(0)})._key_mover(start) is None


def test_sign_flips_hand_out_the_start_values():
    v = 2**100 + 1
    start = SparsePoint({0: v, 1: -v, 2: v})._key()
    flip = FiniteComponentMap({0: -variable(0), 1: -variable(1)})._key_mover(start)
    image = flip(start)
    assert image == SparsePoint({0: -v, 1: v, 2: v})._key()
    assert image[0] is start[0]
    # v and -v were both in the start: each flips to the other's object
    assert image[1] is start[2] and image[2] is start[1]
    # a value the start lacks is negated as a new int
    assert flip((start[0], 5 * v, 3, v))[1:] == (-5 * v, -3, v)


# signed values that the negation table must handle: the start holds v and -v
# and repeats a value; large bases, so that a negation allocates a new int
@st.composite
def signed_points(draw):
    base = draw(st.sampled_from((1, 2**100)))
    v = base + draw(st.integers(0, 2))
    a, b, c = draw(st.lists(st.sampled_from(COORDS[:6]), min_size=3, max_size=3, unique=True))
    entries = draw(st.dictionaries(
        st.integers(0, 5), st.sampled_from((-1, 1)).map(lambda sign: sign * (base + 3)),
        max_size=3))
    entries.update({a: v, b: -v, c: v})
    return SparsePoint(entries)


# sign flips and swaps mixed with 2*x_j and -3*x_j moves
flip_components = st.builds(lambda c, j: c * variable(j),
                            st.sampled_from((1, -1, -1, 2, -3)), st.sampled_from(COORDS))
flip_maps = st.dictionaries(st.sampled_from(COORDS), flip_components, min_size=1,
                            max_size=3).map(FiniteComponentMap)


@given(st.lists(flip_maps, min_size=1, max_size=3), signed_points(), st.integers(1, 40))
def test_the_negation_table_matches_apply_and_the_reference(gens, x, max_points):
    check_against_reference(gens, x, max_points, 8)
    check_against_reference(gens, x, 200, 30)
    start = x._key()
    _, keys = orbit._explore(gens, x, 200, 30)
    for g in gens:
        move = g._key_mover(start)
        for key in keys:
            assert move(key) == g.apply(SparsePoint._from_key(key))._key()
        # built once from the start's values and never grown
        assert len(inspect.getclosurevars(move).nonlocals["negate"]) <= 2 * len(x)
    if all(abs(coeff) == 1 for g in gens for poly in g.components.values()
           for coeff in poly.terms.values()):
        # only the start's values and one negation of each ever appear
        assert len({id(v) for key in keys for v in key[1:]}) <= 2 * len(x)


def small_b5(base=0):
    """B_5 acting on coordinates 0-4 of a point holding base + 1 to base + 7 on
    coordinates 0-6, generated by a swap, a 5-cycle and a sign flip.  The action
    is free, so the orbit has 2^5 * 5! = 3840 points."""
    x = SparsePoint({c: base + c + 1 for c in range(7)})
    swap = FiniteComponentMap({0: variable(1), 1: variable(0)})
    cycle = FiniteComponentMap({i: variable((i + 1) % 5) for i in range(5)})
    flip = FiniteComponentMap({0: -variable(0)})
    return [swap, cycle, flip], x


def test_closure_stores_a_point_in_under_320_bytes():
    # the keys take about 140 bytes a point here, SparsePoint objects in a set about 470
    gens, x = small_b5()
    tracemalloc.start()
    try:
        verdict = orbit_closure(gens, x, 100_000, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == Stable(3840)
    assert peak / 3840 < 320


def test_big_valued_closure_shares_one_layout_and_the_start_values():
    # values of 101 bits, so a negation is a new int, not a cached small one
    gens, x = small_b5(2**100)
    tracemalloc.start()
    try:
        verdict = orbit_closure(gens, x, 100_000, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == Stable(3840)
    # about 140 bytes a point, where 16-slot flat keys and a new int per flip took 210
    assert peak / 3840 < 170
    _, keys = orbit._explore(gens, x, 100_000, 10_000)
    assert len(keys) == 3840
    assert len({id(key[0]) for key in keys}) == 1
    assert next(iter(keys))[0] == tuple(range(7))
    assert len({id(v) for key in keys for v in key[1:]}) <= 2 * 7


def test_closure_never_hashes_or_compares_points(monkeypatch):
    calls = count_calls(monkeypatch, SparsePoint, "__hash__", "__eq__")
    gens, x = small_b5()
    assert orbit_closure(gens, x, 100_000, 10_000) == Stable(3840)
    assert calls == []


def test_move_only_closure_never_applies_a_map(monkeypatch):
    calls = count_calls(monkeypatch, FiniteComponentMap, "apply")
    gens, x = small_b5()
    assert orbit_closure(gens, x, 100_000, 10_000) == Stable(3840)
    assert calls == []


def test_move_only_singleton_walk_never_applies_hashes_or_compares_points(monkeypatch):
    [_, cycle, _], x = small_b5()
    expected = reference_singleton(cycle, x, 100)
    assert expected == Stable(5, (0, 5))
    applies = count_calls(monkeypatch, FiniteComponentMap, "apply")
    point_calls = count_calls(monkeypatch, SparsePoint, "__hash__", "__eq__")
    assert is_stable_singleton(cycle, x, 100) == expected
    assert applies == point_calls == []


singleton_maps = st.one_of(move_maps(), component_maps, grid_maps)
# points on most of coordinates 0-5, so the maps' components mostly read nonzero values
full_points = st.dictionaries(
    st.integers(0, 5), st.integers(-3, 3).filter(bool), min_size=4).map(SparsePoint)


@given(singleton_maps, st.one_of(full_points, edge_points), st.integers(1, 40))
def test_singleton_walk_matches_the_point_storing_reference(f, x, budget):
    assert is_stable_singleton(f, x, budget) == reference_singleton(f, x, budget)


def test_a_general_component_is_applied_once_per_frontier_point(monkeypatch):
    # x0 grows by x1^2 = 4 and x1 flips sign: two new points per level, so a
    # depth limit of 4 expands the start and the points of levels 1 to 3
    calls = count_calls(monkeypatch, FiniteComponentMap, "apply")
    flip = FiniteComponentMap({1: -variable(1)})
    grow = FiniteComponentMap({0: variable(0) + variable(1) ** 2})
    verdict = orbit_closure([flip, grow], SparsePoint({0: 1, 1: 2}), 100, 4)
    assert verdict == Unknown(points_explored=9, budget_hit="max_depth")
    assert calls == ["apply"] * 7


def test_orbit_always_contains_the_start_point():
    rng = random.Random(17)
    for _ in range(20):
        f = random_component_map(rng)
        x = random_start(rng)
        pts = enumerate_orbit([f], x, 16, 16)
        if pts is not None:
            assert x in pts


def test_closure_soundness_audit():
    # limits kept small: a diverging degree-2 map squares its values every
    # level, so deep exploration means huge integers, not more coverage
    rng = random.Random(18)
    checked = 0
    for _ in range(30):
        gens = [random_component_map(rng) for _ in range(rng.randint(1, 2))]
        x = random_start(rng)
        pts = enumerate_orbit(gens, x, 16, 16)
        if pts is None:
            continue
        checked += 1
        for p in pts:
            for g in gens:
                assert g.apply(p) in pts
    assert checked >= 5


def test_singleton_and_closure_agree_under_matched_budgets():
    rng = random.Random(20240811)
    stable_seen = unknown_seen = 0
    for _ in range(50):
        f = random_component_map(rng)
        x = random_start(rng)
        sv = is_stable_singleton(f, x, 16)
        cv = orbit_closure([f], x, max_points=16, max_depth=16)
        assert isinstance(sv, Stable) == isinstance(cv, Stable)
        if isinstance(sv, Stable):
            stable_seen += 1
            assert sv.orbit_size == cv.orbit_size
        else:
            unknown_seen += 1
    assert stable_seen >= 10 and unknown_seen >= 10


def test_stable_verdicts_are_budget_monotone():
    rng = random.Random(19)
    for _ in range(40):
        f = random_component_map(rng)
        x = random_start(rng)
        small = is_stable_singleton(f, x, 12)
        if isinstance(small, Stable):
            large = is_stable_singleton(f, x, 12 + 17)
            assert large == small


def test_reduction_fidelity_against_life_recurrence():
    phi = build_gol_map()
    budget = 32
    rng = random.Random(20)
    cases = [
        life.translate(BLOCK, 2, 2),
        life.translate(BLINKER, 2, 2),
        life.translate(TOAD, 2, 2),
        life.translate(GLIDER, 10, 10),
    ]
    cases += [life.random_soup(rng, 6, 0.4, origin=(40, 40)) for _ in range(6)]
    for config in cases:
        # the equivalence is asserted only while the evolution stays safe
        probe = config
        safe = True
        for _ in range(budget):
            if not quadrant_safe(probe):
                safe = False
                break
            probe = life.step(probe)
        if not safe:
            continue
        life_verdict = cycles.detect_hashset(life.step, config, budget)
        poly_verdict = is_stable_singleton(phi, encode(config), budget)
        assert isinstance(poly_verdict, Stable) == isinstance(life_verdict, cycles.Periodic)
        if isinstance(poly_verdict, Stable):
            expected = (life_verdict.preperiod, life_verdict.period)
            assert poly_verdict.witness == expected
            assert poly_verdict.orbit_size == sum(expected)


def test_glider_is_unknown_exact_states_never_recur():
    phi = build_gol_map()
    x = encode(life.translate(GLIDER, 10, 10))
    verdict = is_stable_singleton(phi, x, 1000)
    assert verdict == Unknown(points_explored=1001, budget_hit="budget")


def test_report_lines_exact():
    assert (
        report_line(Stable(orbit_size=2, witness=(0, 2)))
        == "verdict=stable orbit_size=2 preperiod=0 period=2"
    )
    assert report_line(Stable(orbit_size=3)) == "verdict=stable orbit_size=3"
    assert (
        report_line(Unknown(points_explored=100000, budget_hit="max_points"))
        == "verdict=unknown points=100000 limit=max_points"
    )
    with pytest.raises(TypeError):
        report_line(None)


def test_stable_validation():
    with pytest.raises(ValueError):
        Stable(orbit_size=0)
