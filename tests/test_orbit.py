import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit import cycles, life, orbit
from orbitkit.dynamics import FiniteComponentMap, GridRuleMap, SparsePoint, _key_walk
from orbitkit.lifepoly import build_gol_map, cantor_pairing, encode, quadrant_safe
from orbitkit.orbit import (
    Stable,
    Unknown,
    enumerate_orbit,
    is_stable_singleton,
    orbit_closure,
    report_line,
)
from orbitkit.polymap import constant, variable

from helpers import (
    BLINKER,
    BLOCK,
    GLIDER,
    TOAD,
    count_calls,
    random_component_map,
    reference_closure,
    reference_singleton,
)


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
        with pytest.raises(ValueError, match="must be an integer >= 1"):
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
    verdict, keys, point = orbit._explore(gens, x, max_points, max_depth)
    assert verdict == expected
    assert {point(key) for key in keys} == points
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


def check_steps(gens, x):
    """Each step of the walk from ``x`` sends every key of a bounded closure to
    the key of the image that ``apply`` makes, and distinct keys decode to
    distinct points.  Returns the walk's start key."""
    _, keys, point = orbit._explore(gens, x, 200, 30)
    start, steps, _ = _key_walk(gens, x)
    assert start in keys and point(start) == x
    assert len({point(key) for key in keys}) == len(keys)
    for g, step in zip(gens, steps):
        for key in keys:
            assert point(step(key)) == g.apply(point(key))
    return start


@given(move_maps(), edge_points)
def test_key_mover_matches_apply(g, x):
    check_steps([g], x)


def test_key_mover_on_empty_and_one_coordinate_keys():
    swap = FiniteComponentMap({0: variable(1), 1: variable(0)})
    # walks from fewer than two coordinates key points as tuples and apply
    start, [step], point = _key_walk([swap], SparsePoint())
    assert start == step(start) == ((),) and point(start) == SparsePoint()
    start, [step], point = _key_walk([swap], SparsePoint({0: 5}))
    assert start == ((0,), 5) and step(start) == ((1,), 5) and step(((1,), 5)) == start
    start, [step], _ = _key_walk([FiniteComponentMap({0: -variable(0)})], SparsePoint({0: 5}))
    image = step(start)
    # an unchanged layout is handed out as the source's own object
    assert image == ((0,), -5) and image[0] is start[0]
    start, [step], _ = _key_walk([FiniteComponentMap({0: variable(6)})], SparsePoint({0: 5}))
    assert step(start) == ((),)
    start, [step], _ = _key_walk([FiniteComponentMap({0: -3 * variable(2)})], SparsePoint({2: 4}))
    assert step(start) == ((0, 2), -12, 4)
    # from two coordinates a swap steps a code, one byte 2*k + sign per slot
    start, [step], point = _key_walk([swap], SparsePoint({0: 5, 1: 7}))
    assert start == bytes([0, 2]) and step(start) == bytes([2, 0])
    assert point(step(start)) == SparsePoint({0: 7, 1: 5}) and step(step(start)) == start


def test_a_general_component_has_no_key_mover(monkeypatch):
    x = SparsePoint({0: 1, 2: 3})
    calls = count_calls(monkeypatch, FiniteComponentMap, "apply")
    for g, image in ((FiniteComponentMap({0: variable(0) + 1, 1: variable(0)}), {0: 2, 1: 1, 2: 3}),
                     (FiniteComponentMap({0: constant(0)}), {2: 3})):
        start, [step], _ = _key_walk([g], x)
        assert start == x._key()
        assert step(start) == SparsePoint(image)._key()
    assert calls == ["apply"] * 2


# scaled moves, and unit moves that change the start's layout {0, 2}: from 0 to
# a coordinate outside it, from outside it to 2, and a swap with one side outside
APPLIED_MOVES = ({0: 2 * variable(0)}, {2: -3 * variable(0), 0: -variable(2)},
                 {1: -variable(0)}, {2: variable(3)}, {0: variable(1), 1: variable(0)})


@pytest.mark.parametrize("components", APPLIED_MOVES)
def test_scaled_and_layout_changing_moves_step_through_apply(monkeypatch, components):
    g = FiniteComponentMap(components)
    x = SparsePoint({0: 5, 2: 7})
    calls = count_calls(monkeypatch, FiniteComponentMap, "apply")
    # one apply per step: as many as the point-storing references make
    expected = reference_closure([g], x, 30, 6)[0]
    applies = len(calls)
    assert orbit_closure([g], x, 30, 6) == expected
    assert len(calls) == 2 * applies > 0
    del calls[:]
    expected = reference_singleton(g, x, 12)
    applies = len(calls)
    assert is_stable_singleton(g, x, 12) == expected
    assert len(calls) == 2 * applies > 0
    check_against_reference([g], x, 30, 6)
    # mixed with a sign flip, which then takes apply too
    check_against_reference([g, FiniteComponentMap({2: -variable(2)})], x, 30, 6)


def hyperoctahedral(n, base=0):
    """B_n acting on coordinates 0 to n - 1 of a point holding base + 1 to
    base + n + 2 on coordinates 0 to n + 1, generated by a swap, an n-cycle and
    a sign flip.  The action is free, so the orbit has 2^n * n! points."""
    x = SparsePoint({c: base + c + 1 for c in range(n + 2)})
    swap = FiniteComponentMap({0: variable(1), 1: variable(0)})
    cycle = FiniteComponentMap({i: variable((i + 1) % n) for i in range(n)})
    flip = FiniteComponentMap({0: -variable(0)})
    return [swap, cycle, flip], x


def test_a_mixed_generator_set_applies_every_generator(monkeypatch):
    # a swap of coordinate 6 with the absent 7 moves 6 out of the start's layout
    # and back, so the B_5 generators beside it take apply too: 7,680 points
    gens, x = hyperoctahedral(5)
    gens.append(FiniteComponentMap({6: variable(7), 7: variable(6)}))
    assert _key_walk(gens, x)[0] == x._key()
    calls = count_calls(monkeypatch, FiniteComponentMap, "apply")
    assert orbit_closure(gens, x, 100_000, 10_000) == Stable(7680)
    assert len(calls) == 4 * 7680


def test_sign_flips_hand_out_the_start_values():
    v, w = 2**100 + 1, 2**200 + 1
    x = SparsePoint({0: v, 1: -v, 2: v, 3: w})
    flip = FiniteComponentMap({0: -variable(0), 1: -variable(1), 3: -variable(3)})
    start, [step], point = _key_walk([flip], x)
    # v and -v are one magnitude, so a repeated v and a -v share its two codes
    assert start == bytes([0, 1, 0, 2])
    y = point(step(start))
    assert y == SparsePoint({0: -v, 1: v, 2: v, 3: -w})
    # v and -v were both in the start: each flips to the other's object
    assert y[0] is x[1] and y[1] is x[0]
    # -w, which the start lacks, is one int made once for the whole walk
    assert point(step(start))[3] is y[3]


# signed values that the codes must tell apart: the start holds v and -v
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
def test_signed_codes_match_apply_and_the_reference(gens, x, max_points):
    check_against_reference(gens, x, max_points, 8)
    check_against_reference(gens, x, 200, 30)
    start = check_steps(gens, x)
    if any(abs(coeff) > 1 for g in gens for poly in g.components.values()
           for coeff in poly.terms.values()):
        # a scaled map takes apply, and so does every map beside it
        assert start == x._key()
    elif type(start) is bytes:
        assert len(start) == len(x)
        orbit_set = enumerate_orbit(gens, x, 200, 30)
        if orbit_set is not None:
            # decoded points hold only the start's values and one negation of each
            assert len({id(v) for p in orbit_set for _, v in p.items()}) <= 2 * len(x)


# starts for walks under signed permutations: magnitudes repeated or held with
# both signs, big values, and in one draw of three the empty point, one
# coordinate, or 128 and 129 distinct magnitudes on either side of what one
# byte per slot can code
EDGE_STARTS = (SparsePoint(), SparsePoint({3: -2**70}), SparsePoint({0: 3}),
               *(SparsePoint({c: (-1) ** c * (c + 1) for c in range(n)}) for n in (128, 129)))
signed_starts = st.one_of(
    signed_points(),
    st.dictionaries(st.integers(0, 5), st.sampled_from((-2, -1, 1, 2)), min_size=2,
                    max_size=6).map(SparsePoint),
    st.sampled_from(EDGE_STARTS),
)


@st.composite
def signed_permutation_walks(draw):
    """A start and one to three maps, each a signed cycle of a few of the
    start's coordinates and one of a few coordinates outside them."""
    x = draw(signed_starts)
    inside = sorted(x.support())
    outside = [c for c in range(8) if c not in x.support()]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        table = {}
        for block in (inside, outside):
            moved = draw(st.lists(st.sampled_from(block), unique=True, max_size=4)) if block else []
            for c, j in zip(moved, moved[1:] + moved[:1]):
                table[c] = draw(st.sampled_from((1, -1))) * variable(j)
        gens.append(FiniteComponentMap(table))
    return gens, x


@settings(max_examples=200)
@given(signed_permutation_walks(), st.integers(1, 200), st.integers(1, 12))
def test_signed_permutation_walks_match_the_point_storing_references(walk, max_points, budget):
    gens, x = walk
    start = _key_walk(gens, x)[0]
    magnitudes = {abs(v) for _, v in x.items()}
    # every map keeps the start's layout, so only the start picks the keys
    assert (type(start) is bytes) == (len(x) > 1 and len(magnitudes) <= 128)
    check_against_reference(gens, x, max_points, 30)
    check_against_reference(gens, x, 200, 30)
    check_steps(gens, x)
    for g in gens:
        assert is_stable_singleton(g, x, budget) == reference_singleton(g, x, budget)


def test_closure_stores_a_point_in_under_90_bytes():
    # the codes take about 75 bytes a point here, key tuples took about 140,
    # SparsePoint objects in a set about 470
    gens, x = hyperoctahedral(5)
    tracemalloc.start()
    try:
        verdict = orbit_closure(gens, x, 100_000, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == Stable(3840)
    assert peak / 3840 < 90


def test_big_valued_closure_shares_one_layout_and_the_start_values():
    # values of 101 bits, so a negation is a new int, not a cached small one
    gens, x = hyperoctahedral(5, 2**100)
    tracemalloc.start()
    try:
        verdict = orbit_closure(gens, x, 100_000, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == Stable(3840)
    # about 75 bytes a point, where key tuples took 140 and flat keys 210
    assert peak / 3840 < 90
    # a key holds neither the layout nor a value: one byte a slot
    _, keys, point = orbit._explore(gens, x, 100_000, 10_000)
    assert len(keys) == 3840 and {type(key) for key in keys} == {bytes}
    assert {len(key) for key in keys} == {7}
    orbit_set = frozenset(map(point, keys))
    assert len(orbit_set) == 3840
    assert {p.support() for p in orbit_set} == {frozenset(range(7))}
    assert len({id(v) for p in orbit_set for _, v in p.items()}) <= 2 * 7


def test_b6_closure_peaks_under_4_5_mib():
    # the largest orbit a benchmark workload stores: 46,080 points of 8
    # coordinates holding 320-bit values
    gens, x = hyperoctahedral(6, 2**319)
    tracemalloc.start()
    try:
        verdict = orbit_closure(gens, x, 100_000, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == Stable(46080)
    assert peak <= 4.5 * 2**20


def test_closure_never_hashes_or_compares_points(monkeypatch):
    calls = count_calls(monkeypatch, SparsePoint, "__hash__", "__eq__")
    gens, x = hyperoctahedral(5)
    assert orbit_closure(gens, x, 100_000, 10_000) == Stable(3840)
    assert calls == []


def test_move_only_closure_never_applies_a_map(monkeypatch):
    calls = count_calls(monkeypatch, FiniteComponentMap, "apply")
    gens, x = hyperoctahedral(5)
    assert orbit_closure(gens, x, 100_000, 10_000) == Stable(3840)
    assert calls == []


def test_move_only_singleton_walk_never_applies_hashes_or_compares_points(monkeypatch):
    [_, cycle, _], x = hyperoctahedral(5)
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
    # depth limit of 4 expands the start and the points of levels 1 to 3; the
    # flip beside a general map applies too, one apply per generator and point
    calls = count_calls(monkeypatch, FiniteComponentMap, "apply")
    flip = FiniteComponentMap({1: -variable(1)})
    grow = FiniteComponentMap({0: variable(0) + variable(1) ** 2})
    x = SparsePoint({0: 1, 1: 2})
    expected = reference_closure([flip, grow], x, 100, 4)[0]
    assert expected == Unknown(points_explored=9, budget_hit="max_depth")
    assert len(calls) == 2 * 7
    del calls[:]
    assert orbit_closure([flip, grow], x, 100, 4) == expected
    assert calls == ["apply"] * 2 * 7


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
