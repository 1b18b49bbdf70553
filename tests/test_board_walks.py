"""Walks of 0/1 grid rules on packed boards against the point-storing references."""

import time
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitkit import cli, life, orbit
from orbitkit.dynamics import (
    FiniteComponentMap, GridRuleMap, SparsePoint, _board, _cells, _key_walk)
from orbitkit.lifepoly import build_gol_map, build_local_rule, cantor_pairing, encode, pair, unpair
from orbitkit.orbit import is_stable_singleton
from orbitkit.polymap import parse_poly

from helpers import BLINKER, BLOCK, GLIDER, check_against_reference, reference_singleton

corrupt_map = lru_cache(maxsize=1)(lambda: GridRuleMap(cli._corrupted_rule(), cantor_pairing()))
# a map over a second pairing, Cantor's with the axes swapped, so a walk of two
# generators may step them through different pairings; its rule copies the N
# neighbor, a shift that swapping the axes turns into another, so the pairing
# shows in every image (the Life rule looks the same through either pairing)
transposed_map = lru_cache(maxsize=1)(lambda: GridRuleMap(
    parse_poly("x2"), (lambda a, b: pair(b, a), lambda n: unpair(n)[::-1])))
grid_rules = st.sampled_from([build_gol_map, corrupt_map, transposed_map]).map(lambda make: make())
# up to 8x8 live cells at offsets 0-3, so cells reach row 0 and column 0 and the
# map clips there; a far cell sometimes makes the box too sparse for a board
patterns = st.builds(
    lambda cells, dx, dy, far: encode({(a + dx, b + dy) for a, b in cells} | far),
    st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1),
    st.integers(0, 3), st.integers(0, 3),
    st.one_of(st.just(set()), st.builds(lambda a, b: {(a, b)}, st.integers(40, 300),
                                        st.integers(0, 300))),
)
# the glider mirrored left to right: it heads down and to the left
SW_GLIDER = frozenset((2 - a, b) for a, b in GLIDER)
GUN_RLE = ("x = 36, y = 9\n24bo$22bobo$12b2o6b2o12b2o$11bo3bo4b2o12b2o$2o8bo5bo3b2o$"
           "2o8bo3bob2o4bobo$10bo5bo7bo$11bo3bo$12b2o!")


def is_board(key):
    return type(key[0]) is int


def check_walk(gens, x, steps):
    """Step the walk from ``x`` through the generators in turn: each key decodes
    to the point that ``apply`` makes, and equals the start key of a walk from
    that point.  Returns the key kinds seen, as board flags."""
    key, walkers, point = _key_walk(gens, x)
    y = x
    kinds = {is_board(key)}
    for i in range(steps):
        key = walkers[i % len(gens)](key)
        y = gens[i % len(gens)].apply(y)
        assert point(key) == y
        assert key == _key_walk(gens, y)[0]
        kinds.add(is_board(key))
    return kinds


@given(grid_rules, patterns)
def test_board_steps_match_apply_and_the_key_of_the_image(g, x):
    check_walk([g], x, 30)


@given(grid_rules, grid_rules, patterns)
def test_two_generator_board_steps_match_apply(g, h, x):
    check_walk([g, h], x, 20)


@given(grid_rules, patterns, st.integers(1, 60))
def test_board_singleton_walk_matches_the_point_storing_reference(g, x, budget):
    assert is_stable_singleton(g, x, budget) == reference_singleton(g, x, budget)


@given(grid_rules, st.lists(grid_rules, max_size=1), patterns, st.integers(1, 40),
       st.integers(1, 8))
def test_board_closure_matches_the_point_storing_reference(g, more, x, max_points, max_depth):
    check_against_reference([g, *more], x, max_points, max_depth)


def test_a_walk_changes_key_kind_with_the_point():
    gol = build_gol_map()
    # a glider leaving a block: the box outgrows 1,024 bits a cell on the way
    x = encode(BLOCK | life.translate(GLIDER, 4, 4))
    assert check_walk([gol], x, 500) == {True, False}
    assert is_board(_key_walk([gol], x)[0])
    # a lone cell far from a blinker dies, and the blinker alone is a board
    x = encode(life.translate(BLINKER, 1, 1) | {(200, 200)})
    start, [step], _ = _key_walk([gol], x)
    assert not is_board(start) and is_board(step(start))
    assert check_walk([gol], x, 4) == {True, False}


def test_a_board_key_is_its_tight_box_at_a_stride_of_16():
    gol = build_gol_map()
    start, [step], _ = _key_walk([gol], encode(life.translate(BLINKER, 0, 5)))
    assert start == (0, 5, 16, 0b111)
    assert step(start) == (1, 4, 16, 1 | 1 << 16 | 1 << 32)
    # a vertical blinker on column 0 loses the cell its next phase has at -1
    start, [step], _ = _key_walk([gol], encode({(0, 4), (0, 5), (0, 6)}))
    assert start == (0, 4, 16, 1 | 1 << 16 | 1 << 32)
    assert step(start) == (0, 5, 16, 0b11)
    assert _key_walk([gol], encode({(a, 0) for a in range(14)}))[0][2] == 16
    assert _key_walk([gol], encode({(a, 0) for a in range(15)}))[0][2] == 32
    # a 15-cell row needs a stride of 32, and its image, 13 cells wide, one of 16
    start, [step], _ = _key_walk([gol], encode({(a, 5) for a in range(1, 16)}))
    assert start[2] == 32
    assert step(start) == (2, 4, 16, 0x1fff1fff1fff)


@pytest.mark.parametrize("cells, steps", [
    # a block and a blinker whose tight box is 14 and 15 cells wide by turns
    pytest.param(BLOCK | {(13, 4), (13, 5), (13, 6)}, 4, id="block-and-blinker"),
    # two gliders that pass each other 10 rows apart, two steps out of phase so
    # that their box narrows and widens by one cell at a time
    pytest.param(life.step(life.step(life.translate(GLIDER, 2, 2)))
                 | life.translate(SW_GLIDER, 20, 12), 60, id="passing-gliders"),
])
def test_a_board_step_frames_its_image_as_board_does_across_the_stride_edge(cells, steps):
    # a tight box 14 cells wide takes a stride of 16, and one 15 wide a stride of 32
    key, [step], _ = _key_walk([build_gol_map()], encode(cells))
    framed = []
    for _ in range(steps):
        key = step(key)
        assert key == _board(list(_cells(key)))
        xs = [a for a, _ in _cells(key)]
        framed.append((max(xs) - min(xs) + 1, key[2]))
    crossings = set(zip(framed, framed[1:]))
    assert ((14, 16), (15, 32)) in crossings and ((15, 32), (14, 16)) in crossings


def test_a_board_key_leaves_the_board_kind_at_an_unchanged_stride():
    gol = build_gol_map()
    # a block and, 700 rows below it, a lightweight spaceship heading down: the
    # box keeps a stride of 16 and outgrows 1,024 bits a live cell on the way
    lwss = life.parse_rle("x = 4, y = 5\nobo$3bo$3bo$o2bo$b3o!")
    x = encode(life.translate(BLOCK, 3, 3) | life.translate(lwss, 3, 700))
    key, [step], point = _key_walk([gol], x)
    y, strides = x, set()
    for _ in range(400):
        image = step(key)
        y = gol.apply(y)
        assert point(image) == y and image == _key_walk([gol], y)[0]
        if is_board(key) and not is_board(image):
            strides.add(key[2])
        key = image
    assert strides == {16}


def test_tuple_keys_where_no_board_walk_applies():
    gol = build_gol_map()
    block = encode(life.translate(BLOCK, 2, 2))
    with_a_two = SparsePoint({**dict(block.items()), pair(9, 9): 2})
    doubling = GridRuleMap(parse_poly("2*x0"), cantor_pairing())
    flip = FiniteComponentMap({0: parse_poly("-x0")})
    for gens, x in (([doubling], block), ([gol], with_a_two), ([gol, flip], block),
                    ([gol], SparsePoint()), ([gol, transposed_map()], block)):
        start, steps, point = _key_walk(gens, x)
        assert start == x._key() and point(start) == x
        for g, step in zip(gens, steps):
            assert step(start) == g.apply(x)._key()
    # one pairing is one pair of functions, however the pair was built
    assert is_board(_key_walk([gol, GridRuleMap(build_local_rule(), (pair, unpair))], block)[0])


def test_an_empty_image_is_the_empty_key():
    gol = build_gol_map()
    start, [step], point = _key_walk([gol], encode({(0, 0)}))
    assert is_board(start)
    assert step(start) == SparsePoint()._key() and point(step(start)) == SparsePoint()
    assert step(step(start)) == SparsePoint()._key()


def test_a_walk_on_cells_far_apart_stays_small():
    # two blocks about 10**12 apart: a board would need a 10**24-bit int
    block = {(1, 1), (2, 1), (1, 2), (2, 2)}
    x = encode(block | {(a + 10**12, b + 10**12 - 7) for a, b in block})
    gol = build_gol_map()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        key, [step], _ = _key_walk([gol], x)
        image = step(key)
        verdict = is_stable_singleton(gol, x, 20)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not is_board(key) and image == key == x._key()
    assert verdict == orbit.Stable(1, (0, 1))
    assert elapsed < 1.0
    assert peak < 2**20


def test_gun_walk_peaks_under_11_8_mib():
    # a Gosper gun sends a glider every 30 steps, so the orbit grows without end
    x = encode(life.translate(life.parse_rle(GUN_RLE), 5, 5))
    tracemalloc.start()
    try:
        verdict = is_stable_singleton(build_gol_map(), x, 1500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == orbit.Unknown(1501, "budget")
    assert peak <= 11.8 * 2**20
