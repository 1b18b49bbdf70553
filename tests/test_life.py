import hashlib
import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitkit import life
from orbitkit.life import (
    RleParseError,
    bounding_box,
    emit_rle,
    parse_rle,
    render,
    step,
    translate,
)

from helpers import (
    BEEHIVE,
    BLINKER,
    BLINKER_RLE,
    BLOCK,
    GLIDER,
    GLIDER_RLE,
    TUB,
    dense_step,
    neighbor_count,
    neighbors,
    reference_random_soup,
    reference_step,
)

cells = st.tuples(st.integers(-8, 8), st.integers(-8, 8))
configs = st.frozensets(cells, max_size=30)


def test_step_empty():
    assert step(frozenset()) == frozenset()


def test_step_blinker_rotates():
    assert step(BLINKER) == frozenset({(1, -1), (1, 0), (1, 1)})


def test_step_block_is_fixed():
    assert step(BLOCK) == BLOCK


def test_glider_translates_by_one_one_in_four_steps():
    config = GLIDER
    for _ in range(4):
        config = step(config)
    assert config == translate(GLIDER, 1, 1)


@given(configs, st.integers(-5, 5), st.integers(-5, 5))
def test_step_commutes_with_translation(c, dx, dy):
    assert step(translate(c, dx, dy)) == translate(step(c), dx, dy)


@given(configs)
def test_step_support_stays_in_dilation(c):
    dilated = set(c)
    for cell in c:
        dilated.update(neighbors(cell))
    assert step(c) <= dilated


@given(configs)
def test_step_matches_dense_reference(c):
    assert step(c) == dense_step(c)


# a dense cluster and a few cells nearby or up to 10**12 away, negative
# coordinates included, so that either side of the packed/Counter switch runs
near_or_far = st.one_of(st.integers(-60, 60), st.integers(-(10**12), 10**12))
mixed_configs = st.builds(frozenset.union, configs,
                          st.frozensets(st.tuples(near_or_far, near_or_far), max_size=3))


@given(mixed_configs)
def test_step_matches_sparse_reference_on_either_path(c):
    expected = reference_step(c)
    assert step(c) == expected
    with mock.patch.object(life, "_PACKED_BITS_PER_CELL", 0):
        assert step(c) == expected
    if all(abs(x) < 100 and abs(y) < 100 for x, y in c):
        with mock.patch.object(life, "_PACKED_BITS_PER_CELL", 10**9):
            assert step(c) == expected


def test_step_on_cells_far_apart_stays_small():
    # three blocks 10**12 and more apart: the packed path would need a 10**24-bit int
    far = BLOCK | translate(BLOCK, 10**12, -(10**12)) | translate(BLOCK, -(10**12), 10**12)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        got = step(far)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == far
    assert elapsed < 1.0
    assert peak < 2**20


def test_still_life_characterization_on_known_patterns():
    for pattern in (BLOCK, BEEHIVE, TUB):
        for cell in pattern:
            assert neighbor_count(pattern, cell) in (2, 3)
        assert step(pattern) == pattern


@given(configs)
def test_fixed_point_iff_local_conditions(c):
    survivors_ok = all(neighbor_count(c, cell) in (2, 3) for cell in c)
    candidates = {n for cell in c for n in neighbors(cell)} - c
    no_births = all(neighbor_count(c, cell) != 3 for cell in candidates)
    assert (step(c) == c) == (survivors_ok and no_births)


def test_thousand_random_soups_match_dense_reference():
    rng = random.Random(20240811)
    densities = (0.1, 0.2, 0.3, 0.4, 0.5)
    for i in range(1000):
        soup = life.random_soup(rng, 16, densities[i % 5])
        assert step(soup) == dense_step(soup)


def test_random_soup_is_seed_deterministic():
    a = life.random_soup(random.Random(3), 10, 0.4)
    b = life.random_soup(random.Random(3), 10, 0.4)
    assert a == b


def test_random_soup_matches_the_reference_and_draws_once_per_cell():
    pick = random.Random(28)
    for size in range(21):
        for density in (0, 1, 0.5, *(pick.random() for _ in range(4))):
            seed, origin = pick.randrange(1 << 30), (pick.randint(-5, 5), pick.randint(-5, 5))
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert (life.random_soup(rng, size, density, origin)
                        == reference_random_soup(ref, size, density, origin))
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("start, stop", [(0, 0), (0, 5), (2, 5), (5, 5), (4, 9)])
def test_seeded_soups_are_a_share_of_one_seeded_stream(start, stop):
    rng = random.Random(11)
    stream = [life.random_soup(rng, 7, 0.35, origin=(1, 1)) for _ in range(9)]
    assert list(life.seeded_soups(11, start, stop, 7, 0.35, origin=(1, 1))) == stream[start:stop]


def test_skipping_soups_leaves_the_state_that_drawing_them_leaves(monkeypatch):
    made = []
    Random = random.Random

    class Recorded(Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recorded)
    for size in range(21):
        for start in range(6):
            # no soup is yielded, so the generator's state is the skip's alone
            assert list(life.seeded_soups(size * 7 + start, start, start, size, 0.5)) == []
            [skipped] = made
            del made[:]
            drawn = Random(size * 7 + start)
            for _ in range(start * size * size):
                drawn.random()
            assert skipped.getstate() == drawn.getstate()


def test_parse_blinker():
    assert parse_rle(BLINKER_RLE) == BLINKER


def test_parse_glider():
    assert parse_rle(GLIDER_RLE) == GLIDER


def test_parse_ignores_comments_rule_and_trailing_text():
    text = "#N glider\n#C heading SE\nx = 3, y = 3, rule = B3/S23\nbob$2bo$3o!extra ignored"
    assert parse_rle(text) == GLIDER


def test_parse_multiline_body_and_multi_digit_counts():
    text = "x = 12, y = 2\n10o2b$\n12o!"
    expected = {(x, 0) for x in range(10)} | {(x, 1) for x in range(12)}
    assert parse_rle(text) == frozenset(expected)
    # a count may be split by whitespace or a line break, and may be 0
    assert parse_rle("x = 12, y = 1\n1 2o!") == frozenset((x, 0) for x in range(12))
    assert parse_rle("x = 12, y = 1\n1\n2o!") == frozenset((x, 0) for x in range(12))
    assert parse_rle("x = 3, y = 2\n0o0$o!") == frozenset({(0, 0)})


def test_parse_skips_comment_lines_inside_the_body():
    # a "#" line may come between body rows, and may split a run count
    assert parse_rle("x = 3, y = 3\nbo$\n#C between rows\n2bo$3o!") == GLIDER
    text = "x = 12, y = 1\n1\n  #C inside a count\n2o!"
    assert parse_rle(text) == frozenset((x, 0) for x in range(12))


def test_parse_errors_carry_position():
    with pytest.raises(RleParseError) as exc:
        parse_rle("x = 3; y = 1\n3o!")
    assert "header" in str(exc.value)

    with pytest.raises(RleParseError) as exc:
        parse_rle("x = 3, y = 1\n3q!")
    assert exc.value.line == 2 and exc.value.column == 2

    with pytest.raises(RleParseError) as exc:
        parse_rle("x = 3, y = 1\n3o")
    assert "terminator" in str(exc.value)

    with pytest.raises(RleParseError) as exc:
        parse_rle("x = 3, y = 1\n3o2!")
    assert "run count before terminator" in str(exc.value)
    assert exc.value.line == 2 and exc.value.column == 4

    with pytest.raises(RleParseError):
        parse_rle("")


def test_parse_reads_a_long_run_count_in_linear_time():
    digits = "7" * 10**6
    started = time.perf_counter()
    with pytest.raises(RleParseError, match="outside the declared 3 x 1 box") as exc:
        parse_rle(f"x = 3, y = 1\n{digits}o!")
    assert time.perf_counter() - started < 1
    assert (exc.value.line, exc.value.column) == (2, 10**6 + 1)
    # a dead run or a row break past the box is still accepted, and a zero-count
    # live run after it checks nothing, as with the count in full
    row = frozenset({(0, 0), (1, 0), (2, 0)})
    assert parse_rle(f"x = 3, y = 1\n3o{digits}b!") == row
    assert parse_rle(f"x = 3, y = 1\n3o{digits}$!") == row
    assert parse_rle(f"x = 3, y = 2\n3o{digits}b0o$o!") == row | {(0, 1)}
    # leading zeros leave a count as it is
    assert parse_rle("x = 3, y = 1\n" + "0" * 10**5 + "3o!") == row
    with pytest.raises(RleParseError, match="outside the declared 3 x 1 box"):
        parse_rle("x = 3, y = 1\n" + "0" * 10**5 + "4o!")


def test_parse_keeps_live_cells_inside_the_declared_box():
    # dead runs may pass the box's edge; a live cell may not
    assert parse_rle("x = 3, y = 2\n3o5b$2bo3b2$!") == frozenset({(0, 0), (1, 0), (2, 0), (2, 1)})
    with pytest.raises(RleParseError) as exc:
        parse_rle("x = 3, y = 1\nb3o!")
    assert "outside the declared 3 x 1 box" in str(exc.value)
    assert (exc.value.line, exc.value.column) == (2, 3)
    with pytest.raises(RleParseError, match="outside the declared 3 x 1 box"):
        parse_rle("x = 3, y = 1\no$o!")
    with pytest.raises(RleParseError, match="outside the declared 0 x 0 box"):
        parse_rle("x = 0, y = 0\no!")


def test_parse_caps_the_live_cells_before_expanding_a_run():
    cap = life.MAX_RLE_CELLS
    assert len(parse_rle(f"x = {cap}, y = 1\n{cap}o!")) == cap
    started = time.perf_counter()
    with pytest.raises(RleParseError, match=f"more than {cap} live cells") as exc:
        parse_rle("x = 1000000, y = 1\n1000000o!")
    assert time.perf_counter() - started < 1
    assert (exc.value.line, exc.value.column) == (2, 8)
    # the cap counts every row's runs together
    half = cap // 2 + 1
    with pytest.raises(RleParseError, match="live cells") as exc:
        parse_rle(f"x = {half}, y = 2\n{half}o$\n{half}o!")
    assert (exc.value.line, exc.value.column) == (3, len(str(half)) + 1)
    # and a run laid over live cells again by a zero-count "$" counts again
    with pytest.raises(RleParseError, match="live cells"):
        parse_rle(f"x = {half}, y = 1\n{half}o0${half}o!")


# "²" is a digit to str.isdigit but not to int(), and "٣" (Arabic-Indic three) is
# one to both; the RLE dialect counts in ASCII digits only
@pytest.mark.parametrize("bad", ["x = ٣, y = 1\no!", "x = 1, y = 1\n²o!", "x = 3, y = 1\n٣o!"])
def test_parse_accepts_ascii_digits_only(bad):
    with pytest.raises(RleParseError):
        parse_rle(bad)


def test_emit_empty():
    assert emit_rle(frozenset()) == "x = 0, y = 0\n!"


def test_emit_blinker_round_trips_exactly():
    assert emit_rle(BLINKER) == BLINKER_RLE
    # trailing dead cells in a row are omitted on emission
    assert emit_rle(GLIDER) == "x = 3, y = 3\nbo$2bo$3o!"
    assert parse_rle(emit_rle(GLIDER)) == GLIDER


@given(configs)
def test_rle_round_trip_up_to_origin_translation(c):
    back = parse_rle(emit_rle(c))
    if not c:
        assert back == frozenset()
    else:
        x0, y0, _, _ = bounding_box(c)
        assert back == translate(c, -x0, -y0)


def test_emit_wraps_body_lines():
    rng = random.Random(9)
    big = life.random_soup(rng, 40, 0.5)
    text = emit_rle(big)
    body = text.splitlines()[1:]
    assert all(len(line) <= 70 for line in body)
    # the exact text is pinned, token order and line breaks included
    assert len(body) == 18
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "07f3207ff8a537edd5328783cefc5fae073d039bed18fa7513beb38f267d997f")
    assert parse_rle(text) == big  # soup already sits at the origin quadrant corner


def test_render():
    assert render(BLINKER) == "###"
    assert render(step(BLINKER)) == "#\n#\n#"
    assert render(frozenset()) == "(empty)"
    # a box past the pattern-file cap is refused before any row is built
    with pytest.raises(ValueError, match="a 317 x 316 grid has more than 100000 cells"):
        render(frozenset({(0, 0), (316, 315)}))
