"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them).

Every expected value is computed by an independent route, here or in
``helpers``: a hand-written next-state table, a dense-array grid engine, the
combinatorial neighbor counts, the hash-set walk as oracle for Brent,
and the grid engine as oracle for the polynomial map.
"""

import random
import time
from contextlib import contextmanager
from itertools import product
from math import comb

from orbitkit import cycles, life, lifepoly, orbit
from orbitkit.dynamics import SparsePoint, iterate
from orbitkit.turing import initial_config, parse_tm, step_fn

from helpers import (
    ACCEPT_ON_START,
    BLINKER,
    BLOCK,
    GLIDER,
    RIGHT_MOVER,
    STAY_LEFT_LOOPER,
    TOAD,
    dense_step,
    pattern_factors,
    pattern_term,
    random_component_map,
    reference_next_state,
    reference_pattern_sum,
    rho_step,
    total_degree,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL {title}")
        raise
    print(f"ACCEPTANCE {number} PASS {title}")


def test_criterion_1_truth_table_exact():
    with criterion(1, "local rule matches the next-state table on all 512 neighborhoods"):
        rule = lifepoly.build_local_rule()
        start = time.perf_counter()
        for bits in product((0, 1), repeat=9):
            assert rule.evaluate(dict(enumerate(bits))) == reference_next_state(bits)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"truth table took {elapsed:.3f}s (limit 1s)"


def test_criterion_2_pattern_count_and_form_agreement():
    with criterion(2, "140 degree-9 summands; expanded and un-expanded forms agree"):
        patterns = lifepoly.life_patterns()
        assert len(patterns) == comb(8, 3) + comb(8, 2) + comb(8, 3) == 140
        for bits in patterns:
            factors = pattern_factors(bits)
            assert len(factors) == 9
            assert all(total_degree(f) == 1 for f in factors)
            assert total_degree(pattern_term(bits)) == 9
        rule = lifepoly.build_local_rule()
        for bits in product((0, 1), repeat=9):
            assert rule.evaluate(dict(enumerate(bits))) == reference_pattern_sum(bits)


def test_criterion_3_commuting_square_on_1000_soups():
    with criterion(3, "decode∘apply∘encode equals the grid engine on 1000 seeded soups"):
        phi = lifepoly.build_gol_map()
        rng = random.Random(20240811)
        start = time.perf_counter()
        failures = 0
        for _ in range(1000):
            soup = life.random_soup(rng, 16, 0.3, origin=(1, 1))
            via_map = lifepoly.decode(phi.apply(lifepoly.encode(soup)))
            via_engine = life.step(soup)
            if via_map != via_engine or via_engine != dense_step(soup):
                failures += 1
        elapsed = time.perf_counter() - start
        assert failures == 0
        assert elapsed < 30.0, f"1000 soups took {elapsed:.1f}s (limit 30s)"


def test_criterion_4_reduction_fidelity_at_desk_scale():
    with criterion(4, "block/blinker/toad stable (sizes 1, 2, 2), glider unknown"):
        phi = lifepoly.build_gol_map()
        cases = [
            (life.translate(BLOCK, 2, 2), 1, (0, 1)),
            (life.translate(BLINKER, 2, 2), 2, (0, 2)),
            (life.translate(TOAD, 2, 2), 2, (0, 2)),
        ]
        for config, size, witness in cases:
            verdict = orbit.is_stable_singleton(phi, lifepoly.encode(config), 1000)
            assert verdict == orbit.Stable(orbit_size=size, witness=witness)
            # differential recurrence check straight on grid configurations
            engine_verdict = cycles.detect_hashset(life.step, config, 1000)
            assert engine_verdict == cycles.Periodic(*witness)
        glider = life.translate(GLIDER, 10, 10)
        verdict = orbit.is_stable_singleton(phi, lifepoly.encode(glider), 1000)
        assert verdict == orbit.Unknown(points_explored=1001, budget_hit="budget")
        assert cycles.detect_hashset(life.step, glider, 1000) == cycles.Exhausted(1000)


def test_criterion_5_cycle_detectors_agree():
    with criterion(5, "Brent and hash-set detectors agree on 200 random rho sequences"):
        rng = random.Random(424242)
        disagreements = 0
        for _ in range(200):
            lam = rng.randint(0, 50)
            mu = rng.randint(1, 50)
            step = rho_step(lam, mu)
            a = cycles.detect_hashset(step, 0, 100000)
            b = cycles.detect_brent(step, 0, 100000)
            if a != b or a != cycles.Periodic(lam, mu):
                disagreements += 1
        assert disagreements == 0


def test_criterion_6_turing_semantics():
    with criterion(6, "left-edge clamp, looper mu=1, right-mover exhausts, accept-on-start"):
        looper = parse_tm(STAY_LEFT_LOOPER)
        config = initial_config(looper, [])
        from orbitkit.turing import tm_step

        clamped = tm_step(looper, config)
        assert clamped.head == 0  # moved left from cell 0, stayed in place
        verdict = cycles.detect_hashset(step_fn(looper), config, 100)
        assert isinstance(verdict, cycles.Periodic) and verdict.period == 1

        mover = parse_tm(RIGHT_MOVER)
        for budget in (1, 10, 1000):
            start = initial_config(mover, [])
            assert cycles.detect_hashset(step_fn(mover), start, budget) == cycles.Exhausted(budget)

        accepter = parse_tm(ACCEPT_ON_START)
        start = initial_config(accepter, [])
        assert cycles.detect_hashset(step_fn(accepter), start, 100) == cycles.Terminated(0)


def test_criterion_7_singleton_consistency():
    with criterion(7, "orbit closure agrees with singleton cycle detection on 50 random maps"):
        rng = random.Random(20240811)
        stable_cases = 0
        for _ in range(50):
            f = random_component_map(rng)
            x = SparsePoint({c: rng.randint(-3, 3) for c in range(2)})
            singleton = orbit.is_stable_singleton(f, x, 16)
            closure = orbit.orbit_closure([f], x, max_points=16, max_depth=16)
            assert isinstance(singleton, orbit.Stable) == isinstance(closure, orbit.Stable)
            if isinstance(singleton, orbit.Stable):
                stable_cases += 1
                assert singleton.orbit_size == closure.orbit_size
        assert stable_cases >= 10  # the sample actually exercises both outcomes


def test_criterion_8_finite_support_and_value_range():
    with criterion(8, "100k fuzzed applies store no zeros; encoded configs stay 0/1"):
        rng = random.Random(99)
        applications = 0
        maps = [random_component_map(rng) for _ in range(200)]
        for f in maps:
            for _ in range(475):
                x = SparsePoint(
                    {c: rng.randint(-4, 4) for c in range(3) if rng.random() < 0.8}
                )
                y = f.apply(x)
                applications += 1
                assert all(v != 0 for _, v in y.items())
        phi = lifepoly.build_gol_map()
        for _ in range(5000):
            soup = life.random_soup(rng, 8, rng.choice((0.15, 0.3, 0.45)), origin=(1, 1))
            y = phi.apply(lifepoly.encode(soup))
            applications += 1
            assert all(v == 1 for _, v in y.items())  # nonzero by storage, 1 by rule
        assert applications == 200 * 475 + 5000 == 100000


def test_criterion_9_performance_floor():
    with criterion(9, "10k polynomial-map generations of the blinker inside 10s"):
        phi = lifepoly.build_gol_map()
        x = lifepoly.encode(life.translate(BLINKER, 2, 2))
        start = time.perf_counter()
        y = iterate(phi, x, 10000)
        elapsed = time.perf_counter() - start
        assert y == x  # even period, back to the start phase
        assert elapsed < 10.0, f"10k iterations took {elapsed:.2f}s (limit 10s)"
