import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitkit.cycles import (
    Exhausted,
    Periodic,
    Terminated,
    detect_brent,
    detect_hashset,
    report_line,
)
from orbitkit.turing import initial_config, parse_tm, step_fn

from helpers import rho_step, terminating_step
from test_turing import WRITER


def test_modular_rotation_is_a_pure_cycle():
    verdict = detect_hashset(lambda n: (n + 1) % 5, 0, 100)
    assert verdict == Periodic(preperiod=0, period=5)


def test_constant_map_is_a_fixed_point_after_one_step():
    verdict = detect_hashset(lambda n: 7, 0, 100)
    assert verdict == Periodic(preperiod=1, period=1)


def test_injective_sequence_exhausts_budget():
    assert detect_hashset(lambda n: n + 1, 0, 1000) == Exhausted(1000)


def test_brent_on_small_rho():
    step = rho_step(3, 4)
    assert detect_brent(step, 0, 10000) == Periodic(3, 4)
    assert detect_brent(step, 0, 10000) == detect_hashset(step, 0, 10000)


def test_brent_on_pure_cycle():
    step = rho_step(0, 7)
    assert detect_brent(step, 0, 10000) == Periodic(0, 7)


def test_both_detectors_count_termination_identically():
    for length in (0, 1, 5, 17):
        step = terminating_step(length)
        assert detect_hashset(step, 0, 10000) == Terminated(length)
        assert detect_brent(step, 0, 10000) == Terminated(length)


def test_halting_tm_trajectory_terminates_at_same_step_count():
    m = parse_tm(WRITER)
    step = step_fn(m)
    start = initial_config(m, ["1"])
    assert detect_hashset(step, start, 100) == Terminated(1)
    assert detect_brent(step, start, 100) == Terminated(1)


def test_detectors_agree_on_200_random_rho_sequences():
    rng = random.Random(20240811)
    for _ in range(200):
        lam = rng.randint(0, 50)
        mu = rng.randint(1, 50)
        step = rho_step(lam, mu)
        a = detect_hashset(step, 0, 100000)
        b = detect_brent(step, 0, 100000)
        assert a == b == Periodic(lam, mu)


def test_periodic_verdict_is_minimal():
    rng = random.Random(15)
    for _ in range(50):
        lam = rng.randint(0, 20)
        mu = rng.randint(1, 20)
        step = rho_step(lam, mu)
        verdict = detect_hashset(step, 0, 10000)
        assert isinstance(verdict, Periodic)
        states = [0]
        for _ in range(verdict.preperiod + verdict.period):
            states.append(step(states[-1]))
        cycle = states[verdict.preperiod : verdict.preperiod + verdict.period]
        assert len(set(cycle)) == verdict.period  # mu is minimal for this entry
        assert states[verdict.preperiod + verdict.period] == states[verdict.preperiod]
        if verdict.preperiod:
            assert states[verdict.preperiod - 1] not in cycle  # lambda cannot shrink


def test_exhausted_is_sound_no_revisit_within_budget():
    rng = random.Random(16)
    for _ in range(50):
        lam = rng.randint(0, 50)
        mu = rng.randint(1, 50)
        budget = rng.randint(0, lam + mu - 1)  # too small to see the revisit
        step = rho_step(lam, mu)
        verdict = detect_hashset(step, 0, budget)
        assert verdict == Exhausted(budget)
        states = [0]
        for _ in range(budget):
            states.append(step(states[-1]))
        assert len(set(states)) == len(states)


def test_brent_exhausts_under_tight_budget():
    step = rho_step(10, 10)
    assert detect_brent(step, 0, 5) == Exhausted(5)


def _counting(step):
    calls = []

    def counted(state):
        calls.append(state)
        return step(state)

    return counted, calls


# every shape here completes within 60 calls: Brent needs at most 55, for rho(10, 10)
@given(st.one_of(
    st.builds(rho_step, st.integers(0, 10), st.integers(1, 10)),
    st.builds(terminating_step, st.integers(0, 40)),
))
def test_brent_budget_accounting_is_exact(step):
    completed = None  # verdict and call count at the first budget that completes
    for budget in range(61):
        counted, calls = _counting(step)
        verdict = detect_brent(counted, 0, budget)
        if completed is None and isinstance(verdict, Exhausted):
            assert verdict == Exhausted(budget) and len(calls) == budget
            continue
        if completed is None:
            completed = verdict, len(calls)
        assert verdict == completed[0] == detect_hashset(step, 0, budget)
        assert len(calls) == completed[1]
    assert completed is not None


def test_hashset_walk_hashes_each_visited_state_once():
    hashes = []

    class State:
        def __init__(self, n):
            self.n = n

        def __eq__(self, other):
            return self.n == other.n

        def __hash__(self):
            hashes.append(self.n)
            return hash(self.n)

    step = rho_step(3, 4)
    assert detect_hashset(lambda s: State(step(s.n)), State(0), 100) == Periodic(3, 4)
    assert hashes == [0, 1, 2, 3, 4, 5, 6, 3]  # the revisit of state 3 ends the walk
    hashes.clear()
    assert detect_hashset(lambda s: State(s.n + 1), State(0), 5) == Exhausted(5)
    assert hashes == [0, 1, 2, 3, 4, 5]


def test_budget_validation_and_edge():
    assert detect_hashset(lambda n: n + 1, 0, 0) == Exhausted(0)
    assert detect_brent(lambda n: n + 1, 0, 0) == Exhausted(0)
    with pytest.raises(ValueError):
        detect_hashset(lambda n: n, 0, -1)
    with pytest.raises(ValueError):
        detect_brent(lambda n: n, 0, -1)


@pytest.mark.parametrize("detect", [detect_hashset, detect_brent])
@pytest.mark.parametrize("budget", [True, False])
def test_budget_rejects_bool(detect, budget):
    # Exhausted(budget=True) would print a token no parser accepts
    with pytest.raises(ValueError, match="integer"):
        detect(lambda n: n + 1, 0, budget)


def test_verdict_validation():
    with pytest.raises(ValueError):
        Periodic(0, 0)
    with pytest.raises(ValueError):
        Periodic(-1, 2)


def test_report_lines_exact():
    assert report_line(Periodic(3, 4)) == "verdict=periodic preperiod=3 period=4"
    assert report_line(Terminated(17)) == "verdict=terminated steps=17"
    assert report_line(Exhausted(100000)) == "verdict=exhausted budget=100000"
    with pytest.raises(TypeError):
        report_line("periodic")
