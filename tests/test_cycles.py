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
)
from orbitkit.turing import initial_config, parse_tm, step_fn

from helpers import WRITER, rho_step, terminating_step


# (shape, step function from 0, budget, the verdict of both detectors)
SHAPES = [
    ("rotation-pure-cycle", lambda n: (n + 1) % 5, 100, Periodic(0, 5)),
    ("constant-fixed-point-after-one-step", lambda n: 7, 100, Periodic(1, 1)),
    ("injective-exhausts", lambda n: n + 1, 1000, Exhausted(1000)),
    ("small-rho", rho_step(3, 4), 10000, Periodic(3, 4)),
    ("pure-cycle", rho_step(0, 7), 10000, Periodic(0, 7)),
    ("rho-under-tight-budget", rho_step(10, 10), 5, Exhausted(5)),
]


@pytest.mark.parametrize("step, budget, verdict",
                         [pytest.param(*shape[1:], id=shape[0]) for shape in SHAPES])
def test_both_detectors_give_the_verdict_of_each_shape(step, budget, verdict):
    assert detect_hashset(step, 0, budget) == verdict
    assert detect_brent(step, 0, budget) == verdict


def test_both_detectors_count_termination_identically():
    for length in (0, 1, 5, 17):
        step = terminating_step(length)
        assert detect_hashset(step, 0, 10000) == Terminated(length)
        assert detect_brent(step, 0, 10000) == Terminated(length)


def test_brent_refuses_a_step_that_halts_on_its_second_visit_to_a_state():
    # 0 -> 1 -> 2 -> 2 as far as phase 1 sees; when phase 2 re-walks the tail,
    # state 1 halts instead, which no deterministic step function can do
    visits = {}

    def step(n):
        visits[n] = visits.get(n, 0) + 1
        return None if (n, visits[n]) == (1, 2) else min(n + 1, 2)

    with pytest.raises(RuntimeError, match="terminated inside a detected cycle"):
        detect_brent(step, 0, 100)
    assert visits[1] == 2


def test_halting_tm_trajectory_terminates_at_same_step_count():
    m = parse_tm(WRITER)
    step = step_fn(m)
    start = initial_config(m, ["1"])
    assert detect_hashset(step, start, 100) == Terminated(1)
    assert detect_brent(step, start, 100) == Terminated(1)


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
    # a bad budget is a case of tests/test_integer_arguments.py
    assert detect_hashset(lambda n: n + 1, 0, 0) == Exhausted(0)
    assert detect_brent(lambda n: n + 1, 0, 0) == Exhausted(0)


def test_verdict_validation():
    with pytest.raises(ValueError):
        Periodic(0, 0)
    with pytest.raises(ValueError):
        Periodic(-1, 2)
