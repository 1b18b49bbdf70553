"""Budgeted eventual-periodicity detection for deterministic step functions.

Both detectors walk the sequence ``start, step(start), ...`` and report
one of three verdicts: the sequence revisited a state (with exact
minimal preperiod and period), the step function signaled termination
by returning None (e.g. a Turing machine halting), or the budget ran
out first.  The budget counts step invocations, so verdicts are
reproducible across machines.  A halt is always reported as
Terminated; the CLI's ``tm periodicity --halt-as-fixed-point`` relabels
it as a period-1 cycle.

No total decision procedure is offered on purpose: eventual periodicity
is only semi-decidable, which is exactly what the Exhausted verdict
expresses.

``detect_hashset`` stores every visited state; ``detect_brent`` is
Brent's teleporting-turtle algorithm and keeps O(1) states, at the cost
of re-walking the sequence to pin down the preperiod.  Stored Turing
configurations share tape structure with each other, so for them the
hash-set walk costs O(1) memory per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional, TypeVar, Union

__all__ = [
    "CycleVerdict",
    "Exhausted",
    "Periodic",
    "Terminated",
    "detect_brent",
    "detect_hashset",
    "report_line",
]

S = TypeVar("S", bound=Hashable)
StepFn = Callable[[S], Optional[S]]


@dataclass(frozen=True)
class Periodic:
    """The trajectory revisits a state: minimal preperiod and minimal period."""

    preperiod: int
    period: int

    def __post_init__(self):
        if self.preperiod < 0 or self.period < 1:
            raise ValueError(f"invalid cycle shape ({self.preperiod}, {self.period})")


@dataclass(frozen=True)
class Terminated:
    """The step function signaled termination after ``steps`` transitions."""

    steps: int


@dataclass(frozen=True)
class Exhausted:
    """The budget ran out with no revisit and no termination."""

    budget: int


CycleVerdict = Union[Periodic, Terminated, Exhausted]


def detect_hashset(step: StepFn, start: S, budget: int) -> CycleVerdict:
    """Walk storing every state; the first revisit gives minimal (preperiod, period).

    In a deterministic sequence the first repeated state is the cycle
    entry, so the collision indices are exactly the minimal preperiod
    and period.
    """
    if not isinstance(budget, int) or budget < 0:
        raise ValueError("budget must be a non-negative integer")
    seen = {start: 0}
    state = start
    for used in range(1, budget + 1):
        state = step(state)
        if state is None:
            return Terminated(used - 1)
        first = seen.get(state)
        if first is not None:
            return Periodic(preperiod=first, period=used - first)
        seen[state] = used
    return Exhausted(budget)


class _OutOfBudget(Exception):
    pass


def detect_brent(step: StepFn, start: S, budget: int) -> CycleVerdict:
    """Brent's algorithm; agrees with :func:`detect_hashset` when it completes.

    Needs more step invocations than the hash-set walk (it re-walks the
    tail), so under a tight budget it may report Exhausted where the
    hash-set detector succeeds; the budget accounting is still exact.
    """
    if not isinstance(budget, int) or budget < 0:
        raise ValueError("budget must be a non-negative integer")
    used = 0

    def advance(state: S) -> Optional[S]:
        nonlocal used
        if used >= budget:
            raise _OutOfBudget
        used += 1
        return step(state)

    try:
        # Phase 1: find the period with a power-of-two teleporting turtle.
        # After each advance the hare's index is ``used``; when that advance
        # returns None, the state at index ``used - 1`` halted.
        hare = advance(start)
        if hare is None:
            return Terminated(used - 1)
        tortoise = start
        power = period = 1
        while tortoise != hare:
            if power == period:
                tortoise = hare
                power *= 2
                period = 0
            hare = advance(hare)
            if hare is None:
                return Terminated(used - 1)
            period += 1

        # Phase 2: re-walk two pointers `period` apart to find the preperiod.
        tortoise = start
        hare = start
        for _ in range(period):
            hare = advance(hare)
        preperiod = 0
        while tortoise != hare:
            tortoise = advance(tortoise)
            hare = advance(hare)
            if tortoise is None or hare is None:
                raise RuntimeError("step function terminated inside a detected cycle")
            preperiod += 1
        return Periodic(preperiod=preperiod, period=period)
    except _OutOfBudget:
        return Exhausted(budget)


def report_line(verdict: CycleVerdict) -> str:
    if isinstance(verdict, Periodic):
        return f"verdict=periodic preperiod={verdict.preperiod} period={verdict.period}"
    if isinstance(verdict, Terminated):
        return f"verdict=terminated steps={verdict.steps}"
    if isinstance(verdict, Exhausted):
        return f"verdict=exhausted budget={verdict.budget}"
    raise TypeError(f"not a cycle verdict: {verdict!r}")
