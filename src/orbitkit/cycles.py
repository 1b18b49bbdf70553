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

``detect_hashset`` stores every visited state and hashes each one once;
``detect_brent`` is Brent's teleporting-turtle algorithm and keeps O(1)
states, at the cost of re-walking the sequence to pin down the
preperiod.  Stored Turing configurations share tape structure with each
other, so for them the hash-set walk costs O(1) memory per step.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional, TypeVar, Union

from . import _check_int

__all__ = [
    "CycleVerdict",
    "Exhausted",
    "Periodic",
    "Terminated",
    "detect_brent",
    "detect_hashset",
]

S = TypeVar("S", bound=Hashable)
StepFn = Callable[[S], Optional[S]]


class _Record:
    """Base of the value records (the verdicts and ``turing.TMDesc``):
    immutable, ``==`` only between records of the same type with equal
    fields, ``hash`` over the fields, and a ``Name(field=value, ...)`` repr.
    A subclass lists its fields in ``__slots__`` and sets them in
    ``__init__`` with ``object.__setattr__``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Periodic(_Record):
    """The trajectory revisits a state: minimal preperiod and minimal period."""

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: int, period: int):
        if preperiod < 0 or period < 1:
            raise ValueError(f"invalid cycle shape ({preperiod}, {period})")
        object.__setattr__(self, "preperiod", preperiod)
        object.__setattr__(self, "period", period)


class Terminated(_Record):
    """The step function signaled termination after ``steps`` transitions."""

    __slots__ = ("steps",)

    def __init__(self, steps: int):
        object.__setattr__(self, "steps", steps)


class Exhausted(_Record):
    """The budget ran out with no revisit and no termination."""

    __slots__ = ("budget",)

    def __init__(self, budget: int):
        object.__setattr__(self, "budget", budget)


CycleVerdict = Union[Periodic, Terminated, Exhausted]


def detect_hashset(step: StepFn, start: S, budget: int) -> CycleVerdict:
    """Walk storing every state; the first revisit gives minimal (preperiod, period).

    In a deterministic sequence the first repeated state is the cycle
    entry, so the collision indices are exactly the minimal preperiod
    and period.
    """
    _check_int(budget, "budget", 0)
    seen = {start: 0}
    state = start
    for used in range(1, budget + 1):
        state = step(state)
        if state is None:
            return Terminated(used - 1)
        first = seen.setdefault(state, used)
        if first != used:
            return Periodic(preperiod=first, period=used - first)
    return Exhausted(budget)


class _OutOfBudget(Exception):
    pass


def detect_brent(step: StepFn, start: S, budget: int) -> CycleVerdict:
    """Brent's algorithm; agrees with :func:`detect_hashset` when it completes.

    Needs more step invocations than the hash-set walk (it re-walks the
    tail), so under a tight budget it may report Exhausted where the
    hash-set detector succeeds; the budget accounting is still exact.
    """
    _check_int(budget, "budget", 0)
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
    """The verdict line that ``tm periodicity`` prints, built by :mod:`orbitkit.cli`;
    kept only while ``perfbench/tests`` checks the workload oracle through it."""
    from .cli import _cycle_verdict_line

    return _cycle_verdict_line(verdict)
