"""Orbit finiteness (stability) semi-decision for polynomial maps.

A point is stable under a set of generator maps when its orbit under the
generated monoid (identity included, so the point itself counts) is
finite.  Stability is confirmed two ways:

* singleton generator: cycle detection on the iteration sequence, which
  also yields the (preperiod, period) witness;
* general finite generator sets: breadth-first closure with exact
  point equality, bounded by a point budget and a depth budget.

Both walks keep each point they store, and each point waiting in the
closure's frontier, as one key, and step keys through
:func:`orbitkit.dynamics._key_walk`, one function per generator, built
once from the generators and the start.  Membership is then a hash and
compare of the key.  :func:`~orbitkit.dynamics._key_walk` states the
three key kinds, byte codes, boards and tuples, and what each costs.

Instability can never be confirmed, only bounded exploration reported,
so the negative verdict is an honest ``Unknown``, not an error.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from . import _check_int, cycles
from .dynamics import PolyMapDesc, SparsePoint, _key_walk

__all__ = [
    "Stable",
    "StabilityVerdict",
    "Unknown",
    "enumerate_orbit",
    "is_stable_singleton",
    "orbit_closure",
]


class Stable(cycles._Record):
    """The explored orbit is finite and closed under every generator."""

    __slots__ = ("orbit_size", "witness")

    def __init__(self, orbit_size: int, witness: Optional[tuple[int, int]] = None):
        # witness is (preperiod, period) in the singleton case
        if orbit_size < 1:
            raise ValueError("a stable orbit contains at least the start point")
        object.__setattr__(self, "orbit_size", orbit_size)
        object.__setattr__(self, "witness", witness)


class Unknown(cycles._Record):
    """Exploration hit a limit before the orbit closed."""

    __slots__ = ("points_explored", "budget_hit")

    def __init__(self, points_explored: int, budget_hit: str):
        # budget_hit is "budget" | "max_points" | "max_depth"
        object.__setattr__(self, "points_explored", points_explored)
        object.__setattr__(self, "budget_hit", budget_hit)


StabilityVerdict = Union[Stable, Unknown]


def is_stable_singleton(f: PolyMapDesc, x: SparsePoint, budget: int) -> StabilityVerdict:
    """Stability under a single map, via cycle detection on n -> f(n).

    A Periodic(preperiod, period) verdict means the orbit is exactly the
    preperiod + period distinct points seen before the first revisit.
    """
    _check_int(budget, "budget", 1)
    start, [step], _ = _key_walk([f], x)
    verdict = cycles.detect_hashset(step, start, budget)
    if isinstance(verdict, cycles.Periodic):
        return Stable(
            orbit_size=verdict.preperiod + verdict.period,
            witness=(verdict.preperiod, verdict.period),
        )
    return Unknown(points_explored=budget + 1, budget_hit="budget")


def _explore(generators, x, max_points, max_depth):
    gens = list(generators)
    if not gens:
        raise ValueError("generator set must be nonempty")
    _check_int(max_points, "max_points", 1)
    _check_int(max_depth, "max_depth", 1)
    start, steps, point = _key_walk(gens, x)
    visited = {start}
    frontier = [start]
    depth = 0
    while frontier:
        if depth == max_depth:
            return Unknown(points_explored=len(visited), budget_hit="max_depth"), visited, point
        depth += 1
        next_frontier = []
        for key in frontier:
            for step in steps:
                y = step(key)
                # one hash per image: add, and see whether the set grew
                size = len(visited)
                visited.add(y)
                if len(visited) > size:
                    if size == max_points:
                        visited.remove(y)
                        return Unknown(points_explored=size, budget_hit="max_points"), visited, point
                    next_frontier.append(y)
        frontier = next_frontier
    return Stable(orbit_size=len(visited)), visited, point


def orbit_closure(
    generators: Sequence[PolyMapDesc], x: SparsePoint, max_points: int, max_depth: int
) -> StabilityVerdict:
    """Breadth-first closure of {x} under the generators.

    Stable exactly when the frontier empties within the limits; the
    reported orbit size counts x itself (the monoid's identity element).
    Each visited point is kept as one key, about 75 to 90 bytes for 7 or 8
    coordinates under swaps, cycles and sign flips (see
    :func:`~orbitkit.dynamics._key_walk`), so ``max_points`` bounds the
    closure's memory as well as its work.  A walk of codes holds besides
    them one gather per generator and one table of twice as many values
    as the start has distinct absolute values, so the bound holds for
    those too.
    """
    verdict, _, _ = _explore(generators, x, max_points, max_depth)
    return verdict


def enumerate_orbit(
    generators: Sequence[PolyMapDesc], x: SparsePoint, max_points: int, max_depth: int
) -> Optional[frozenset]:
    """The full orbit as a set, or None when a limit fires first.

    The closure runs on keys as in :func:`orbit_closure`; each point of a
    finite orbit is decoded from its key at the end by the walk's own
    key-to-point function, so the returned set of :class:`SparsePoint`
    objects, about 430 bytes a point for 7 or 8 coordinates, costs about
    five times what a closure of codes held.  Decoded values are the
    start's own ints and one negation of each, shared by every point.  A
    board decodes to a point with one pairing per live cell.
    """
    verdict, visited, point = _explore(generators, x, max_points, max_depth)
    if isinstance(verdict, Stable):
        return frozenset(map(point, visited))
    return None


def report_line(verdict: StabilityVerdict) -> str:
    """The verdict line that ``orbit check`` prints, built by :mod:`orbitkit.cli`;
    kept only while ``perfbench/tests`` checks the workload oracle through it."""
    from .cli import _stability_verdict_line

    return _stability_verdict_line(verdict)
