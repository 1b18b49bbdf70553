"""Conway's Game of Life realized as a polynomial map on integer sequences.

The construction: for each 3x3 neighborhood pattern whose center is alive
in the next generation, build the degree-9 product of ``x_i`` (live bit)
and ``1 - x_i`` (dead bit) factors, which is 1 exactly on that pattern
among 0/1 inputs.  Summing the 140 qualifying products gives one local
rule polynomial whose value on any 0/1 neighborhood is the center's next
state.  :func:`expand_patterns` sums any pattern set without multiplying
polynomials, through the subset transform and 9-bit mask convention of
:mod:`orbitkit.dynamics`; the Life rule and the ``verify --corrupt``
control rule are both built this way, and the Life rule is checked on
all 512 0/1 neighborhoods against B3/S23 (birth on 3 live neighbors,
survival on 2 or 3) before it is used.  A pairing bijection between
quadrant cells and natural numbers then turns grid configurations into
finitely supported 0/1 points and a grid generation into one application
of a :class:`~orbitkit.dynamics.GridRuleMap`.

Variable order is fixed as x0 = center and x1..x8 = the neighbors in
row-major order (NW N NE W E SW S SE, y growing downward).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import isqrt

import orbitkit  # the package, already loaded: annotations name life.LifeConfig through it

from .dynamics import GridRuleMap, SparsePoint, subset_transform
from .polymap import Polynomial

__all__ = [
    "NotAConfigurationError",
    "OutOfQuadrantError",
    "Pattern9",
    "build_gol_map",
    "build_local_rule",
    "cantor_pairing",
    "decode",
    "encode",
    "expand_patterns",
    "life_patterns",
    "pair",
    "pattern_product_text",
    "pattern_sum_text",
    "quadrant_safe",
    "unpair",
]

Pattern9 = tuple  # nine 0/1 entries, center first


class OutOfQuadrantError(ValueError):
    """A live cell has a negative coordinate and cannot be encoded."""


class NotAConfigurationError(ValueError):
    """A point holds a value other than 0/1 and is not an encoded configuration."""


def _check_pattern(bits) -> Pattern9:
    bits = tuple(bits)
    if len(bits) != 9 or any(b not in (0, 1) for b in bits):
        raise ValueError(f"pattern must be nine 0/1 entries, got {bits!r}")
    return bits


def _next_center(bits: Pattern9) -> int:
    alive = sum(bits[1:])
    if bits[0]:
        return 1 if alive in (2, 3) else 0
    return 1 if alive == 3 else 0


@lru_cache(maxsize=1)
def life_patterns() -> tuple[Pattern9, ...]:
    """The 140 neighborhood patterns whose center is alive next generation."""
    return tuple(bits for bits in product((0, 1), repeat=9) if _next_center(bits))


def pattern_product_text(bits) -> str:
    bits = _check_pattern(bits)
    return "*".join(f"x{i}" if b else f"(1-x{i})" for i, b in enumerate(bits))


def pattern_sum_text() -> str:
    """The un-expanded rule: 140 degree-9 products joined by ``+``."""
    return " + ".join(pattern_product_text(p) for p in life_patterns())


def expand_patterns(patterns) -> Polynomial:
    """Expanded sum of the indicator products of ``patterns``; for distinct
    patterns, 1 exactly on them among the 512 0/1 inputs.  Each product is
    multilinear, so the coefficient of x^S is the sum over patterns P with
    live(P) within S of (-1)^|S - live(P)|, a subset Moebius transform."""
    masks = (sum(b << i for i, b in enumerate(_check_pattern(bits))) for bits in patterns)
    coeffs = subset_transform(((mask, 1) for mask in masks), -1)
    # sorted multilinear monomials with nonzero coefficients are already canonical
    return Polynomial._raw(
        {tuple((i, 1) for i in range(9) if mask >> i & 1): c for mask, c in enumerate(coeffs) if c}
    )


@lru_cache(maxsize=1)
def build_local_rule() -> Polynomial:
    """Expanded canonical sum of the 140 pattern indicators.

    The rule is :func:`expand_patterns` of :func:`life_patterns`, as the
    ``verify --corrupt`` control rule is of its 112 patterns.  Construction
    evaluates the expanded polynomial on all 512 0/1 neighborhoods and
    checks each value against B3/S23, the rule the patterns are drawn from;
    on those inputs the un-expanded product form takes the same values.
    """
    rule = expand_patterns(life_patterns())
    for bits in product((0, 1), repeat=9):
        if rule.evaluate(dict(enumerate(bits))) != _next_center(bits):
            raise RuntimeError(f"expanded local rule disagrees with B3/S23 at x0..x8 = {bits}")
    return rule


def pair(a: int, b: int) -> int:
    """Cantor pairing (a + b)(a + b + 1)/2 + b, a bijection from quadrant cells
    to natural numbers.  Both arguments must be of type ``int`` itself: a
    ``bool``, like any other ``int`` subclass, is rejected.  That is the
    package's integer rule, ``orbitkit._check_int``, written inline because
    pairing is on the hot path (about 475k calls per ``verify``)."""
    if type(a) is not int or type(b) is not int or a < 0 or b < 0:
        raise ValueError(f"pair arguments must be natural numbers, got {(a, b)!r}")
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(n: int) -> tuple[int, int]:
    """Exact inverse of :func:`pair`; like it, rejects a ``bool`` or any other
    ``int`` subclass through the package's integer rule, written inline
    because unpairing is on the hot path."""
    if type(n) is not int or n < 0:
        raise ValueError(f"unpair argument must be a natural number, got {n!r}")
    s = (isqrt(8 * n + 1) - 1) // 2
    b = n - s * (s + 1) // 2
    return (s - b, b)


@lru_cache(maxsize=1)
def cantor_pairing() -> tuple:
    """``(pair, unpair)``, the ``(forward, inverse)`` pair a
    :class:`~orbitkit.dynamics.GridRuleMap` takes.  It is cached so that
    ``perfbench/tracer.py`` can tell from the cache that no map was built
    before it wraps ``pair`` and ``unpair``."""
    return pair, unpair


def encode(config: orbitkit.life.LifeConfig) -> SparsePoint:
    """Flatten a quadrant-contained configuration to a 0/1 point."""
    entries = {}
    for x, y in config:
        if x < 0 or y < 0:
            raise OutOfQuadrantError(f"live cell ({x}, {y}) has a negative coordinate")
        entries[pair(x, y)] = 1
    return SparsePoint._raw(entries)


def decode(point: SparsePoint) -> orbitkit.life.LifeConfig:
    """Inverse of :func:`encode`; rejects points with values outside {0, 1}."""
    cells = set()
    for idx, value in point.items():
        if value != 1:
            raise NotAConfigurationError(f"coordinate {idx} holds {value}, not a cell state")
        cells.add(unpair(idx))
    return frozenset(cells)


@lru_cache(maxsize=1)
def build_gol_map() -> GridRuleMap:
    """The global map: local rule plus Cantor pairing.

    One application on an encoded configuration equals one engine
    generation, provided the configuration is :func:`quadrant_safe`.
    """
    return GridRuleMap(build_local_rule(), cantor_pairing())


def quadrant_safe(config: orbitkit.life.LifeConfig) -> bool:
    """True when one grid step and one map application provably agree: all
    live cells sit at coordinates >= 1, so no 3x3 block the step reads or
    writes crosses the quadrant boundary, and no cell can be born at a
    negative coordinate.  The claim covers one step only; a pattern that
    moves toward the boundary can leave the quadrant in later steps."""
    return all(x >= 1 and y >= 1 for x, y in config)
