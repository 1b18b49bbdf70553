"""Finitely supported integer points and finitely described polynomial maps.

Points live on natural-number coordinates and are zero almost everywhere.
Two map families describe every self-map the toolkit needs:

* :class:`FiniteComponentMap` rewrites finitely many coordinates with
  polynomials and leaves every other coordinate untouched; application
  evaluates every component.  A map whose components are all moves
  ``c*x_j`` also maps point keys to image keys without building a
  point, for the walks in :mod:`orbitkit.orbit`.
* :class:`GridRuleMap` lifts a local rule on a 3x3 planar neighborhood to
  the whole coordinate axis through a pairing, an injection of quadrant
  cells into coordinate indexes.  Every coordinate is computed by the
  rule, so the rule must send the all-zero neighborhood to 0; that keeps
  images finitely supported and is checked at construction.  On 0/1
  points the rule takes only 512 inputs, so construction compiles it to
  a 512-entry table, and the table to one decision diagram per nonzero
  value.  A 0/1 point whose bounding box is dense is packed into one int
  and runs the diagrams on whole boards at once; a sparse one reads the
  table through 9-bit neighborhood masks, cell by cell.  Points holding
  any other value are evaluated with the polynomial itself.  This module
  owns the mask convention (bit i stands for x_i) and
  :func:`subset_transform`, which :mod:`orbitkit.lifepoly` also runs to
  expand pattern sets into rules.

Everything here is an immutable value and every operation is pure, so
points and maps are safe to share between threads.
"""

from __future__ import annotations

import re
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Union

from .polymap import Polynomial, constant

__all__ = [
    "FiniteComponentMap",
    "GridRuleMap",
    "NEIGHBOR_OFFSETS",
    "PairingSpec",
    "PointParseError",
    "PolyMapDesc",
    "SparsePoint",
    "emit_point",
    "iterate",
    "parse_point",
    "subset_transform",
]

# Offsets of the eight neighbors of a planar cell, row-major with the y
# axis growing downward (matching RLE row order): NW N NE W E SW S SE.
# Local rule variables: x0 = center, x1..x8 = NEIGHBOR_OFFSETS in order.
NEIGHBOR_OFFSETS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))
_OFFSETS9 = ((0, 0),) + NEIGHBOR_OFFSETS
# A live cell sets bit i in the mask of the cell it is neighbor x_i of.
_SCATTER = tuple((-da, -db, 1 << i) for i, (da, db) in enumerate(_OFFSETS9))


class PointParseError(ValueError):
    """Raised when sparse-point text does not match the ``index:value`` format."""


class SparsePoint:
    """Immutable finitely-supported map from natural coordinates to integers.

    Unlisted coordinates read as 0; zero values are never stored, so
    equality and hashing agree with the function the point denotes.  A
    coordinate listed twice keeps its last value, so a later 0 deletes it.

    The public constructor checks every entry.  Maps build their images
    with :meth:`_raw` instead, which checks nothing: its dict must have
    natural ``int`` keys and nonzero ``int`` values, and it is handed over
    to the point, so the caller never mutates it afterwards.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Union[Mapping[int, int], Iterable[tuple[int, int]], None] = None):
        data: dict[int, int] = {}
        if entries is not None:
            items = entries.items() if isinstance(entries, Mapping) else entries
            for coord, value in items:
                if not isinstance(coord, int) or isinstance(coord, bool) or coord < 0:
                    raise ValueError(f"coordinate must be a natural number, got {coord!r}")
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(f"value must be an integer, got {value!r}")
                if value:
                    data[coord] = value
                else:
                    data.pop(coord, None)
        self._entries = data

    @classmethod
    def _raw(cls, data: dict) -> "SparsePoint":
        p = cls.__new__(cls)
        p._entries = data
        return p

    def _key(self, layout: tuple = ()) -> tuple:
        """The point as one tuple: its layout (the tuple of its sorted
        coordinates), then their values in the same order.  Equal points give
        equal keys, so the key is injective.  When the layout equals ``layout``
        the key holds that very object, so keys of one layout can share it."""
        entries = self._entries
        coords = tuple(sorted(entries))
        if coords == layout:
            coords = layout
        return (coords, *map(entries.__getitem__, coords))

    @classmethod
    def _from_key(cls, key: tuple) -> "SparsePoint":
        """Inverse of :meth:`_key`, checking nothing, like :meth:`_raw`: a key
        made from a point already has natural coordinates and nonzero values."""
        return cls._raw(dict(zip(key[0], key[1:])))

    def get(self, coord: int, default: int = 0) -> int:
        return self._entries.get(coord, default)

    def __getitem__(self, coord: int) -> int:
        return self._entries.get(coord, 0)

    def items(self):
        return self._entries.items()

    def support(self) -> frozenset:
        return frozenset(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoint):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        return f"SparsePoint({emit_point(self)!r})"


def emit_point(point: SparsePoint) -> str:
    """Render ``index:value`` tokens with strictly increasing indices."""
    return " ".join(f"{i}:{v}" for i, v in sorted(point.items()))


_TOKEN_RE = re.compile(r"^([0-9]+):(-?[0-9]+)$")


def parse_point(text: str) -> SparsePoint:
    """Parse whitespace-separated ``index:value`` tokens, in any order.

    Rejects duplicate indices and explicit zero values, so the entries are
    canonical and the point takes them over unchecked.
    """
    entries: dict[int, int] = {}
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if not m:
            raise PointParseError(f"bad token {token!r}, expected 'index:value'")
        coord, value = int(m.group(1)), int(m.group(2))
        if value == 0:
            raise PointParseError(f"zero value for coordinate {coord} is not stored")
        if coord in entries:
            raise PointParseError(f"duplicate coordinate {coord}")
        entries[coord] = value
    return SparsePoint._raw(entries)


class PairingSpec:
    """A named injection of quadrant cells (a, b) into coordinate indexes.

    ``forward`` must return natural ``int`` indexes, which grid-rule
    application stores unchecked; ``inverse`` must raise
    :class:`ValueError` for indexes outside the image of ``forward``, and
    :meth:`GridRuleMap.apply` lets that error propagate unchanged.
    Immutable; ``==`` and ``hash`` go by ``name`` alone.
    """

    __slots__ = ("name", "forward", "inverse")

    def __init__(self, name: str, forward: Callable[[int, int], int],
                 inverse: Callable[[int], tuple[int, int]]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "inverse", inverse)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return (f"PairingSpec(name={self.name!r}, forward={self.forward!r}, "
                f"inverse={self.inverse!r})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FiniteComponentMap:
    """Polynomial map with finitely many non-identity components.

    Coordinates absent from the component table behave as projections
    x_i -> x_i.  :meth:`apply` evaluates every component as a polynomial
    on the input, so all components update simultaneously.

    A map of *moves* only, every component a single term ``c*x_j`` of
    degree 1 such as a swap or a sign flip, can also take a point's
    key straight to its image's key (:meth:`_key_mover`, which the walks
    in :mod:`orbitkit.orbit` use), at the cost of one small plan per
    distinct layout among the keys it maps.  The two share no code, so
    each checks the other.
    """

    __slots__ = ("_components",)

    def __init__(self, components: Mapping[int, Union[Polynomial, int]]):
        table: dict[int, Polynomial] = {}
        for coord, poly in components.items():
            if not isinstance(coord, int) or isinstance(coord, bool) or coord < 0:
                raise ValueError(f"component coordinate must be a natural number, got {coord!r}")
            if isinstance(poly, int):
                poly = constant(poly)
            if not isinstance(poly, Polynomial):
                raise ValueError(f"component for coordinate {coord} must be a Polynomial")
            table[coord] = poly
        self._components = table

    @property
    def components(self) -> Mapping[int, Polynomial]:
        return MappingProxyType(self._components)

    def apply(self, x: SparsePoint) -> SparsePoint:
        """Evaluate every component on ``x``'s own entries dict and build the
        image without re-checking it; a component that reads 0 deletes its
        coordinate."""
        source = x._entries
        entries = source.copy()
        for coord, poly in self._components.items():
            v = poly.evaluate(source)
            if v:
                entries[coord] = v
            else:
                entries.pop(coord, None)
        return SparsePoint._raw(entries)

    def _key_mover(self, start: tuple) -> Union[Callable[[tuple], tuple], None]:
        """For a map of moves only, a function from a point's key to its image's
        key, equal to ``self.apply(SparsePoint._from_key(key))._key()``; None
        when a component is not a single ``c*x_j``.

        An image's layout depends only on the source's, so the function builds
        one plan per source layout it meets and keeps it for its own lifetime:
        the image layout (the source's own object when it is unchanged), a
        gather of source value slots, the slots to negate, and the slots to
        scale by a coefficient other than 1 and -1.  A negation reads a table
        built once from the values of ``start``, the walk's start key: each
        value and its negative, at most twice as many entries as ``start``
        has values, so sign flips of those values hand out objects already
        held instead of new ints.  A key with a known layout costs one dict
        lookup, the gather and a concatenation."""
        moves = {}
        for coord, poly in self._components.items():
            terms = poly.terms
            if len(terms) != 1:
                return None
            [(mono, coeff)] = terms.items()
            if len(mono) != 1 or mono[0][1] != 1:
                return None
            moves[coord] = (mono[0][0], coeff)
        # one object per distinct start value, then value -> its negative
        own = {v: v for v in start[1:]}
        negate = {}
        for v in own:
            w = own.get(-v, -v)
            negate[v], negate[w] = w, v
        plans: dict = {}

        def plan(layout):
            slots = {coord: i for i, coord in enumerate(layout, 1)}
            # coordinate -> (key slot it reads, coefficient); a move whose
            # variable is absent deletes its coordinate
            sources = {coord: (slots[coord], 1) for coord in layout if coord not in moves}
            for coord, (var, coeff) in moves.items():
                if var in slots:
                    sources[coord] = (slots[var], coeff)
            out = tuple(sorted(sources))
            if out == layout:
                out = layout
            reads = [sources[coord][0] for coord in out]
            if len(reads) > 1:
                gather = itemgetter(*reads)
            else:  # itemgetter() raises, and itemgetter(i) gives a bare value
                gather = lambda key: tuple(key[i] for i in reads)
            coeffs = [sources[coord][1] for coord in out]
            flips = tuple(i for i, coeff in enumerate(coeffs) if coeff == -1)
            scaled = tuple((i, coeff) for i, coeff in enumerate(coeffs) if coeff not in (1, -1))
            return (out,), gather, flips, scaled

        def mover(key):
            layout = key[0]
            p = plans.get(layout)
            if p is None:
                p = plans[layout] = plan(layout)
            head, gather, flips, scaled = p
            values = gather(key)
            if flips or scaled:
                values = list(values)
                for i in flips:
                    v = values[i]
                    values[i] = negate.get(v) or -v  # no value is 0
                for i, coeff in scaled:
                    values[i] *= coeff
                values = tuple(values)
            return head + values

        return mover

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {p}" for i, p in sorted(self._components.items()))
        return f"<FiniteComponentMap {{{body}}}>"


def subset_transform(entries: Iterable[tuple[int, int]], sign: int) -> list[int]:
    """Sum ``(mask, value)`` pairs into 512 slots, mask bit i standing for x_i, and
    transform over mask subsets: sign 1 (zeta) turns monomial coefficients into
    values on the 0/1 neighborhoods, and sign -1 (Moebius) inverts it."""
    values = [0] * 512
    for mask, value in entries:
        values[mask] += value
    for i in range(9):
        bit = 1 << i
        for mask in range(512):
            if mask & bit:
                values[mask] += sign * values[mask ^ bit]
    return values


# A 0/1 point is packed when the packed int has at most this many bits per live
# cell, about where the packed and the per-cell path cost the same.
_PACKED_BITS_PER_CELL = 256


def _diagram(truth) -> tuple:
    """Reduced ordered decision diagram of a 0/1 function of the 9-bit mask, given
    by its 512 values: x8 at the root, x0 above the leaves.  Node k is
    ``(var, lo, hi)``, where ``lo`` and ``hi`` name false as 0, true as 1 and node
    j as j + 2, so every node follows its children and the root comes last."""
    nodes: list = []
    ids: dict = {}

    def build(t):
        if not any(t):
            return 0
        if all(t):
            return 1
        half = len(t) // 2
        lo, hi = build(t[:half]), build(t[half:])
        if lo == hi:
            return lo
        key = (half.bit_length() - 1, lo, hi)
        if key not in ids:
            nodes.append(key)
            ids[key] = len(nodes) + 1
        return ids[key]

    build(tuple(truth))
    return tuple(nodes)


class GridRuleMap:
    """Shift-invariant local rule lifted to the coordinate axis via a pairing.

    Application evaluates the rule at every quadrant cell within Chebyshev
    distance 1 of the point's unpaired support (the only cells where the
    result can be nonzero, by the zero-at-zero check); neighbors outside
    the quadrant read as constant 0.

    The table holds the rule's value on all 512 0/1 neighborhoods (bit i
    of a mask stands for x_i): each monomial's coefficient sits at the mask
    of its variables (x^k = x on 0/1 inputs) and :func:`subset_transform`
    adds up every monomial a neighborhood switches on.  For each nonzero
    value v of the table, construction also builds the reduced ordered
    decision diagram (Bryant, 1986) of "the table reads v", an immutable
    tuple of ``(var, lo, hi)`` nodes; the Life rule's has 26 nodes.

    When every value of the point is 1, application picks one of two
    paths by comparing the size of the packed int (the bounding box with
    a two-cell margin) with the number of live cells:

    * *packed*, for a dense box: the live cells become the bits of one
      int at a fixed row stride, the nine neighbor boards are shifts of
      it, and each diagram is evaluated once for the whole board, a node
      as ``(X & hi) | (~X & lo)``; the set bits of its root are the cells
      that map to v.
    * *per cell*, for a sparse box: each live cell ORs its bit into the
      9-bit mask of every cell in its 3x3 block, and a cell's image is
      ``table[mask]``.  Memory stays in proportion to the live cells, so
      cells far apart never build a large int.

    Any other point takes the generic path, one ``rule.evaluate`` per cell.
    """

    __slots__ = ("_rule", "_pairing", "_table", "_diagrams")

    def __init__(self, rule: Polynomial, pairing: PairingSpec):
        if rule.evaluate({}) != 0:
            raise ValueError("local rule must send the all-zero neighborhood to 0")
        high = [v for v in rule.support_vars() if v > 8]
        if high:
            raise ValueError(f"local rule may only use variables x0..x8, found x{min(high)}")
        self._rule = rule
        self._pairing = pairing
        self._table = subset_transform(
            ((sum(1 << var for var, _ in mono), coeff) for mono, coeff in rule.terms.items()), 1
        )
        self._diagrams = tuple((value, _diagram([v == value for v in self._table]))
                               for value in sorted(set(self._table) - {0}))

    @property
    def rule(self) -> Polynomial:
        return self._rule

    def apply(self, x: SparsePoint) -> SparsePoint:
        inverse = self._pairing.inverse
        forward = self._pairing.forward
        cells = {inverse(idx): value for idx, value in x.items()}
        binary = all(v == 1 for v in cells.values())
        if binary and cells:
            xs, ys = zip(*cells)
            a0, b0 = min(xs), min(ys)
            width, height = max(xs) - a0 + 1, max(ys) - b0 + 1
            if (width + 4) * (height + 4) <= _PACKED_BITS_PER_CELL * len(cells):
                return self._apply_packed(cells, a0, b0, width, height)
        masks: dict[tuple[int, int], int] = {}
        get = masks.get
        for a, b in cells:
            for da, db, bit in _SCATTER:
                key = (a + da, b + db)
                masks[key] = get(key, 0) | bit
        out: dict[int, int] = {}
        if binary:
            table = self._table
            for (a, b), mask in masks.items():
                v = table[mask]
                if v and a >= 0 and b >= 0:
                    out[forward(a, b)] = v
        else:
            evaluate = self._rule.evaluate
            read = cells.get
            for a, b in masks:
                if a >= 0 and b >= 0:
                    v = evaluate({i: read((a + da, b + db), 0)
                                  for i, (da, db) in enumerate(_OFFSETS9)})
                    if v:
                        out[forward(a, b)] = v
        return SparsePoint._raw(out)

    def _apply_packed(self, cells, a0: int, b0: int, width: int, height: int) -> SparsePoint:
        forward = self._pairing.forward
        stride = width + 4
        # cell (a, b) is bit (b - b0 + 2) * stride + (a - a0 + 2): two empty rows and
        # columns on every side, so every cell next to the box reads its whole 3x3
        # block from its own row and the rows above and below
        low = (b0 - 2) * stride + a0 - 2
        packed = bytearray((height + 2) * stride // 8 + 1)
        for a, b in cells:
            p = b * stride + a - low
            packed[p >> 3] |= 1 << (p & 7)
        board = int.from_bytes(packed, "little")
        # boards[i] has the bit of each cell set when its neighbor x_i is live
        boards = [board >> s if s >= 0 else board << -s
                  for s in (db * stride + da for da, db in _OFFSETS9)]
        out: dict[int, int] = {}
        for value, diagram in self._diagrams:
            # true is -1, every bit set; the rule sends an all-dead 3x3 block to 0,
            # so the root's board is a natural int within the box dilated by 1
            node = [0, -1]
            for var, lo, hi in diagram:
                on = boards[var]
                node.append((on & node[hi]) | (~on & node[lo]))
            bits = bin(node[-1])[:1:-1]  # bit p at bits[p]
            p = bits.find("1")
            while p != -1:
                b, a = divmod(p, stride)
                a += a0 - 2
                b += b0 - 2
                if a >= 0 and b >= 0:
                    out[forward(a, b)] = value
                p = bits.find("1", p + 1)
        return SparsePoint._raw(out)

    def __repr__(self) -> str:
        return f"<GridRuleMap pairing={self._pairing.name} rule_terms={len(self._rule.terms)}>"


PolyMapDesc = Union[FiniteComponentMap, GridRuleMap]


def iterate(m: PolyMapDesc, x: SparsePoint, n: int) -> SparsePoint:
    """n-fold application; ``iterate(m, x, 0)`` is ``x``."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("iteration count must be a non-negative integer")
    for _ in range(n):
        x = m.apply(x)
    return x
