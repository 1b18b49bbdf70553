"""Finitely supported integer points and finitely described polynomial maps.

Points live on natural-number coordinates and are zero almost everywhere.
Two map families describe every self-map the toolkit needs:

* :class:`FiniteComponentMap` rewrites finitely many coordinates with
  polynomials and leaves every other coordinate untouched; application
  evaluates every component.
* :class:`GridRuleMap` lifts a local rule on a 3x3 planar neighborhood to
  the whole coordinate axis through a pairing, an injection of quadrant
  cells into coordinate indexes.  Every coordinate is computed by the
  rule, so the rule must send the all-zero neighborhood to 0; that keeps
  images finitely supported and is checked at construction.  On 0/1
  points the rule takes only 512 inputs, so construction compiles it to
  a 512-entry table, and the table to one decision diagram per nonzero
  value.  A 0/1 point whose bounding box is dense is packed into one int,
  a board, and one kernel runs the diagrams on the whole board at once; a
  sparse one reads the table through 9-bit neighborhood masks, cell by
  cell.  Points holding any other value are evaluated with the polynomial
  itself.  This module owns the mask convention (bit i stands for x_i)
  and :func:`subset_transform`, which :mod:`orbitkit.lifepoly` also runs
  to expand pattern sets into rules.

The walks in :mod:`orbitkit.orbit` keep points as keys and step them
through :func:`_key_walk`, one function per generator, in one of three
key kinds: byte codes of the start's values when every generator is a
signed permutation that keeps the start's layout; boards, stepped by the
kernel without building a point, when every generator is a 0/1 grid rule
and the point is a dense 0/1 point; else :meth:`SparsePoint._key` tuples
stepped by ``apply``.

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
    # __getitem__ reads 0 at every index, so the old sequence protocol would
    # make iter() and ``in`` run forever; read a point through items()
    __iter__ = None

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

    A map whose components are all ``x_j`` or ``-x_j``, such as a swap, a
    cycle or a sign flip, and which keeps a walk's start layout, is a
    signed permutation; :func:`_key_walk` steps such walks without
    building a point.  The two share no code, so each checks the other.
    """

    __slots__ = ("_components",)

    def __init__(self, components: Mapping[int, Union[Polynomial, int]]):
        table: dict[int, Polynomial] = {}
        for coord, poly in components.items():
            if not isinstance(coord, int) or isinstance(coord, bool) or coord < 0:
                raise ValueError(f"component coordinate must be a natural number, got {coord!r}")
            if isinstance(poly, int) and not isinstance(poly, bool):
                poly = constant(poly)
            if not isinstance(poly, Polynomial):
                raise ValueError(f"component for coordinate {coord} must be a Polynomial "
                                 f"or an int, got {poly!r}")
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
# A walk keys a 0/1 point by its board while the board holds at most this many
# bits per live cell, the figure life.step packs at.
_BOARD_BITS_PER_CELL = 1024


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


def _pack(cells, a0, b0, stride, height) -> int:
    """The board of ``cells``: cell (a, b) at bit ``(b - b0) * stride + a - a0``."""
    low = b0 * stride + a0
    packed = bytearray(height * stride // 8 + 1)
    for a, b in cells:
        p = b * stride + a - low
        packed[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(packed, "little")


def _unpack(roots, stride, a0, b0, forward) -> dict:
    """The entries of the point holding ``value`` at each cell of ``board``, for
    each ``(value, board)`` of ``roots``: bit ``b * stride + a`` of a natural
    board stands for cell (a0 + a, b0 + b), and cells at a negative coordinate
    are left out."""
    out: dict[int, int] = {}
    for value, board in roots:
        bits = bin(board)[:1:-1]  # bit p at bits[p]
        p = bits.find("1")
        while p != -1:
            b, a = divmod(p, stride)
            a += a0
            b += b0
            if a >= 0 and b >= 0:
                out[forward(a, b)] = value
            p = bits.find("1", p + 1)
    return out


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
      int, a board, at a fixed row stride, and :meth:`_kernel` evaluates
      each diagram once for the whole board; the set bits of its root are
      the cells that map to v.  :func:`_key_walk` steps dense points of a
      walk through the same kernel, without building a point.
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
                stride = width + 2
                roots = self._kernel(_pack(cells, a0, b0, stride, height), stride)
                return SparsePoint._raw(_unpack(roots, stride, a0 - 1, b0 - 1, forward))
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

    def _kernel(self, board, stride):
        """Yield each nonzero table value with the board of the cells that map to it.

        ``board`` holds cell (a, b) of a box at bit ``b * stride + a``, with at
        least two dead columns at the end of every row, so no shift by one
        column carries a cell into the next row.  Bit ``b * stride + a`` of a
        returned board stands for cell (a - 1, b - 1): the box grown by one
        cell on every side, where every cell that can come alive lies.  The
        nine neighbor boards are shifts of ``board`` and a diagram node is
        ``lo ^ (X & (hi ^ lo))``, three int operations."""
        # boards[i] has the bit of each cell set when its neighbor x_i is live
        boards = [board << stride + 1 - db * stride - da for da, db in _OFFSETS9]
        for value, diagram in self._diagrams:
            # true is -1, every bit set; the rule sends an all-dead 3x3 block to 0,
            # so the root's board is a natural int within the grown box
            node = [0, -1]
            for var, lo, hi in diagram:
                lo = node[lo]
                node.append(lo ^ (boards[var] & (node[hi] ^ lo)))
            yield value, node[-1]

    def __repr__(self) -> str:
        return f"<GridRuleMap pairing={self._pairing.name} rule_terms={len(self._rule.terms)}>"


PolyMapDesc = Union[FiniteComponentMap, GridRuleMap]


def _signed_permutation(g: PolyMapDesc, slot: dict) -> Union[list, None]:
    """For a :class:`FiniteComponentMap` of ``x_j`` and ``-x_j`` components,
    each ``c: x_j`` having ``c`` in ``slot`` (coordinate -> slot) exactly when
    ``j`` is, the slot each slot reads, plus ``len(slot)`` for a negation;
    else None."""
    if not isinstance(g, FiniteComponentMap):
        return None
    n = len(slot)
    source = list(range(n))
    for coord, poly in g._components.items():
        terms = poly.terms
        if len(terms) != 1:
            return None
        [(mono, coeff)] = terms.items()
        if len(mono) != 1 or mono[0][1] != 1 or coeff not in (1, -1):
            return None
        var = mono[0][0]
        if (coord in slot) != (var in slot):
            return None
        if coord in slot:
            source[slot[coord]] = slot[var] + (n if coeff == -1 else 0)
    return source


def _restride(board, stride, new, height) -> int:
    """``board`` of ``height`` rows moved from one row stride to another, both
    multiples of 8 and wider than every row's live cells."""
    n, m = stride >> 3, new >> 3
    rows = board.to_bytes(n * height, "little")
    return int.from_bytes(
        b"".join(rows[i:i + n][:m].ljust(m, b"\0") for i in range(0, n * height, n)), "little")


def _board_walk(generators, x) -> tuple:
    """:func:`_key_walk`'s boards, for :class:`GridRuleMap` generators of one
    pairing whose tables take only 0 and 1, from a nonempty 0/1 point."""
    pairing = generators[0]._pairing
    empty = SparsePoint()._key()

    def keyed(y, layout=()):
        cells = list(map(pairing.inverse, y._entries))
        if cells:
            xs, ys = zip(*cells)
            x0, y0 = min(xs), min(ys)
            stride = max(xs) - x0 + 18 & -16  # width + 2, rounded up to 16
            height = max(ys) - y0 + 1
            if stride * height <= _BOARD_BITS_PER_CELL * len(cells):
                return x0, y0, stride, _pack(cells, x0, y0, stride, height)
        return y._key(layout)

    def point(key):
        if type(key[0]) is tuple:
            return SparsePoint._from_key(key)
        x0, y0, stride, board = key
        return SparsePoint._raw(_unpack([(1, board)], stride, x0, y0, pairing.forward))

    def walker(g):
        apply, kernel = g.apply, g._kernel

        def step(key):
            if type(key[0]) is tuple:
                return keyed(apply(SparsePoint._from_key(key)), key[0])
            x0, y0, stride, board = key
            [(_, board)] = kernel(board, stride)
            # the kernel's board starts at (x0 - 1, y0 - 1); clear what lies at
            # a negative coordinate, as apply does
            if not y0:
                board >>= stride
                y0 = 1
            if not x0:
                rows = board.bit_length() // stride + 1
                board &= ~((1 << stride * rows) // ((1 << stride) - 1))
            if not board:
                return empty
            # the tight box: its rows from the lowest and highest bits, its
            # columns from the OR of all rows, folded in halves
            rows = (board.bit_length() - 1) // stride + 1
            top = ((board & -board).bit_length() - 1) // stride
            height, fold = rows - top, board
            while rows > 1:
                rows = rows + 1 >> 1
                half = rows * stride
                fold = fold >> half | fold & (1 << half) - 1
            left = (fold & -fold).bit_length() - 1
            board >>= top * stride + left
            new = fold.bit_length() - left + 17 & -16
            if new != stride:
                board = _restride(board, stride, new, height)
            key = x0 - 1 + left, y0 - 1 + top, new, board
            if new * height > _BOARD_BITS_PER_CELL * board.bit_count():
                return point(key)._key()
            return key

        return step

    return keyed(x), [walker(g) for g in generators], point


def _key_walk(generators: list, x: SparsePoint) -> tuple:
    """The start key of a walk from ``x``, one step per generator from a key to
    its image's key, and the function from a key back to its point.  Keys come
    in three kinds; equal points always get equal keys.

    * *Codes.*  When every generator is a :func:`_signed_permutation` of
      ``x``'s slots and ``x`` has at least two coordinates and at most 128
      distinct absolute values, every point of the orbit is ``x``'s values
      moved and sign-flipped within its layout.  A key is then a ``bytes``
      code of one entry ``2*k + s`` per slot, ``k`` indexing ``x``'s distinct
      absolute values and ``s`` the sign; a step gathers the image from
      ``code + code.translate(flip)``, ``flip`` toggling bit 0.  A code costs
      33 bytes plus one per coordinate.
    * *Boards.*  When every generator is a :class:`GridRuleMap` of one pairing
      whose table takes only 0 and 1, and ``x`` is a nonempty 0/1 point, every
      point of the orbit is a 0/1 point.  A point whose board holds at most
      ``_BOARD_BITS_PER_CELL`` (1,024) bits per live cell is keyed
      ``(x0, y0, stride, board)``: ``(x0, y0)`` is the corner of its cells'
      tight bounding box, cell (a, b) is bit ``(b - y0) * stride + a - x0``
      of ``board``, and ``stride`` is the box width plus 2, rounded up to a
      multiple of 16.  A step runs :meth:`GridRuleMap._kernel` on the board,
      clears the cells at a negative coordinate, finds the new box by
      folding the rows in halves, and re-frames the board: one shift when
      the stride is unchanged.  A board costs 4 bytes per 30 bits, so a key
      at the limit costs about 137 bytes per live cell, up to about 2.9
      times the tuple key of its point.
      Any other point of such a walk, sparse or empty, keeps a tuple key and
      steps through ``apply``; the kind depends on the point alone.
    * *Tuples.*  Every other walk keys points with :meth:`SparsePoint._key`
      and steps a key by applying the generator to the point rebuilt from it,
      keying the image with the source's layout object, shared when the
      layout is unchanged.  A point of a Life walk costs about 44 to 48 bytes
      per live cell this way, mostly its coordinate ints."""
    if x and set(x._entries.values()) == {1} and all(
            isinstance(g, GridRuleMap) and g._pairing == generators[0]._pairing
            and set(g._table) == {0, 1} for g in generators):
        return _board_walk(generators, x)
    start = x._key()
    layout = start[0]
    slot = {coord: i for i, coord in enumerate(layout)}
    magnitudes = list(dict.fromkeys(map(abs, start[1:])))
    plans = [_signed_permutation(g, slot) for g in generators]
    # itemgetter of one index returns the item, not a tuple, and a walk from
    # fewer than two coordinates stores next to nothing either way
    if len(layout) < 2 or len(magnitudes) > 128 or None in plans:
        from_key = SparsePoint._from_key

        def rebuild(apply):
            return lambda key: apply(from_key(key))._key(key[0])

        return start, [rebuild(g.apply) for g in generators], from_key
    flip = bytes(c ^ 1 for c in range(256))

    def gather(source):
        take = itemgetter(*source)
        return lambda code: bytes(take(code + code.translate(flip)))

    # code -> value, one object per value: the start's own where it holds it
    own = {v: v for v in start[1:]}
    values = [own.get(s * m) or s * m for m in magnitudes for s in (1, -1)]

    def point(code):
        return SparsePoint._raw(dict(zip(layout, map(values.__getitem__, code))))

    code = bytes(map({v: c for c, v in enumerate(values)}.__getitem__, start[1:]))
    return code, [gather(source) for source in plans], point


def iterate(m: PolyMapDesc, x: SparsePoint, n: int) -> SparsePoint:
    """n-fold application; ``iterate(m, x, 0)`` is ``x``."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("iteration count must be a non-negative integer")
    for _ in range(n):
        x = m.apply(x)
    return x
