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
  a 512-entry table, and a table that takes only 0 and 1 to one decision
  diagram.  A 0/1 point reads the table through 9-bit neighborhood
  masks, cell by cell, unless it goes on a board; points holding any
  other value are evaluated with the polynomial itself.  This module
  owns the mask convention (bit i stands for x_i) and
  :func:`subset_transform`, which :mod:`orbitkit.lifepoly` also runs to
  expand pattern sets into rules.

There is one board format.  :func:`_board` packs the live cells of a 0/1
point into one int at the row stride :func:`_stride` gives their box, the
box width plus 2, rounded up to 16, while that int holds at most
``_BOARD_BITS_PER_CELL`` (1,024) bits per live cell;
:meth:`GridRuleMap._image` runs the diagram on a board, and
:func:`_cells` reads a board's cells back.  ``apply`` steps a dense 0/1
point that way, and so do the walks in :mod:`orbitkit.orbit`, which keep
points as keys and step them through :func:`_key_walk`, one function per
generator, in one of three key kinds: byte codes of the start's values
when every generator is a signed permutation that keeps the start's
layout; boards, without building a point, when every generator has a
diagram and the point is a dense 0/1 point; else
:meth:`SparsePoint._key` tuples stepped by ``apply``.

Everything here is an immutable value and every operation is pure, so
points and maps are safe to share between threads.
"""

from __future__ import annotations

import re
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from . import _check_int
from .polymap import Polynomial, constant

__all__ = [
    "FiniteComponentMap",
    "GridRuleMap",
    "NEIGHBOR_OFFSETS",
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
                _check_int(coord, "coordinate", 0)
                _check_int(value, "value")
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
        try:
            coord, value = int(m.group(1)), int(m.group(2))
        except ValueError:  # past the interpreter's limit on integer digits
            raise PointParseError(f"too many digits in token {token!r}") from None
        if value == 0:
            raise PointParseError(f"zero value for coordinate {coord} is not stored")
        if coord in entries:
            raise PointParseError(f"duplicate coordinate {coord}")
        entries[coord] = value
    return SparsePoint._raw(entries)


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
            _check_int(coord, "component coordinate", 0)
            if type(poly) is int:
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


# A 0/1 point is boarded while its board holds at most this many bits per live
# cell, the figure life.step packs at.
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


def _stride(width: int, height: int, live: int) -> Union[int, None]:
    """The row stride of the board of ``live`` cells whose tight box is ``width``
    by ``height``: the width plus 2, rounded up to a multiple of 16.  None when
    that board would hold more than ``_BOARD_BITS_PER_CELL`` bits per live cell.
    :func:`_board` and the board step of :func:`_key_walk` both frame by it."""
    stride = width + 17 & -16
    return stride if stride * height <= _BOARD_BITS_PER_CELL * live else None


def _board(cells) -> Union[tuple, None]:
    """The board ``(x0, y0, stride, board)`` of a collection of distinct cells:
    ``(x0, y0)`` is the corner of their tight bounding box, ``stride`` is
    :func:`_stride` of that box, and cell (a, b) is bit
    ``(b - y0) * stride + a - x0`` of ``board``.  None when there are no cells
    or :func:`_stride` declines the box."""
    if not cells:
        return None
    xs, ys = zip(*cells)
    x0, y0 = min(xs), min(ys)
    height = max(ys) - y0 + 1
    stride = _stride(max(xs) - x0 + 1, height, len(cells))
    if stride is None:
        return None
    low = y0 * stride + x0
    packed = bytearray(height * stride >> 3)
    for a, b in cells:
        p = b * stride + a - low
        packed[p >> 3] |= 1 << (p & 7)
    return x0, y0, stride, int.from_bytes(packed, "little")


def _cells(key):
    """The cells (a, b) of board ``key``, in bit order."""
    x0, y0, stride, board = key
    bits = bin(board)[:1:-1]  # bit p at bits[p]
    p = bits.find("1")
    while p != -1:
        yield x0 + p % stride, y0 + p // stride
        p = bits.find("1", p + 1)


def _unpack(key, forward) -> dict:
    """The entries of the 0/1 point of board ``key``, whose cells all lie in the
    quadrant."""
    return {forward(a, b): 1 for a, b in _cells(key)}


class GridRuleMap:
    """Shift-invariant local rule lifted to the coordinate axis via a pairing.

    ``pairing`` is a pair of functions ``(forward, inverse)``.  ``forward``
    injects quadrant cells (a, b) into natural ``int`` coordinates, which
    application stores unchecked; ``inverse`` takes a coordinate back to
    its cell and raises :class:`ValueError` for one outside the image of
    ``forward``, and :meth:`apply` passes that error on unchanged.

    Application evaluates the rule at every quadrant cell within Chebyshev
    distance 1 of the point's unpaired support (the only cells where the
    result can be nonzero, by the zero-at-zero check); neighbors outside
    the quadrant read as constant 0.

    The table holds the rule's value on all 512 0/1 neighborhoods (bit i
    of a mask stands for x_i): each monomial's coefficient sits at the mask
    of its variables (x^k = x on 0/1 inputs) and :func:`subset_transform`
    adds up every monomial a neighborhood switches on, so entry 0 is the
    rule's value at zero, which construction checks.  When the table
    takes only 0 and 1, as the Life rule's does, construction also builds
    its reduced ordered decision diagram (Bryant, 1986), an immutable
    tuple of ``(var, lo, hi)`` nodes; the Life rule's has 26 nodes.  Any
    other table leaves ``_diagram`` None.

    A point whose values are all 1 goes on a board when the rule has a
    diagram and :func:`_board` frames the live cells, which it does while
    the board holds at most ``_BOARD_BITS_PER_CELL`` bits per live cell:
    :meth:`_image` runs the diagram once on the whole board, and
    :func:`_unpack` reads off the image.  :func:`_key_walk` steps dense
    points of a walk on the same boards through the same :meth:`_image`,
    without building a point.

    Every other point is read cell by cell: each live cell ORs its bit
    into the 9-bit mask of every cell in its 3x3 block, and a quadrant
    cell's image is ``table[mask]`` when every value is 1, else one
    ``rule.evaluate`` of its neighborhood.  Memory stays in proportion to
    the live cells, so cells far apart never build a large int.
    """

    __slots__ = ("_rule", "_pairing", "_table", "_diagram")

    def __init__(self, rule: Polynomial, pairing: tuple):
        high = [v for v in rule.support_vars() if v > 8]
        if high:
            raise ValueError(f"local rule may only use variables x0..x8, found x{min(high)}")
        self._table = subset_transform(
            ((sum(1 << var for var, _ in mono), coeff) for mono, coeff in rule.terms.items()), 1
        )
        if self._table[0]:
            raise ValueError("local rule must send the all-zero neighborhood to 0")
        self._rule = rule
        self._pairing = pairing
        self._diagram = _diagram(self._table) if set(self._table) == {0, 1} else None

    @property
    def rule(self) -> Polynomial:
        return self._rule

    def apply(self, x: SparsePoint) -> SparsePoint:
        forward, inverse = self._pairing
        cells = {inverse(idx): value for idx, value in x.items()}
        binary = all(v == 1 for v in cells.values())
        if binary and self._diagram:
            key = _board(cells)
            if key:
                return SparsePoint._raw(_unpack(self._image(key), forward))
        masks: dict[tuple[int, int], int] = {}
        get = masks.get
        for a, b in cells:
            for da, db, bit in _SCATTER:
                key = (a + da, b + db)
                masks[key] = get(key, 0) | bit
        table, evaluate, read = self._table, self._rule.evaluate, cells.get
        out: dict[int, int] = {}
        for (a, b), mask in masks.items():
            if a >= 0 and b >= 0:
                v = table[mask] if binary else evaluate(
                    {i: read((a + da, b + db), 0) for i, (da, db) in enumerate(_OFFSETS9)})
                if v:
                    out[forward(a, b)] = v
        return SparsePoint._raw(out)

    def _image(self, key) -> tuple:
        """The board of the image of the point of board ``key``, framed on its box
        grown by one cell on every side, where every cell that can come alive
        lies, less the cells at a negative coordinate.

        A stride of at least the width plus 2 leaves two dead columns at the
        end of every row, so no shift by one column carries a cell into the
        next row.  The nine neighbor boards are shifts of the board, and a
        diagram node is ``lo ^ (X & (hi ^ lo))``, three int operations."""
        x0, y0, stride, board = key
        # boards[i] has the bit of each cell set when its neighbor x_i is live
        boards = [board << stride + 1 - db * stride - da for da, db in _OFFSETS9]
        # true is -1, every bit set; the rule sends an all-dead 3x3 block to 0,
        # so the root's board is a natural int within the grown box
        node = [0, -1]
        for var, lo, hi in self._diagram:
            lo = node[lo]
            node.append(lo ^ (boards[var] & (node[hi] ^ lo)))
        board = node[-1]
        if not y0:
            board >>= stride
            y0 = 1
        if not x0:
            rows = board.bit_length() // stride + 1
            board &= ~((1 << stride * rows) // ((1 << stride) - 1))
        return x0 - 1, y0 - 1, stride, board

    def __repr__(self) -> str:
        return f"<GridRuleMap rule_terms={len(self._rule.terms)}>"


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
      point of the orbit is a 0/1 point.  A point that :func:`_board`
      frames is keyed by its board ``(x0, y0, stride, board)``.  A step
      runs :meth:`GridRuleMap._image` on the board and finds the image's
      tight box by folding the rows in halves.  When :func:`_stride`, the
      framing rule of :func:`_board`, gives the box the board's own stride,
      the key is the image shifted to the box; any other image, empty, at
      a new stride or too sparse, is re-keyed from its cells by
      :func:`_board`, and takes a tuple key when that declines.
      A board costs 4 bytes per 30 bits, so a key at 1,024 bits per live
      cell costs about 137 bytes per live cell, up to about 2.9 times the
      tuple key of its point; a singleton walk stores every key it meets,
      so the limit bounds each key, not the walk.
      Any other point of such a walk, sparse or empty, keeps a tuple key and
      steps through ``apply``; the kind depends on the point alone.
    * *Tuples.*  Every other walk keys points with :meth:`SparsePoint._key`
      and steps a key by applying the generator to the point rebuilt from it,
      keying the image with the source's layout object, shared when the
      layout is unchanged.  A point of a Life walk costs about 44 to 48 bytes
      per live cell this way, mostly its coordinate ints."""
    start = x._key()
    layout = start[0]
    slot = {coord: i for i, coord in enumerate(layout)}
    magnitudes = list(dict.fromkeys(map(abs, start[1:])))
    plans = [_signed_permutation(g, slot) for g in generators]
    # itemgetter of one index returns the item, not a tuple, and a walk from
    # fewer than two coordinates stores next to nothing either way
    if len(layout) < 2 or len(magnitudes) > 128 or None in plans:
        boards = set(start[1:]) == {1} and all(
            isinstance(g, GridRuleMap) and g._pairing == generators[0]._pairing
            and g._diagram for g in generators)
        keyed, from_key = SparsePoint._key, SparsePoint._from_key
        if boards:
            forward, inverse = generators[0]._pairing

            def keyed(y, layout=()):
                return _board(list(map(inverse, y._entries))) or y._key(layout)

        def point(key):
            if type(key[0]) is tuple:
                return from_key(key)
            return SparsePoint._raw(_unpack(key, forward))

        def walker(g):
            apply, image = g.apply, boards and g._image

            def step(key):
                if type(key[0]) is tuple:
                    return keyed(apply(from_key(key)), key[0])
                key = image(key)
                x0, y0, stride, board = key
                if board:
                    # the tight box: its rows from the lowest and highest bits,
                    # its columns from the OR of all rows, folded in halves
                    rows = (board.bit_length() - 1) // stride + 1
                    top = ((board & -board).bit_length() - 1) // stride
                    height, fold = rows - top, board
                    while rows > 1:
                        rows = rows + 1 >> 1
                        half = rows * stride
                        fold = fold >> half | fold & (1 << half) - 1
                    left = (fold & -fold).bit_length() - 1
                    if _stride(fold.bit_length() - left, height, board.bit_count()) == stride:
                        return x0 + left, y0 + top, stride, board >> top * stride + left
                return _board(list(_cells(key))) or point(key)._key()

            return step

        return keyed(x), [walker(g) for g in generators], point
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
    _check_int(n, "iteration count", 0)
    for _ in range(n):
        x = m.apply(x)
    return x
