"""Sparse Conway's Game of Life on the unbounded plane, with RLE pattern I/O.

A configuration is a frozenset of live cells ``(x, y)`` on the full
integer lattice; x grows rightward, y grows downward (RLE row order).
Stepping only examines live cells and their neighbors, since a birth
needs three live neighbors and nothing else can change state.  A dense
configuration is stepped as one int, its neighbor counts added up in bit
planes; a sparse one is counted cell by cell, so memory stays in
proportion to the live cells.
"""

from __future__ import annotations

import re
from collections import Counter

__all__ = [
    "Cell",
    "LifeConfig",
    "MAX_RLE_CELLS",
    "RleParseError",
    "bounding_box",
    "emit_rle",
    "parse_rle",
    "random_soup",
    "render",
    "seeded_soups",
    "step",
    "translate",
]

Cell = tuple  # (x, y)
LifeConfig = frozenset  # of Cell

_STEPS = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))
# A configuration is packed when the packed int has at most this many bits per
# live cell, about where the packed and the per-cell path cost the same.
_PACKED_BITS_PER_CELL = 1024
# parse_rle expands at most this many live cells, so a short file cannot ask for
# a pattern that costs gigabytes
MAX_RLE_CELLS = 100_000


class RleParseError(ValueError):
    """RLE syntax error carrying a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def step(config: LifeConfig) -> LifeConfig:
    """One generation: birth on 3 live neighbors, survival on 2 or 3.

    When the bounding box, with a one-cell margin, has at most
    ``_PACKED_BITS_PER_CELL`` cells per live cell, the live cells become
    the bits of one int at a fixed row stride.  The eight shifted copies
    are summed with half adders into a ones plane, a twos plane and a
    sticky "four or more" plane; a cell is live next when the count is 2
    or 3 and, for 2, it is live now.  A sparser box counts neighbors in a
    ``Counter``, cell by cell.
    """
    if not config:
        return frozenset()
    xs, ys = zip(*config)
    x0, y0 = min(xs), min(ys)
    width, height = max(xs) - x0 + 1, max(ys) - y0 + 1
    if (width + 2) * (height + 2) > _PACKED_BITS_PER_CELL * len(config):
        counts = Counter([(x + dx, y + dy) for x, y in config for dx, dy in _STEPS])
        return frozenset(c for c, n in counts.items() if n == 3 or (n == 2 and c in config))
    stride = width + 2
    # cell (x, y) is bit (y - y0 + 1) * stride + (x - x0 + 1); a shift across the
    # end of a row lands on the first or last column, where no cell is live
    low = (y0 - 1) * stride + x0 - 1
    packed = bytearray((height + 1) * stride // 8 + 1)
    for x, y in config:
        p = y * stride + x - low
        packed[p >> 3] |= 1 << (p & 7)
    board = int.from_bytes(packed, "little")
    # bit planes of the neighbor count: ones, twos, and "four or more"
    ones = twos = many = 0
    for shift in (1, stride - 1, stride, stride + 1):
        for neighbor in (board << shift, board >> shift):
            carry = ones & neighbor
            ones ^= neighbor
            many |= twos & carry
            twos ^= carry
    bits = bin(twos & ~many & (ones | board))[:1:-1]  # bit p at bits[p]
    cells = []
    p = bits.find("1")
    while p != -1:
        y, x = divmod(p, stride)
        cells.append((x + x0 - 1, y + y0 - 1))
        p = bits.find("1", p + 1)
    return frozenset(cells)


def translate(config: LifeConfig, dx: int, dy: int) -> LifeConfig:
    return frozenset((x + dx, y + dy) for x, y in config)


def bounding_box(config: LifeConfig):
    """(min_x, min_y, max_x, max_y) of the live set, or None when empty."""
    if not config:
        return None
    xs = [x for x, _ in config]
    ys = [y for _, y in config]
    return (min(xs), min(ys), max(xs), max(ys))


def random_soup(rng, size: int, density: float, origin: Cell = (0, 0)) -> LifeConfig:
    """Random size x size soup; each cell is live with probability ``density``.

    Makes exactly ``size * size`` calls of ``rng.random()``, whatever the
    density: one per cell, row by row from the top and left to right
    within a row, the cell live when the draw is below ``density``.
    """
    draw = rng.random
    live = [i for i in range(size * size) if draw() < density]
    ox, oy = origin
    return frozenset([(ox + i % size, oy + i // size) for i in live])


def seeded_soups(seed: int, start: int, stop: int, size: int, density: float,
                 origin: Cell = (0, 0)):
    """Yield soups ``start`` to ``stop - 1`` of the stream that
    ``random_soup`` draws one after another from ``random.Random(seed)``.

    The draws of the soups before ``start`` are skipped, so a share of the
    stream is the same soups whichever share comes first: ``random()``
    reads two 32-bit words of the generator and ``getrandbits(64 * m)``
    reads ``2 * m`` of them, so one call skips one soup's draws.
    """
    import random

    rng = random.Random(seed)
    for _ in range(start):
        rng.getrandbits(64 * size * size)
    for _ in range(start, stop):
        yield random_soup(rng, size, density, origin)


_HEADER_RE = re.compile(r"^x\s*=\s*([0-9]+)\s*,\s*y\s*=\s*([0-9]+)\s*(?:,\s*rule\s*=\s*\S+\s*)?$")


def parse_rle(text: str) -> LifeConfig:
    """Parse run-length-encoded pattern text.

    Accepts the community dialect: ``#`` comment lines, a header
    ``x = <w>, y = <h>`` (a trailing ``rule = ...`` clause is ignored),
    runs of ``b``/``o``/``$``, and a ``!`` terminator after which the
    rest of the input is ignored.  A run is an optional count in ASCII
    digits, then its symbol; the count may be 0, and whitespace, line
    breaks and ``#`` lines may split it.  One pass keeps one pending
    count, which each ``b``, ``o`` or ``$`` uses up and a ``!`` must not
    find.  The pattern is anchored so its first
    row and column are 0, and every live cell must lie in the declared
    ``w`` x ``h`` box.  A run that would take the pattern past
    ``MAX_RLE_CELLS`` (100,000) live cells is an error raised before the
    run is expanded, so a file of a few bytes costs at most that many
    cells whatever its header declares; every run counts, also one that
    a zero-count ``$`` lays over cells already live.
    """
    lines = text.splitlines()
    header_at = None
    for i, raw in enumerate(lines):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        header = _HEADER_RE.match(s)
        if not header:
            raise RleParseError(f"malformed header {s!r}", i + 1, 1)
        width, height = int(header.group(1)), int(header.group(2))
        header_at = i
        break
    if header_at is None:
        raise RleParseError("missing header line", max(len(lines), 1), 1)

    cells = set()
    expanded = 0
    x = y = 0
    count = None  # the pending run count, None until its first digit
    for li in range(header_at + 1, len(lines)):
        line = lines[li]
        if line.lstrip().startswith("#"):
            continue
        for ci, ch in enumerate(line):
            if "0" <= ch <= "9":
                count = int(ch) if count is None else count * 10 + int(ch)
            elif ch in "bo$":
                n = 1 if count is None else count
                count = None
                if ch == "o":
                    if n and (x + n > width or y >= height):
                        raise RleParseError(f"live cell outside the declared {width} x {height} box",
                                            li + 1, ci + 1)
                    expanded += n
                    if expanded > MAX_RLE_CELLS:
                        raise RleParseError(
                            f"pattern has more than {MAX_RLE_CELLS} live cells", li + 1, ci + 1)
                    cells.update((x + k, y) for k in range(n))
                if ch == "$":
                    x, y = 0, y + n
                else:
                    x += n
            elif ch == "!":
                if count is not None:
                    raise RleParseError("run count before terminator", li + 1, ci + 1)
                return frozenset(cells)
            elif not ch.isspace():
                raise RleParseError(f"unknown symbol {ch!r}", li + 1, ci + 1)
    raise RleParseError("missing '!' terminator", len(lines), len(lines[-1]) + 1 if lines else 1)


def emit_rle(config: LifeConfig) -> str:
    """Encode a configuration, translated to its bounding-box origin.

    The empty configuration encodes as ``x = 0, y = 0`` with a bare
    terminator.  The live cells are walked once in (row, column) order
    with one cursor, the cell where the open run of live cells would
    continue; a cell anywhere else closes that run and writes the ``$``
    and ``b`` runs that reach it.  Each token is appended to the last
    body line, or starts a new one when it would pass 70 characters.
    """
    if not config:
        return "x = 0, y = 0\n!"
    x0, y0, x1, y1 = bounding_box(config)
    body = [""]

    def put(n: int, ch: str) -> None:
        token = ch if n == 1 else f"{n}{ch}"
        if body[-1] and len(body[-1]) + len(token) > 70:
            body.append(token)
        else:
            body[-1] += token

    # the cursor (row, col) is where the open run of `run` live cells would continue
    row = col = run = 0
    for y, x in sorted((y - y0, x - x0) for x, y in config):
        if y == row and x == col:
            run, col = run + 1, col + 1
            continue
        if run:
            put(run, "o")
        if y > row:
            put(y - row, "$")
            col = 0
        if x > col:
            put(x - col, "b")
        row, col, run = y, x + 1, 1
    put(run, "o")
    put(1, "!")
    return f"x = {x1 - x0 + 1}, y = {y1 - y0 + 1}\n" + "\n".join(body)


def render(config: LifeConfig) -> str:
    """``#``/``.`` grid clipped to the bounding box.  A box of more than
    ``MAX_RLE_CELLS`` cells, the cap a pattern file has, raises
    ``ValueError``, so a few distant cells cannot ask for gigabytes."""
    if not config:
        return "(empty)"
    x0, y0, x1, y1 = bounding_box(config)
    if (x1 - x0 + 1) * (y1 - y0 + 1) > MAX_RLE_CELLS:
        raise ValueError(f"a {x1 - x0 + 1} x {y1 - y0 + 1} grid has more than "
                         f"{MAX_RLE_CELLS} cells")
    return "\n".join(
        "".join("#" if (x, y) in config else "." for x in range(x0, x1 + 1))
        for y in range(y0, y1 + 1)
    )
