"""Deterministic single-tape Turing machines on a half-infinite tape.

Machine description format (line-oriented; ``#`` starts a comment):

    states: q0 q1 qa qr        all states, including the halting ones
    input:  0 1                input alphabet (must not contain the blank)
    tape:   0 1 _              tape alphabet (must contain blank and input)
    blank:  _
    start:  q0
    accept: qa
    reject: qr
    q0, 0 -> q1, 1, R          one transition per line: read -> write, move
    q0, 1 -> q0, 1, L

Header lines may appear in any order; each is required exactly once.
States and symbols are arbitrary whitespace-free identifiers.  The
transition table must be total on (non-halting state, tape symbol);
rules sourced at a halting state are ignored, since a halting state has
no successor: :func:`tm_step` returns None from it, and
:func:`trajectory` ends on the halting configuration.  :func:`tm_step`
raises TmError on a configuration in an undeclared state, or whose head
reads a symbol outside the tape alphabet.  The head starts on cell 0;
moving left from cell 0 leaves the head in place (the write and state
change still happen).

``Configuration(state, tape, head, blank)`` is the one checking
constructor of a configuration; it drops blank cells, so a written blank
and an unwritten cell give the same configuration.  A configuration keeps
its tape as a persistent zipper of shared cons cells plus an XOR
fingerprint of its non-blank cells, so :func:`tm_step` allocates O(1)
cells and hashing a configuration costs O(1), whatever the tape length.
Successive configurations share all but a few cells, so storing every
state of a walk costs O(1) memory per state.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .cycles import _Record

__all__ = [
    "Configuration",
    "TMDesc",
    "TmError",
    "TmParseError",
    "TmValidationError",
    "initial_config",
    "parse_tm",
    "parse_word",
    "step_fn",
    "tm_step",
    "trajectory",
]


class TmError(ValueError):
    """Base class for Turing machine errors."""


class TmParseError(TmError):
    """Syntax error in a machine description."""


class TmValidationError(TmError):
    """Well-formed text describing an invalid machine."""


class TMDesc(_Record):
    """A machine description.  The constructor checks it and raises
    TmValidationError, so every ``TMDesc`` has declared start and halting
    states and a total transition table on (non-halting state, tape symbol).
    It keeps a read-only copy of the table without the rows sourced at a
    halting state; it is immutable, ``hash`` leaves the table out and ``==``
    compares it."""

    __slots__ = ("states", "input_alphabet", "tape_alphabet", "blank", "transitions",
                 "start", "accept", "reject")

    def __init__(self, states: frozenset, input_alphabet: frozenset, tape_alphabet: frozenset,
                 blank: str, transitions: Mapping, start: str, accept: str, reject: str):
        # transitions: (state, symbol) -> (state, symbol, "L" | "R")
        halting = (accept, reject)
        table = {k: v for k, v in transitions.items() if k[0] not in halting}
        if accept == reject:
            raise TmValidationError("accept and reject states must differ")
        for role, q in (("start", start), ("accept", accept), ("reject", reject)):
            if q not in states:
                raise TmValidationError(f"{role} state '{q}' is not a declared state")
        if blank not in tape_alphabet:
            raise TmValidationError(f"blank symbol '{blank}' must be in the tape alphabet")
        if blank in input_alphabet:
            raise TmValidationError("the blank symbol may not be in the input alphabet")
        for s in input_alphabet:
            if s not in tape_alphabet:
                raise TmValidationError(f"input symbol '{s}' missing from the tape alphabet")
        for (q, s), (q2, s2, move) in table.items():
            for state in (q, q2):
                if state not in states:
                    raise TmValidationError(f"rule references unknown state '{state}'")
            for sym in (s, s2):
                if sym not in tape_alphabet:
                    raise TmValidationError(f"rule references unknown symbol '{sym}'")
            if move not in ("L", "R"):
                raise TmValidationError(f"rule move must be L or R, got '{move}'")
        for q in states:
            if q in halting:
                continue
            for s in tape_alphabet:
                if (q, s) not in table:
                    raise TmValidationError(f"transition missing for state '{q}' reading '{s}'")
        values = (states, input_alphabet, tape_alphabet, blank, MappingProxyType(table),
                  start, accept, reject)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash((self.states, self.input_alphabet, self.tape_alphabet, self.blank,
                     self.start, self.accept, self.reject))


_NIL = ()  # the empty cons list; cells are (symbol, rest) pairs, blank = None


def _check_natural(value, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise TmError(f"{what} must be a natural number, got {value!r}")


class Configuration:
    """Machine state, tape contents, and head position; immutable.

    ``Configuration(state, tape, head, blank)`` is the one checking
    constructor: ``tape`` is a mapping or (cell, symbol) pairs, every cell
    and the head must be natural ``int`` values (not ``bool``), else it
    raises TmError, and cells holding ``blank`` are dropped.  The blank
    itself is not kept.

    The tape is a zipper of persistent cons lists.  ``_left`` holds cells
    head-1, ..., 0 (blanks as None), so its length is exactly ``head``;
    ``_right`` holds cells head, head+1, ... up to the last non-blank cell
    and never ends in a blank.  Each content thus has one representation,
    and ``_fp``, the XOR of ``hash((cell, symbol))`` over the non-blank
    cells, is kept up to date on each write.  A step allocates O(1) cells,
    ``hash`` costs O(1), and ``==`` is exact: it compares fingerprint,
    head and state first, then walks both tapes until their tails are
    shared.

    ``tape`` is the sorted tuple of (cell, symbol) pairs holding only
    non-blank cells; it is built on demand, in time linear in the tape.
    """

    __slots__ = ("_state", "_head", "_left", "_right", "_fp")

    def __init__(self, state: str, tape: Union[Mapping[int, str], Iterable], head: int, blank: str):
        _check_natural(head, "head position")
        cells = {}
        for cell, symbol in dict(tape).items():
            _check_natural(cell, "tape cell")
            if symbol != blank:
                cells[cell] = symbol
        left = right = _NIL
        for cell in range(head):
            left = (cells.get(cell), left)
        for cell in range(max(cells, default=-1), head - 1, -1):
            right = (cells.get(cell), right)
        fp = 0
        for cell in cells.items():
            fp ^= hash(cell)
        self._state, self._head, self._left, self._right, self._fp = state, head, left, right, fp

    @property
    def state(self) -> str:
        return self._state

    @property
    def head(self) -> int:
        return self._head

    @property
    def tape(self) -> tuple:
        symbols = [*_symbols(self._left)][::-1] + [*_symbols(self._right)]
        return tuple((cell, s) for cell, s in enumerate(symbols) if s is not None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        if self._fp != other._fp or self._head != other._head or self._state != other._state:
            return False
        for a, b in ((self._left, other._left), (self._right, other._right)):
            while a is not b:
                if not a or not b or a[0] != b[0]:
                    return False
                a, b = a[1], b[1]
        return True

    def __hash__(self) -> int:
        return hash((self._state, self._head, self._fp))

    def __repr__(self) -> str:
        return f"Configuration(state={self._state!r}, tape={self.tape!r}, head={self._head!r})"


def _symbols(node: tuple) -> Iterator[Optional[str]]:
    while node:
        yield node[0]
        node = node[1]


def _configuration(state: str, head: int, left: tuple, right: tuple, fp: int) -> Configuration:
    c = Configuration.__new__(Configuration)
    c._state, c._head, c._left, c._right, c._fp = state, head, left, right, fp
    return c


_HEADER_KEYS = ("states", "input", "tape", "blank", "start", "accept", "reject")


def parse_tm(text: str) -> TMDesc:
    """Parse and validate a machine description (format in module docstring)."""
    headers: dict[str, list[str]] = {}
    transitions: dict[tuple[str, str], tuple[str, str, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if sep and key.strip() in _HEADER_KEYS:
            name = key.strip()
            if name in headers:
                raise TmParseError(f"duplicate header '{name}:' (line {lineno})")
            headers[name] = rest.split()
            continue
        if "->" in line:
            left, right = line.split("->", 1)
            lparts = [t.strip() for t in left.split(",")]
            rparts = [t.strip() for t in right.split(",")]
            if len(lparts) != 2 or len(rparts) != 3 or not all(lparts + rparts):
                raise TmParseError(
                    f"malformed rule (line {lineno}): expected \"state, symbol -> state, symbol, L|R\""
                )
            q, s = lparts
            if (q, s) in transitions:
                raise TmParseError(f"duplicate rule for ('{q}', '{s}') (line {lineno})")
            transitions[(q, s)] = tuple(rparts)
            continue
        raise TmParseError(f"unrecognized line {lineno}: {raw.strip()!r}")

    for name in _HEADER_KEYS:
        if name not in headers:
            raise TmParseError(f"missing '{name}:' header")
    for name in ("blank", "start", "accept", "reject"):
        if len(headers[name]) != 1:
            raise TmParseError(f"header '{name}:' must name exactly one token")

    return TMDesc(
        states=frozenset(headers["states"]),
        input_alphabet=frozenset(headers["input"]),
        tape_alphabet=frozenset(headers["tape"]),
        blank=headers["blank"][0],
        transitions=transitions,
        start=headers["start"][0],
        accept=headers["accept"][0],
        reject=headers["reject"][0],
    )


def parse_word(text: str, m: TMDesc) -> list[str]:
    """Interpret CLI input text as a word over the input alphabet.

    Whitespace-separated tokens are taken as symbols; a single unbroken
    token that is not itself a symbol is split into characters.  Every
    symbol must be in the input alphabet.
    """
    tokens = text.split()
    if len(tokens) == 1 and tokens[0] not in m.input_alphabet:
        tokens = list(tokens[0])
    if not all(symbol in m.input_alphabet for symbol in tokens):
        raise TmError(f"cannot read {text.strip()!r} as a word over the input alphabet")
    return tokens


def initial_config(m: TMDesc, word: Sequence[str]) -> Configuration:
    """Start state, word on the leftmost cells, head on cell 0."""
    for symbol in word:
        if symbol not in m.input_alphabet:
            raise TmError(f"input symbol '{symbol}' is not in the input alphabet")
    return Configuration(m.start, enumerate(word), 0, m.blank)


def tm_step(m: TMDesc, c: Configuration) -> Optional[Configuration]:
    """One transition, or None from a halting state whatever the tape and head.

    Raises TmError when ``c`` is in an undeclared state or its head reads a
    symbol outside the tape alphabet.  Both show as a miss of the one table
    lookup, as does a halting state, whose rows the table leaves out.
    """
    head, left, right, fp = c._head, c._left, c._right, c._fp
    read, rest = right if right else (None, _NIL)
    row = m.transitions.get((c._state, m.blank if read is None else read))
    if row is None:
        if c._state == m.accept or c._state == m.reject:
            return None
        if c._state not in m.states:
            raise TmError(f"corrupt configuration: unknown state '{c._state}'")
        raise TmError(f"corrupt configuration: symbol '{read}' is not in the tape alphabet")
    state, write, move = row
    if write == m.blank:
        write = None
    if write != read:
        if read is not None:
            fp ^= hash((head, read))
        if write is not None:
            fp ^= hash((head, write))
    if move == "R":
        return _configuration(state, head + 1, (write, left), rest, fp)
    if write is not None or rest:
        rest = (write, rest)
    if not head:  # the clamp at cell 0
        return _configuration(state, 0, left, rest, fp)
    symbol, left = left
    if symbol is not None or rest:
        rest = (symbol, rest)
    return _configuration(state, head - 1, left, rest, fp)


def trajectory(m: TMDesc, word: Sequence[str]) -> Iterator[Configuration]:
    """Lazy configuration sequence; ends at the halting configuration if reached."""
    c = initial_config(m, word)
    while c is not None:
        yield c
        c = tm_step(m, c)


def step_fn(m: TMDesc) -> Callable[[Configuration], Optional[Configuration]]:
    """The step function of ``m`` for cycle detection: None once the machine halts."""
    return partial(tm_step, m)
