"""Sparse multivariate polynomial arithmetic over the integers.

A polynomial is stored canonically: a dict from monomials to nonzero
integer coefficients, where a monomial is a tuple of ``(variable,
exponent)`` pairs sorted by variable index with every exponent positive.
The empty tuple is the constant monomial.  Two polynomials are equal
exactly when their canonical term maps are equal, and hashing respects
that, so polynomials work as dict keys and set members.

The constructor is the one place that canonicalizes: it sorts and merges
each monomial's factors, sums the coefficients of equal monomials and
drops the zeros.  ``+`` passes it both operands' terms and ``*`` every
pairwise product of terms, so the operators hold no merge of their own.

Coefficients and evaluation use Python's arbitrary-precision integers,
so iterating polynomial maps never overflows or rounds.

Evaluation walks a prefix tree of the canonical monomials: a node keyed
``(var, exp)`` extends its parent's monomial by ``var**exp`` and holds
the coefficient of the monomial that ends there.  A product shared by
several monomials is computed once, and a variable that reads 0 prunes
every monomial below it, so a sparse assignment pays only for the terms
it can switch on.  The tree is built without recursion by both
constructors, ``__init__`` and ``_raw``, and takes no part in equality or
hashing.

Text format (round-trippable): terms sorted by total degree, then by
variable index, e.g. ``-1*x0^2*x1 + 3*x4 + 2``.
"""

from __future__ import annotations

import re
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from . import _check_int

__all__ = [
    "Monomial",
    "Polynomial",
    "PolyParseError",
    "constant",
    "parse_poly",
    "variable",
]

# ((var, exp), ...) sorted by var, every exp > 0; () is the constant monomial
Monomial = tuple


class PolyParseError(ValueError):
    """Raised when polynomial text does not match the term grammar."""


def _normalize_monomial(pairs: Iterable[tuple[int, int]]) -> Monomial:
    merged: dict[int, int] = {}
    for var, exp in pairs:
        _check_int(var, "variable index", 0)
        _check_int(exp, "exponent", 0)
        if exp:
            merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


def _monomial_tree(terms: Mapping[Monomial, int]) -> list:
    """Prefix tree of canonical monomials.  A node is ``[coeff, children]``,
    children mapping ``(var, exp)`` to the node one factor longer; the root
    holds the constant term."""
    root = [0, {}]
    for mono, coeff in terms.items():
        node = root
        for key in mono:
            children = node[1]
            child = children.get(key)
            if child is None:
                child = children[key] = [0, {}]
            node = child
        node[0] = coeff
    return root


class Polynomial:
    """Immutable sparse polynomial in variables x0, x1, ... over the integers."""

    __slots__ = ("_terms", "_tree")

    def __init__(self, terms: Union[Mapping, Iterable, None] = None):
        data: dict[Monomial, int] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for mono, coeff in items:
                _check_int(coeff, "coefficient")
                key = _normalize_monomial(mono)
                c = data.get(key, 0) + coeff
                if c:
                    data[key] = c
                else:
                    data.pop(key, None)
        self._terms = data
        self._tree = _monomial_tree(data)

    @classmethod
    def _raw(cls, data: dict) -> "Polynomial":
        # data must already be canonical (normalized keys, no zero coefficients)
        p = cls.__new__(cls)
        p._terms = data
        p._tree = _monomial_tree(data)
        return p

    @property
    def terms(self) -> Mapping[Monomial, int]:
        """Read-only view of the canonical monomial -> coefficient map."""
        return MappingProxyType(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        terms = self._terms
        if terms.keys() <= {()}:  # a constant must hash like the int it equals
            return hash(terms.get((), 0))
        return hash(frozenset(terms.items()))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial([*self._terms.items(), *other._terms.items()])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = other._terms.items()
        return Polynomial([(m1 + m2, c1 * c2) for m1, c1 in self._terms.items() for m2, c2 in terms])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        _check_int(n, "polynomial exponent", 0)
        result = constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def evaluate(self, assignment) -> int:
        """Evaluate at an assignment: any mapping var -> int with a ``get``
        method, such as a dict or a ``SparsePoint``; missing vars read as 0.
        A sequence of values is passed as ``dict(enumerate(values))``.

        Walks the monomial prefix tree (see the module docstring) with an
        explicit stack, so a monomial of any length evaluates without
        recursion.  A variable that reads 0 skips its subtree, so only
        variables below a nonzero prefix product are read, and each prefix
        product is computed once."""
        get = assignment.get
        total, children = self._tree
        prod = 1
        stack = []
        while True:
            for (var, exp), (coeff, below) in children.items():
                v = get(var, 0)
                if v:
                    if exp > 1:
                        v **= exp
                    if prod != 1:  # at the root, and always on 0/1 inputs
                        v *= prod
                    if coeff:
                        total += coeff * v
                    if below:
                        stack.append((v, below))
            if not stack:
                return total
            prod, children = stack.pop()

    def support_vars(self) -> frozenset:
        """Variables occurring with positive exponent in some term."""
        return frozenset(var for mono in self._terms for var, _ in mono)

    def to_text(self) -> str:
        """Canonical text: terms by descending total degree, then variable order."""
        if not self._terms:
            return "0"

        def order(item):
            mono, _ = item
            return (-sum(e for _, e in mono), tuple((v, -e) for v, e in mono))

        rendered = []
        for mono, coeff in sorted(self._terms.items(), key=order):
            body = "*".join(f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in mono)
            rendered.append((coeff, body))
        coeff, body = rendered[0]
        parts = [f"{coeff}*{body}" if body else str(coeff)]
        for coeff, body in rendered[1:]:
            sign = " + " if coeff >= 0 else " - "
            mag = abs(coeff)
            parts.append(sign + (f"{mag}*{body}" if body else str(mag)))
        return "".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<Polynomial {self.to_text()}>"


def variable(index: int) -> Polynomial:
    """The polynomial x<index>."""
    return Polynomial([(((index, 1),), 1)])


def constant(value: int) -> Polynomial:
    """The constant polynomial."""
    return Polynomial([((), value)])


def _coerce(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return constant(int(value))  # a bool operand reads as its int
    return NotImplemented


def _numeral(digits: str, term: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on integer digits
        raise PolyParseError(f"too many digits in term {term!r}") from None


_FACTOR_RE = re.compile(r"^x([0-9]+)(?:\^([0-9]+))?$")
# a term separator: "+", "-", or "+" then "-"; a "-" in it makes the next term negative
_TERM_SEP_RE = re.compile(r"(\+\s*-|[+-])")


def parse_poly(text: str) -> Polynomial:
    """Parse the text format emitted by :meth:`Polynomial.to_text`.

    Terms are separated by ``+``, ``-``, or ``+`` then ``-``, and the
    first term may carry one of these as its sign; whitespace is free
    around every sign and ``*``.  A term is its factors joined by ``*``:
    an optional coefficient first, then ``x<i>`` or ``x<i>^<e>``, in
    ASCII digits.  Terms may come in any order.
    """
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial text")
    # ["", sign, term, sign, term, ...]: the leading sign leaves an empty first
    # piece, and a first term without one is given "+"
    pieces = _TERM_SEP_RE.split(s if s[0] in "+-" else "+" + s)
    terms = []
    for sign, chunk in zip(pieces[1::2], pieces[2::2]):
        chunk = chunk.strip()
        if not chunk:
            raise PolyParseError(f"empty term in {s!r}")
        coeff = 1
        pairs = []
        for i, raw in enumerate(chunk.split("*")):
            token = raw.strip()
            if not token:
                raise PolyParseError(f"empty factor in term {chunk!r}")
            if token.isascii() and token.isdigit():
                if i != 0:
                    raise PolyParseError(f"coefficient must lead its term: {chunk!r}")
                coeff = _numeral(token, chunk)
                continue
            m = _FACTOR_RE.match(token)
            if not m:
                raise PolyParseError(f"bad factor {token!r} in term {chunk!r}")
            pairs.append((_numeral(m.group(1), chunk), _numeral(m.group(2) or "1", chunk)))
        terms.append((tuple(pairs), -coeff if sign.endswith("-") else coeff))
    return Polynomial(terms)
