"""One rule for every integer argument: an ``int`` itself, at least its minimum."""

import ast
import re
from enum import IntEnum
from pathlib import Path

import pytest

import orbitkit
from orbitkit.cycles import detect_brent, detect_hashset
from orbitkit.dynamics import FiniteComponentMap, SparsePoint, iterate
from orbitkit.orbit import is_stable_singleton, orbit_closure
from orbitkit.polymap import Polynomial, parse_poly
from orbitkit.turing import Configuration, TmError


class Small(IntEnum):
    ONE = 1


def shift(n):
    return n + 1


IDENTITY = FiniteComponentMap({})

# (entry point and argument, name in the message, minimum or None, error, call)
ENTRY_POINTS = [
    ("SparsePoint-coordinate", "coordinate", 0, ValueError, lambda v: SparsePoint({v: 1})),
    ("SparsePoint-value", "value", None, ValueError, lambda v: SparsePoint({0: v})),
    ("FiniteComponentMap-coordinate", "component coordinate", 0, ValueError,
     lambda v: FiniteComponentMap({v: parse_poly("x0")})),
    ("iterate-n", "iteration count", 0, ValueError, lambda v: iterate(IDENTITY, SparsePoint(), v)),
    ("Polynomial-coefficient", "coefficient", None, ValueError, lambda v: Polynomial([((), v)])),
    ("Polynomial-variable", "variable index", 0, ValueError,
     lambda v: Polynomial([(((v, 1),), 1)])),
    ("Polynomial-exponent", "exponent", 0, ValueError, lambda v: Polynomial([(((0, v),), 1)])),
    ("detect_hashset-budget", "budget", 0, ValueError, lambda v: detect_hashset(shift, 0, v)),
    ("detect_brent-budget", "budget", 0, ValueError, lambda v: detect_brent(shift, 0, v)),
    ("is_stable_singleton-budget", "budget", 1, ValueError,
     lambda v: is_stable_singleton(IDENTITY, SparsePoint(), v)),
    ("orbit_closure-max_points", "max_points", 1, ValueError,
     lambda v: orbit_closure([IDENTITY], SparsePoint(), v, 1)),
    ("orbit_closure-max_depth", "max_depth", 1, ValueError,
     lambda v: orbit_closure([IDENTITY], SparsePoint(), 1, v)),
    ("Configuration-head", "head position", 0, TmError, lambda v: Configuration("q", {}, v, "_")),
    ("Configuration-cell", "tape cell", 0, TmError,
     lambda v: Configuration("q", {v: "1"}, 0, "_")),
]


@pytest.mark.parametrize("name, minimum, error, call",
                         [pytest.param(*entry[1:], id=entry[0]) for entry in ENTRY_POINTS])
def test_every_integer_argument_is_an_int_of_at_least_its_minimum(name, minimum, error, call):
    bound = "" if minimum is None else f" >= {minimum}"
    # _check_int branches on the type and on the bound, so one value of each kind
    # stands for its kind: bools and an IntEnum member are ints by isinstance and
    # equal to a valid value, a float is fractional, a str is a numeral
    bad = [True, False, Small.ONE, 2.5, "1"] + ([] if minimum is None else [minimum - 1])
    for value in bad:
        message = f"{name} must be an integer{bound}, got {value!r}"
        with pytest.raises(error, match=re.escape(message)):
            call(value)
    call(-3 if minimum is None else minimum)


def test_no_module_spells_the_integer_rule_with_isinstance_bool():
    # the rule lives in orbitkit._check_int; a test of isinstance(x, bool) next to
    # isinstance(x, int) is a second copy of it, and lets every other subclass through
    src = Path(orbitkit.__file__).parents[1]
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                    found.append(f"{path.relative_to(src)}:{node.lineno}")
    assert found == []
