"""The seven value records: verdicts, the pairing spec and the machine description.

Each is immutable, compares only with its own type, hashes consistently
with ``==`` and keeps the ``Name(field=value, ...)`` repr it has always had.
"""

import itertools
import re

import pytest

from orbitkit.cycles import Exhausted, Periodic, Terminated
from orbitkit.dynamics import PairingSpec
from orbitkit.lifepoly import pair, unpair
from orbitkit.orbit import Stable, Unknown
from orbitkit.turing import TMDesc


def machine(**changes):
    fields = dict(states=frozenset({"q", "qa", "qr"}), input_alphabet=frozenset(),
                  tape_alphabet=frozenset({"_"}), blank="_",
                  transitions={("q", "_"): ("qa", "_", "R")}, start="q", accept="qa",
                  reject="qr")
    return TMDesc(**{**fields, **changes})


M = machine()
RECORDS = [
    Periodic(1, 2), Terminated(3), Exhausted(3), Stable(2), Stable(2, (0, 2)),
    Unknown(2, "budget"), PairingSpec("cantor", pair, unpair), M,
]


TM_REPR = ("TMDesc(states=frozenset({{{}}}), input_alphabet=frozenset(), "
           "tape_alphabet=frozenset({{'_'}}), blank='_', "
           "transitions=mappingproxy({{('q', '_'): ('qa', '_', 'R')}}), "
           "start='q', accept='qa', reject='qr')")
# A frozenset prints in string-hash order, which varies by process, so the
# machine's repr is pinned once per order of its three states: each case fixes
# every other character and must match in any process.
TM_ORDERS = list(itertools.permutations(["q", "qa", "qr"]))

REPR_CASES = [
    (Periodic(1, 2), "Periodic(preperiod=1, period=2)"),
    (Terminated(3), "Terminated(steps=3)"),
    (Exhausted(4), "Exhausted(budget=4)"),
    (Stable(2), "Stable(orbit_size=2, witness=None)"),
    (Stable(2, (0, 2)), "Stable(orbit_size=2, witness=(0, 2))"),
    (Unknown(5, "budget"), "Unknown(points_explored=5, budget_hit='budget')"),
    (PairingSpec("cantor", pair, unpair),
     f"PairingSpec(name='cantor', forward={pair!r}, inverse={unpair!r})"),
] + [(M, TM_REPR.format(", ".join(map(repr, order)))) for order in TM_ORDERS]
# Fixed ids: the last reprs hold function addresses and a frozenset in hash
# order, so ids taken from repr() would change from process to process.
REPR_IDS = [f"record{i}-{text}" for i, (_, text) in enumerate(REPR_CASES[:6])] + [
    "record6-PairingSpec(name='cantor', forward=<function pair at ...>, "
    "inverse=<function unpair at ...>)",
] + [f"record7-{text[:text.index('input_alphabet=') + 26]} ...)"
     for _, text in REPR_CASES[7:]]


def states_sorted(text):
    """``text`` with the elements of its ``states=frozenset({...})`` in sorted order."""
    return re.sub(r"states=frozenset\(\{([^}]*)\}\)",
                  lambda m: f"states=frozenset({{{', '.join(sorted(m[1].split(', ')))}}})",
                  text)


@pytest.mark.parametrize("record, text", REPR_CASES, ids=REPR_IDS)
def test_repr_is_pinned(record, text):
    if isinstance(record, TMDesc):
        assert f"(states={record.states!r}, " in repr(record)
        assert states_sorted(repr(record)) == states_sorted(text)
    else:
        assert repr(record) == text


def test_keyword_and_positional_construction_agree():
    assert Periodic(preperiod=1, period=2) == Periodic(1, 2)
    assert Terminated(steps=3) == Terminated(3)
    assert Exhausted(budget=3) == Exhausted(3)
    assert Stable(orbit_size=2, witness=(0, 2)) == Stable(2, (0, 2))
    assert Stable(2).witness is None
    assert Unknown(points_explored=2, budget_hit="budget") == Unknown(2, "budget")
    assert PairingSpec(name="cantor", forward=pair, inverse=unpair) == PairingSpec(
        "cantor", pair, unpair)
    assert TMDesc(M.states, M.input_alphabet, M.tape_alphabet, M.blank, M.transitions,
                  M.start, M.accept, M.reject) == M


def test_records_of_different_types_are_never_equal():
    assert Terminated(3) != Exhausted(3)
    assert Stable(2) != Unknown(2, "budget")
    assert Periodic(1, 2) != (1, 2)
    assert Terminated(3) != 3
    for a in RECORDS:
        for b in RECORDS:
            assert (a == b) == (a is b)


def test_hash_agrees_with_equality():
    assert hash(Periodic(1, 2)) == hash(Periodic(preperiod=1, period=2))
    assert hash(Stable(2, (0, 2))) == hash(Stable(2, witness=(0, 2)))
    assert hash(Unknown(7, "max_depth")) == hash(Unknown(7, "max_depth"))
    assert len({Terminated(3), Terminated(3), Exhausted(3)}) == 2


@pytest.mark.parametrize(
    "record, name",
    zip(RECORDS, ["period", "steps", "budget", "orbit_size", "witness", "budget_hit", "name",
                  "transitions"]),
    ids=[type(r).__name__ for r in RECORDS],
)
def test_records_are_immutable(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_pairing_spec_compares_and_hashes_by_name_only():
    a = PairingSpec("cantor", pair, unpair)
    b = PairingSpec("cantor", lambda a, b: 0, lambda n: (0, 0))
    assert a == b and hash(a) == hash(b)
    assert a != PairingSpec("other", pair, unpair)


def test_machine_hash_leaves_the_table_out():
    other = machine(transitions={("q", "_"): ("qr", "_", "R")})
    assert M != other and hash(M) == hash(other)
    assert M == machine() and hash(M) == hash(machine())
