import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from orbitkit.cycles import Exhausted, Periodic, Terminated, detect_brent, detect_hashset
from orbitkit.turing import (
    Configuration,
    TMDesc,
    TmError,
    TmParseError,
    TmValidationError,
    initial_config,
    parse_tm,
    parse_word,
    step_fn,
    tm_step,
    trajectory,
)

from helpers import (
    ACCEPT_ON_START,
    RIGHT_MOVER,
    RIGHT_WRITER,
    STAY_LEFT_LOOPER,
    WRITER,
    clocked,
    reference_cycle_verdict,
    reference_tm_step,
)

TWO_STATE_LOOPER = """
states: a b qa qr
input: 0
tape: 0 _
blank: _
start: a
accept: qa
reject: qr
a, 0 -> b, 0, R
a, _ -> b, _, R
b, 0 -> a, 0, L
b, _ -> a, _, L
"""


def test_parse_two_state_looper():
    m = parse_tm(TWO_STATE_LOOPER)
    assert m.states == frozenset({"a", "b", "qa", "qr"})
    assert m.start == "a" and m.accept == "qa" and m.reject == "qr"
    assert m.blank == "_"
    assert m.transitions[("a", "0")] == ("b", "0", "R")
    assert len(m.transitions) == 4


def test_initial_config_empty_word():
    m = parse_tm(RIGHT_MOVER)
    c = initial_config(m, [])
    assert c == Configuration(state="q", tape=(), head=0, blank="_")


def test_initial_config_places_word_left():
    m = parse_tm(WRITER)
    c = initial_config(m, ["0", "1"])
    assert c.tape == ((0, "0"), (1, "1"))
    assert c.head == 0 and c.state == "q"


def test_initial_config_rejects_blank_in_word():
    m = parse_tm(WRITER)
    with pytest.raises(TmError):
        initial_config(m, ["0", "_"])


def test_halting_state_absorbs():
    m = parse_tm(ACCEPT_ON_START)
    assert tm_step(m, initial_config(m, [])) is None
    # regardless of tape and head
    weird = Configuration("qa", {5: "_"}, 3, m.blank)
    assert tm_step(m, weird) is None
    # even on a symbol outside the tape alphabet
    assert tm_step(m, Configuration("qr", {0: "z"}, 0, m.blank)) is None


def test_left_edge_clamp_keeps_write_and_state_change():
    m = parse_tm(WRITER)
    out = tm_step(m, initial_config(m, ["0"]))
    assert isinstance(out, Configuration)
    assert out.head == 0  # attempted to move left from cell 0
    assert out.state == "p"
    assert dict(out.tape).get(0, m.blank) == "1"


def test_right_mover_single_step():
    m = parse_tm(RIGHT_MOVER)
    out = tm_step(m, initial_config(m, []))
    assert out == Configuration(state="q", tape=(), head=1, blank="_")


def test_step_rejects_unknown_state():
    m = parse_tm(RIGHT_MOVER)
    with pytest.raises(TmError):
        tm_step(m, Configuration(state="ghost", tape=(), head=0, blank="_"))


# a table miss is a halt, an undeclared state or a foreign symbol, in that order
@pytest.mark.parametrize("state, message", [
    ("ghost", "unknown state 'ghost'"),
    ("q", "symbol 'z' is not in the tape alphabet"),
])
def test_step_names_what_the_table_lookup_missed(state, message):
    m = parse_tm(RIGHT_MOVER)
    with pytest.raises(TmError, match=message):
        tm_step(m, Configuration(state, {0: "z"}, 0, m.blank))


def test_trajectory_accept_on_start_has_length_one():
    m = parse_tm(ACCEPT_ON_START)
    assert [c.state for c in trajectory(m, [])] == ["qa"]


def test_trajectory_right_mover_heads_increase():
    m = parse_tm(RIGHT_MOVER)
    configs = list(islice(trajectory(m, []), 50))
    assert [c.head for c in configs] == list(range(50))
    assert len(set(configs)) == 50


def test_trajectory_stay_left_is_constant_after_first_step():
    m = parse_tm(STAY_LEFT_LOOPER)
    configs = list(islice(trajectory(m, []), 5))
    assert configs[1] == configs[2] == configs[3] == configs[4]
    assert configs[0] == configs[1]  # already at the fixed point on empty input


def test_trajectory_includes_halting_configuration():
    m = parse_tm(WRITER)
    configs = list(trajectory(m, ["1"]))
    assert configs[-1].state == m.accept
    assert len(configs) == 2


def test_step_fn_signals_termination_with_none():
    m = parse_tm(WRITER)
    step = step_fn(m)
    c = initial_config(m, ["1"])
    nxt = step(c)
    assert nxt is not None and nxt.state == "qa"
    assert step(nxt) is None


def test_tape_locality():
    m = parse_tm(TWO_STATE_LOOPER)
    configs = list(islice(trajectory(m, ["0", "0", "0"]), 20))
    for a, b in zip(configs, configs[1:]):
        assert abs(a.head - b.head) <= 1
        changed = set(dict(a.tape).items()) ^ set(dict(b.tape).items())
        assert len({cell for cell, _ in changed}) <= 1


def test_determinism():
    m = parse_tm(TWO_STATE_LOOPER)
    c = initial_config(m, ["0"])
    assert tm_step(m, c) == tm_step(m, c)


def test_configuration_normalization_drops_blanks():
    a = Configuration("q", {0: "0", 1: "_", 7: "_"}, 0, "_")
    b = Configuration("q", {0: "0"}, 0, "_")
    assert a == b
    assert hash(a) == hash(b)


def test_configuration_validates_positions():
    # a bad head or cell is a case of tests/test_integer_arguments.py; a negative
    # cell that holds the blank is checked before blanks are dropped
    with pytest.raises(TmError, match="tape cell must be an integer >= 0, got -3"):
        Configuration("q", [(2, "0"), (-3, "_")], 1, "_")


@given(
    st.dictionaries(st.integers(0, 30), st.sampled_from("01")),
    st.sets(st.integers(0, 40)),
    st.integers(0, 40),
    st.booleans(),
)
def test_written_blanks_are_dropped(symbols, blanks, head, as_pairs):
    written = {cell: "_" for cell in blanks} | symbols
    tape = sorted(written.items(), reverse=True) if as_pairs else written
    a = Configuration("q", tape, head, "_")
    b = Configuration("q", symbols, head, "_")
    assert a == b and hash(a) == hash(b)
    assert a.tape == b.tape == tuple(sorted(symbols.items()))


FLIPPER = """
states: q p qa qr
input: 1
tape: 1 _
blank: _
start: q
accept: qa
reject: qr
q, _ -> p, 1, L
q, 1 -> p, _, L
p, 1 -> q, _, L
p, _ -> q, 1, L
"""


@pytest.mark.parametrize("detect", [detect_hashset, detect_brent])
def test_a_written_blank_start_is_on_the_cycle(detect):
    # the second step writes the blank back, which is the start configuration again
    m = parse_tm(FLIPPER)
    start = Configuration("q", {0: "_"}, 0, "_")
    assert detect(step_fn(m), start, 100) == Periodic(0, 2)


def test_parse_word():
    m = parse_tm(WRITER)
    assert parse_word("", m) == []
    assert parse_word("0 1 0", m) == ["0", "1", "0"]
    assert parse_word("010", m) == ["0", "1", "0"]
    with pytest.raises(TmError):
        parse_word("02", m)


# (rejection, a fixture with one edit, the error, a fragment of its message)
REJECTED_TEXTS = [
    ("missing-rule", TWO_STATE_LOOPER.replace("b, _ -> a, _, L\n", ""), TmValidationError,
     "transition missing for state 'b' reading '_'"),
    ("duplicate-rule", TWO_STATE_LOOPER + "a, 0 -> a, 0, L\n", TmParseError,
     "duplicate rule for ('a', '0')"),
    ("unknown-target-state", TWO_STATE_LOOPER.replace("a, 0 -> b, 0, R", "a, 0 -> zz, 0, R"),
     TmValidationError, "unknown state 'zz'"),
    ("unknown-written-symbol", TWO_STATE_LOOPER.replace("a, 0 -> b, 0, R", "a, 0 -> b, 9, R"),
     TmValidationError, "unknown symbol '9'"),
    ("unknown-start", TWO_STATE_LOOPER.replace("start: a", "start: zz"), TmValidationError,
     "start state 'zz' is not a declared state"),
    ("equal-halting-states", ACCEPT_ON_START.replace("reject: qr", "reject: qa"),
     TmValidationError, "accept and reject states must differ"),
    ("blank-in-input", ACCEPT_ON_START.replace("input:", "input: _"), TmValidationError,
     "the blank symbol may not be in the input alphabet"),
    ("missing-header", "states: q qa qr\n", TmParseError, "missing 'input:' header"),
    ("not-a-rule", ACCEPT_ON_START + "not a rule line\n", TmParseError,
     "unrecognized line 9: 'not a rule line'"),
    ("rule-without-move", ACCEPT_ON_START + "q, 0 -> q, 0\n", TmParseError,
     "malformed rule (line 9)"),
    ("duplicate-header", ACCEPT_ON_START + "blank: x\n", TmParseError,
     "duplicate header 'blank:' (line 9)"),
]


@pytest.mark.parametrize("text, error, fragment",
                         [pytest.param(*row[1:], id=row[0]) for row in REJECTED_TEXTS])
def test_parser_rejects_the_text_and_says_why(text, error, fragment):
    with pytest.raises(error) as exc:
        parse_tm(text)
    assert fragment in str(exc.value)


def test_machine_built_directly_must_be_total():
    # built directly, not through parse_tm
    with pytest.raises(TmValidationError) as exc:
        TMDesc(states=frozenset({"q", "qa", "qr"}), input_alphabet=frozenset(),
               tape_alphabet=frozenset({"_"}), blank="_", transitions={},
               start="q", accept="qa", reject="qr")
    assert "'q'" in str(exc.value) and "'_'" in str(exc.value)


def test_halting_state_rules_are_ignored():
    text = TWO_STATE_LOOPER + "qa, 0 -> a, 0, L\n"
    m = parse_tm(text)
    assert ("qa", "0") not in m.transitions
    assert tm_step(m, Configuration("qa", {}, 0, "_")) is None


def test_transition_table_is_read_only():
    m = parse_tm(TWO_STATE_LOOPER)
    before = list(islice(trajectory(m, ["0"]), 6))
    with pytest.raises(TypeError):
        m.transitions[("a", "_")] = ("qa", "_", "R")
    with pytest.raises(AttributeError):
        m.transitions.pop(("a", "_"))
    assert list(islice(trajectory(m, ["0"]), 6)) == before


def test_machine_keeps_its_own_copy_of_the_table():
    rules = dict(parse_tm(TWO_STATE_LOOPER).transitions)
    m = TMDesc(states=frozenset({"a", "b", "qa", "qr"}), input_alphabet=frozenset({"0"}),
               tape_alphabet=frozenset({"0", "_"}), blank="_", transitions=rules,
               start="a", accept="qa", reject="qr")
    rules.pop(("a", "_"))
    assert m == parse_tm(TWO_STATE_LOOPER)
    assert m.transitions[("a", "_")] == ("b", "_", "R")


def test_machine_built_directly_drops_halting_rules_like_the_parser():
    parsed = parse_tm(TWO_STATE_LOOPER)
    halting_rules = {("qa", "0"): ("a", "0", "L"), ("qr", "_"): ("zz", "9", "X")}
    built = TMDesc(states=parsed.states, input_alphabet=parsed.input_alphabet,
                   tape_alphabet=parsed.tape_alphabet, blank=parsed.blank,
                   transitions={**parsed.transitions, **halting_rules},
                   start=parsed.start, accept=parsed.accept, reject=parsed.reject)
    assert built == parsed
    assert ("qa", "0") not in built.transitions


def test_equal_machines_hash_equal():
    a = parse_tm(TWO_STATE_LOOPER)
    b = parse_tm(TWO_STATE_LOOPER + "qa, 0 -> a, 0, L\n")
    assert a == b and hash(a) == hash(b)
    assert a != parse_tm(TWO_STATE_LOOPER.replace("b, _ -> a, _, L", "b, _ -> qa, _, L"))


@st.composite
def machines(draw):
    """A random machine over {0, 1, _} with 2-4 working states, plus an input word."""
    states = [f"q{i}" for i in range(draw(st.integers(2, 4)))]
    # working states are drawn four times as often as each halting state
    targets = st.sampled_from(states * 4 + ["qa", "qr"])
    symbols, moves = st.sampled_from("01_"), st.sampled_from("LR")
    rules = [
        f"{q}, {s} -> {draw(targets)}, {draw(symbols)}, {draw(moves)}"
        for q in states
        for s in "01_"
    ]
    text = "\n".join(
        [f"states: {' '.join(states)} qa qr", "input: 0 1", "tape: 0 1 _", "blank: _",
         "start: q0", "accept: qa", "reject: qr"] + rules
    )
    word = draw(st.lists(st.sampled_from("01"), max_size=6))
    return parse_tm(text), word


@st.composite
def described_machines(draw):
    """A random valid machine as its parts, and a description of it written with all
    the slack the format allows: headers in any order among the rules, ``#`` comments,
    blank lines, extra whitespace, and rules at halting states, which the parser drops."""
    states = draw(st.lists(st.sampled_from(["q0", "q1", "scan", "back", "yes", "no"]),
                           min_size=2, max_size=4, unique=True))
    accept, reject = draw(st.permutations(states))[:2]
    start = draw(st.sampled_from(states))
    tape = draw(st.lists(st.sampled_from(["0", "1", "a", "_", "B"]), min_size=1, unique=True))
    blank = draw(st.sampled_from(tape))
    inputs = [s for s in tape if s != blank and draw(st.booleans())]
    targets = st.tuples(st.sampled_from(states), st.sampled_from(tape), st.sampled_from("LR"))
    working = {(q, s): draw(targets) for q in states if q not in (accept, reject) for s in tape}
    halting = {(q, s): draw(targets) for q in (accept, reject) for s in tape if draw(st.booleans())}
    ws = st.sampled_from(["", " ", "\t", "  "])
    sep = st.sampled_from([" ", "\t", "  "])
    headers = {"states": states, "input": inputs, "tape": tape, "blank": [blank],
               "start": [start], "accept": [accept], "reject": [reject]}
    lines = [f"{draw(ws)}{key}{draw(ws)}:" + "".join(draw(sep) + t for t in tokens) + draw(ws)
             for key, tokens in headers.items()]
    for (q, s), (q2, s2, move) in {**working, **halting}.items():
        parts = (q, ",", s, "->", q2, ",", s2, ",", move)
        lines.append("".join(draw(ws) + part for part in parts) + draw(ws))
    lines = [line + draw(st.sampled_from(["", "  # note", "#x: y -> z, 0, L"]))
             for line in draw(st.permutations(lines))]
    for _ in range(draw(st.integers(0, 3))):
        filler = draw(st.sampled_from(["", "# states: x", "  "]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    desc = dict(states=frozenset(states), input_alphabet=frozenset(inputs),
                tape_alphabet=frozenset(tape), blank=blank, transitions=working,
                start=start, accept=accept, reject=reject)
    return "\n".join(lines), desc


@given(described_machines())
def test_description_round_trips_through_the_parser(described):
    text, desc = described
    m = parse_tm(text)
    assert {name: getattr(m, name) for name in desc} == desc


@given(machines())
def test_zipper_step_matches_dict_tape_reference(machine):
    m, word = machine
    c = initial_config(m, word)
    state, tape, head = m.start, dict(enumerate(word)), 0
    for _ in range(200):
        nxt = reference_tm_step(m, state, tape, head)
        out = tm_step(m, c)
        if nxt is None:
            assert out is None
            return
        state, tape, head = nxt
        c = out
        assert (c.state, c.head) == (state, head)
        assert c.tape == tuple(sorted(tape.items()))
        cells = dict(c.tape)
        for cell in range(max([head, *tape]) + 2):
            assert cells.get(cell, m.blank) == tape.get(cell, m.blank)
        same = Configuration(state, tape, head, m.blank)
        assert c == same and hash(c) == hash(same)


@given(machines())
def test_detectors_match_reference_walk(machine):
    m, word = machine
    step = step_fn(m)
    for budget in (5, 37, 400):
        verdict = reference_cycle_verdict(m, word, budget)
        assert detect_hashset(step, initial_config(m, word), budget) == verdict
        brent = detect_brent(step, initial_config(m, word), budget)
        # Brent re-walks the tail, so a tight budget may run out first
        assert brent == verdict or (isinstance(verdict, Periodic) and brent == Exhausted(budget))
        if isinstance(verdict, Periodic):
            roomy = 8 * (verdict.preperiod + verdict.period) + 8
            assert detect_brent(step, initial_config(m, word), roomy) == verdict


@given(machines())
@example((parse_tm(TWO_STATE_LOOPER), ["0"]))  # cycles with period 2
@example((parse_tm(WRITER), ["1"]))  # halts after one step
def test_clocked_machine_is_eventually_periodic_exactly_when_the_machine_halts(machine):
    m, word = machine
    budget = 1500
    cm, cword = clocked(m), [f"{s}.00" for s in word]
    start, step = initial_config(cm, cword), step_fn(cm)
    own = detect_hashset(step_fn(m), initial_config(m, word), budget)
    if isinstance(own, Terminated):
        # h simulated steps cost at most h^2 + 6h steps, then LOOP walks back to cell 0
        h = own.steps
        verdict = detect_hashset(step, start, h * h + 7 * h + 10)
        assert isinstance(verdict, Periodic) and verdict.period == 1
        assert detect_brent(step, start, 8 * (verdict.preperiod + 1) + 8) == verdict
    else:
        assert detect_hashset(step, start, budget) == Exhausted(budget)
        assert detect_brent(step, start, budget) == Exhausted(budget)
    simulated = 0  # each simulated step passes through one M_q configuration
    for c in islice(trajectory(cm, cword), budget):
        simulated += c.state.startswith("M_")
        if c.state.startswith("S_"):
            assert sum(symbol[-2] == "1" for _, symbol in c.tape) >= simulated + 1


def test_hashset_walk_of_a_right_writer_stores_linear_memory():
    limit = 32 * 2**20
    m = parse_tm(RIGHT_WRITER)
    step = step_fn(m)

    def guarded_step(c):
        # stop a quadratic walk early instead of letting it fill the machine
        if tracemalloc.get_traced_memory()[0] > limit:
            raise MemoryError("traced memory passed the limit")
        return step(c)

    tracemalloc.start()
    try:
        verdict = detect_hashset(guarded_step, initial_config(m, []), 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == Exhausted(20000)
    assert peak < limit  # each stored state shares its tape with its predecessor


def test_equality_is_exact_even_when_fingerprints_collide():
    a = Configuration("q", {0: "0", 3: "1"}, 1, "_")
    b = Configuration("q", {0: "1", 3: "1"}, 1, "_")
    b._fp = a._fp
    assert a != b
    c = Configuration("q", ((3, "1"), (0, "0")), 1, "_")
    assert a == c and hash(a) == hash(c)
    assert (a == ("q", {0: "0", 3: "1"}, 1)) is False and (a == "q") is False
    assert repr(c) == "Configuration(state='q', tape=((0, '0'), (3, '1')), head=1)"


def test_configuration_is_immutable():
    c = Configuration("q", {0: "0"}, 0, "_")
    with pytest.raises(AttributeError):
        c.state = "p"
    with pytest.raises(AttributeError):
        c.tape = ()
    with pytest.raises(AttributeError):
        c.extra = 1
