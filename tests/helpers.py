"""Shared test data and independent reference implementations."""

from itertools import product

from orbitkit import orbit
from orbitkit.cycles import Exhausted, Periodic, Terminated, detect_hashset
from orbitkit.dynamics import NEIGHBOR_OFFSETS, FiniteComponentMap, SparsePoint
from orbitkit.lifepoly import _check_pattern, life_patterns, pair, unpair
from orbitkit.orbit import Stable, Unknown, enumerate_orbit, orbit_closure
from orbitkit.polymap import Polynomial, constant, parse_poly
from orbitkit.turing import TMDesc

BLINKER = frozenset({(0, 0), (1, 0), (2, 0)})
BLOCK = frozenset({(0, 0), (1, 0), (0, 1), (1, 1)})
GLIDER = frozenset({(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)})
TOAD = frozenset({(1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1)})
BEEHIVE = frozenset({(1, 0), (2, 0), (0, 1), (3, 1), (1, 2), (2, 2)})
TUB = frozenset({(1, 0), (0, 1), (2, 1), (1, 2)})

BLINKER_RLE = "x = 3, y = 1\n3o!"
BLOCK_RLE = "x = 2, y = 2\n2o$2o!"
GLIDER_RLE = "x = 3, y = 3\nbob$2bo$3o!"
TOAD_RLE = "x = 4, y = 2\nb3o$3o!"
EMPTY_RLE = "x = 0, y = 0\n!"

STAY_LEFT_LOOPER = """
# writes the blank and pushes left forever; the edge clamp pins it in place
states: q qa qr
input: 0
tape: 0 _
blank: _
start: q
accept: qa
reject: qr
q, 0 -> q, _, L
q, _ -> q, _, L
"""

RIGHT_MOVER = """
states: q qa qr
input: 0
tape: 0 _
blank: _
start: q
accept: qa
reject: qr
q, 0 -> q, 0, R
q, _ -> q, _, R
"""

ACCEPT_ON_START = """
states: qa qr
input:
tape: _
blank: _
start: qa
accept: qa
reject: qr
"""

WRITER = """
states: q p qa qr
input: 0 1
tape: 0 1 _
blank: _
start: q
accept: qa
reject: qr
q, 0 -> p, 1, L
q, 1 -> qa, 1, R
q, _ -> qa, _, R
p, 0 -> qa, 0, R
p, 1 -> qa, 1, R
p, _ -> qa, _, R
"""

RIGHT_WRITER = """
states: q0 qa qr
input: 0 1
tape: 0 1 _
blank: _
start: q0
accept: qa
reject: qr
q0, 0 -> q0, 1, R
q0, 1 -> q0, 1, R
q0, _ -> q0, 1, R
"""


def dense_step(cells):
    """Reference Life step on a dense padded array; independent of the
    sparse engine and of the polynomial construction."""
    if not cells:
        return frozenset()
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    x0, x1 = min(xs) - 1, max(xs) + 1
    y0, y1 = min(ys) - 1, max(ys) + 1
    w, h = x1 - x0 + 1, y1 - y0 + 1
    grid = [[0] * w for _ in range(h)]
    for x, y in cells:
        grid[y - y0][x - x0] = 1
    out = set()
    for gy in range(h):
        for gx in range(w):
            n = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx == 0 and dy == 0:
                        continue
                    yy, xx = gy + dy, gx + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        n += grid[yy][xx]
            if n == 3 or (n == 2 and grid[gy][gx]):
                out.add((gx + x0, gy + y0))
    return frozenset(out)


def neighbors(cell):
    """The eight cells around ``cell``, the cell itself excluded."""
    x, y = cell
    return [(x + dx, y + dy) for dx, dy in NEIGHBOR_OFFSETS]


def neighbor_count(config, cell):
    """Live cells among the eight neighbors of ``cell``."""
    return sum(n in config for n in neighbors(cell))


def reference_step(cells):
    """Life step read off the neighbor count of each live cell and of each of
    its neighbors, so its memory follows the live cells however far apart they
    are; independent of ``life.step``."""
    candidates = set(cells).union(*map(neighbors, cells))
    return frozenset(c for c in candidates
                     if neighbor_count(cells, c) == 3 or (c in cells and neighbor_count(cells, c) == 2))


def reference_next_state(bits):
    """Life's next state of the center ``bits[0]`` of a 3x3 neighborhood, written
    out directly from the update rules: birth on 3 live neighbors, survival on
    2 or 3, death otherwise."""
    live = sum(bits[1:])
    if bits[0] == 1:
        return 1 if live in (2, 3) else 0
    return 1 if live == 3 else 0


def pattern_factors(bits):
    """The nine affine factors of a pattern's indicator product."""
    bits = _check_pattern(bits)
    return tuple(parse_poly(f"x{i}" if b else f"1 - x{i}") for i, b in enumerate(bits))


def pattern_term(bits):
    """Indicator polynomial: 1 exactly on ``bits`` among the 512 0/1 inputs, the
    product of :func:`pattern_factors` multiplied out."""
    term = constant(1)
    for factor in pattern_factors(bits):
        term = term * factor
    return term


def total_degree(poly):
    """Largest total degree among the terms of ``poly`` (0 for the zero polynomial)."""
    return max((sum(e for _, e in mono) for mono in poly.terms), default=0)


def rho_step(preperiod, period):
    """Step function of the canonical rho sequence on 0, 1, 2, ...:
    a tail of `preperiod` states feeding a cycle of `period` states."""
    total = preperiod + period

    def step(n):
        n += 1
        return preperiod if n == total else n

    return step


def terminating_step(length):
    """Step function of a finite chain 0 -> 1 -> ... -> length, then stop."""

    def step(n):
        return None if n >= length else n + 1

    return step


def reference_tm_step(m, state, tape, head):
    """Reference Turing step on a plain dict tape holding only non-blank
    cells; returns the next (state, tape, head), or None at a halting state.
    Independent of the zipper tape in ``orbitkit.turing``."""
    if state in (m.accept, m.reject):
        return None
    state, write, move = m.transitions[(state, tape.get(head, m.blank))]
    tape = dict(tape)
    if write == m.blank:
        tape.pop(head, None)
    else:
        tape[head] = write
    return state, tape, head + 1 if move == "R" else max(head - 1, 0)


def clocked(m):
    """The paper's first reduction: a machine that never halts, and whose
    trajectory is eventually periodic exactly when ``m`` halts.  A cell holds
    ``s.ch``: m's symbol s, a clock bit c and a head flag h; write m's input
    word as ``s.00`` symbols.  ``I`` flags cell 0 as clock and head.  ``S_q``
    walks left to the head flag and applies m's rule for q there, clearing the
    flag.  ``M_q`` flags the cell it arrives at and sets its clock bit if it has
    none; otherwise ``R_q`` walks right and sets the first clock bit that is 0.
    So the clock gains a cell with every simulated step, and no configuration
    repeats while m runs.  A rule into a halting state of m enters ``LOOP``,
    which walks left to cell 0 and stays there, a fixed point."""
    working = m.states - {m.accept, m.reject}

    def then(q, phase):
        return f"{phase}_{q}" if q in working else "LOOP"

    rules = {}
    for s, c, h in product(m.tape_alphabet, "01", "01"):
        cell = f"{s}.{c}{h}"
        rules["I", cell] = (then(m.start, "S"), f"{s}.11", "L")
        rules["LOOP", cell] = ("LOOP", cell, "L")
        for q in working:
            q2, s2, move = m.transitions[q, s]
            rules[f"S_{q}", cell] = ((then(q2, "M"), f"{s2}.{c}0", move) if h == "1"
                                     else (f"S_{q}", cell, "L"))
            rules[f"M_{q}", cell] = (f"{'R' if c == '1' else 'S'}_{q}", f"{s}.11", "R")
            rules[f"R_{q}", cell] = ((f"R_{q}", cell, "R") if c == "1"
                                     else (f"S_{q}", f"{s}.1{h}", "L"))
    # two halting states that no rule enters
    return TMDesc(states=frozenset({q for q, _ in rules} | {"ACCEPT", "REJECT"}),
                  input_alphabet=frozenset(f"{s}.00" for s in m.input_alphabet),
                  tape_alphabet=frozenset(cell for _, cell in rules), blank=f"{m.blank}.00",
                  transitions=rules, start="I", accept="ACCEPT", reject="REJECT")


def reference_cycle_verdict(m, word, budget):
    """Hash-set walk over (state, head, frozenset(tape)) with the budget
    accounting of ``cycles.detect_hashset``."""
    state, tape, head = m.start, dict(enumerate(word)), 0
    seen = {(state, head, frozenset(tape.items())): 0}
    for used in range(1, budget + 1):
        nxt = reference_tm_step(m, state, tape, head)
        if nxt is None:
            return Terminated(used - 1)
        state, tape, head = nxt
        key = (state, head, frozenset(tape.items()))
        if key in seen:
            return Periodic(seen[key], used - seen[key])
        seen[key] = used
    return Exhausted(budget)


def reference_grid_apply(rule, point):
    """A local rule lifted through Cantor pairing, one ``rule.evaluate``
    per quadrant cell next to the support; independent of the mask table
    in ``orbitkit.dynamics``."""
    cells = {unpair(i): v for i, v in point.items()}
    offsets = ((0, 0),) + NEIGHBOR_OFFSETS
    out = {}
    for a, b in cells:
        for ca, cb in ((a + da, b + db) for da, db in offsets):
            if ca >= 0 and cb >= 0:
                values = tuple(cells.get((ca + da, cb + db), 0) for da, db in offsets)
                out[pair(ca, cb)] = rule.evaluate(dict(enumerate(values)))
    return SparsePoint(out)


def reference_random_soup(rng, size, density, origin=(0, 0)):
    """Reference ``life.random_soup``: one draw per cell, row by row, in a generator."""
    ox, oy = origin
    return frozenset(
        (ox + x, oy + y) for y in range(size) for x in range(size) if rng.random() < density
    )


def count_calls(monkeypatch, cls, *names):
    """Wrap the named methods of ``cls`` so each call appends its name to the returned list."""
    calls = []
    for name in names:
        def counted(*args, _original=getattr(cls, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return calls


def random_component_map(rng):
    """A map on coordinates 0 and 1: each gets, with probability 0.85, a sum of
    one to three terms in x0 and x1 of degree at most 1 or 2, with coefficients
    from -2 to 2."""
    comps = {}
    for coord in range(2):
        if rng.random() < 0.85:
            terms = []
            max_deg = 1 if rng.random() < 0.5 else 2
            for _ in range(rng.randint(1, 3)):
                mono = tuple((rng.randrange(2), 1) for _ in range(rng.randint(0, max_deg)))
                terms.append((mono, rng.randint(-2, 2)))
            comps[coord] = Polynomial(terms)
    return FiniteComponentMap(comps)


def reference_component_apply(m, point):
    """Each component evaluated on the point itself, the image built through the
    checking ``SparsePoint`` constructor, which also drops zero values."""
    values = dict(point.items())
    for coord, poly in m.components.items():
        values[coord] = poly.evaluate(point)
    return SparsePoint(values)


def reference_evaluate(poly, assignment):
    """The flat evaluation loop: every term's factors read in turn, a term
    dropped at its first zero variable; independent of the monomial tree
    behind ``Polynomial.evaluate``."""
    get = assignment.get
    total = 0
    for mono, coeff in poly.terms.items():
        v = coeff
        for var, exp in mono:
            base = get(var, 0)
            if not base:
                v = 0
                break
            v *= base**exp
        total += v
    return total


def reference_pattern_sum(values):
    """The 140 Life pattern products of ``(x_i)`` and ``(1 - x_i)`` factors,
    each multiplied out literally and summed."""
    total = 0
    for bits in life_patterns():
        prod = 1
        for bit, v in zip(bits, values):
            prod *= v if bit else 1 - v
        total += prod
    return total


def reference_closure(generators, x, max_points, max_depth):
    """Breadth-first closure that stores the points themselves, with the limit
    accounting of ``orbit.orbit_closure``; independent of the keys behind
    it.  Returns the verdict, the set of points visited, and the number of
    levels expanded."""
    visited = {x}
    frontier = [x]
    depth = 0
    while frontier:
        if depth == max_depth:
            return Unknown(len(visited), "max_depth"), visited, depth
        depth += 1
        next_frontier = []
        for point in frontier:
            for g in generators:
                y = g.apply(point)
                if y not in visited:
                    if len(visited) == max_points:
                        return Unknown(len(visited), "max_points"), visited, depth
                    visited.add(y)
                    next_frontier.append(y)
        frontier = next_frontier
    return Stable(len(visited)), visited, depth


def check_against_reference(gens, x, max_points, max_depth):
    """``orbit_closure``, the walk's own keys decoded, and ``enumerate_orbit``
    against :func:`reference_closure`.  Returns the reference verdict."""
    expected, points, _ = reference_closure(gens, x, max_points, max_depth)
    assert orbit_closure(gens, x, max_points, max_depth) == expected
    verdict, keys, point = orbit._explore(gens, x, max_points, max_depth)
    assert verdict == expected
    assert {point(key) for key in keys} == points
    orbit_set = enumerate_orbit(gens, x, max_points, max_depth)
    assert orbit_set == (frozenset(points) if isinstance(expected, Stable) else None)
    return expected


def reference_singleton(f, x, budget):
    """``orbit.is_stable_singleton`` as cycle detection on the points themselves,
    ``f.apply`` as the step; independent of the keys behind it."""
    verdict = detect_hashset(f.apply, x, budget)
    if isinstance(verdict, Periodic):
        return Stable(verdict.preperiod + verdict.period, (verdict.preperiod, verdict.period))
    assert isinstance(verdict, Exhausted)
    return Unknown(budget + 1, "budget")
