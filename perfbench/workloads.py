"""Seeded inputs and their expected verdicts for the benchmark workloads.

``build(workload, seed, workdir)`` writes every input the CLI will read
(RLE patterns, ``.tm`` machines, point and map files) into ``workdir`` and
returns the operations of one pass.  Each operation carries the report
lines its stdout must contain.  Those lines come from oracles computed
here, independently of the CLI run that is timed:

* ``soup-verify``: the Life map is exact, so a correct ``verify`` run
  reports zero failures on every trial.
* ``orbit-soups``: ``cycles.detect_hashset`` over the set-based engine
  (``life.step``), never the polynomial map the CLI walks.
* ``tm-periodicity``: a reference simulator written here, with an
  incremental fingerprint so that long runs stay cheap; halts are also
  checked against ``turing.trajectory``.
* ``poly-closure``: the closed-form size 2^n * n! of a free
  hyperoctahedral orbit, and ``limit=max_points`` for a unipotent map.

Workloads draw random inputs, then keep only those in fixed classes and
cost bands, so that every seed yields the same mix of cheap and costly
operations and run-to-run spread comes from the program, not the draw.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from orbitkit import cycles, life, turing

WORKLOADS = ("soup-verify", "orbit-soups", "tm-periodicity", "poly-closure")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``python -m orbitkit *argv`` run in the work dir."""

    name: str
    argv: tuple
    expected: tuple  # report lines stdout must contain
    items: int  # work items this operation adds to items_per_s


def build(workload: str, seed: int, workdir: Path) -> list:
    rng = random.Random(f"{workload}:{seed}")
    builders = {
        "soup-verify": _soup_verify,
        "orbit-soups": _orbit_soups,
        "tm-periodicity": _tm_periodicity,
        "poly-closure": _poly_closure,
    }
    return builders[workload](rng, Path(workdir))


def check(op: Op, code: int, stdout: bytes) -> str:
    """Empty string when the run is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    lines = set(stdout.decode(errors="replace").splitlines())
    for line in op.expected:
        if line not in lines:
            return f"missing {line!r}"
    return ""


def _write(workdir: Path, name: str, text: str) -> str:
    """Write an input file; returns the CLI's ``input=`` report line for it."""
    data = text.encode()
    (workdir / name).write_bytes(data)
    return f"input={name} sha256={hashlib.sha256(data).hexdigest()}"


# --- soup-verify --------------------------------------------------------

VERIFY_TRIALS = 1500


def _soup_verify(rng, workdir):
    seed = rng.randrange(1 << 31)
    argv = ("verify", "--trials", str(VERIFY_TRIALS), "--size", "16",
            "--density", "0.3", "--seed", str(seed))
    expected = (f"trials={VERIFY_TRIALS} size=16 density=0.3 seed={seed}",
                f"failures=0 passes={VERIFY_TRIALS}")
    return [Op("verify", argv, expected, VERIFY_TRIALS)]


# --- orbit-soups --------------------------------------------------------

ORBIT_BUDGET = 400
# Live cells move at most one cell per generation, and gliders one per four;
# soups whose walk comes within one cell of the quadrant edge are rejected.
ORBIT_OFFSET = ORBIT_BUDGET // 4 + 16
SETTLING_SOUPS = 7  # periodic within SETTLING_MAX generations
SETTLING_MAX = 30
RUNNING_SOUPS = 4  # no repeat within the budget
RUNNING_POPULATION = (13000, 16000)  # live cells summed over the walk


class _Rejected(Exception):
    pass


def soup_walk(config, budget):
    """Engine oracle: the hash-set walk of ``life.step`` from ``config``.

    Returns (verdict, live cells summed over the walk).  Raises
    ``_Rejected`` once the summed population heads past the running band or
    a live cell comes within one cell of the quadrant edge, where the
    polynomial map would stop matching the engine.
    """
    total = generation = 0

    def step(c):
        nonlocal total, generation
        c = life.step(c)
        total += len(c)
        generation += 1
        # the band caps the total; reject early once it projects well past it
        hi = RUNNING_POPULATION[1]
        if total > hi or total * ORBIT_BUDGET > 1.5 * hi * generation:
            raise _Rejected
        if generation >= ORBIT_OFFSET - 1 and any(x < 1 or y < 1 for x, y in c):
            raise _Rejected
        return c

    return cycles.detect_hashset(step, config, budget), total


def _orbit_soups(rng, workdir):
    settling, running = [], []
    while len(settling) < SETTLING_SOUPS or len(running) < RUNNING_SOUPS:
        soup = life.random_soup(rng, 6, 0.45)
        if not soup:
            continue
        rle = life.emit_rle(soup)
        config = life.translate(life.parse_rle(rle), ORBIT_OFFSET, ORBIT_OFFSET)
        try:
            verdict, _ = soup_walk(config, SETTLING_MAX)
            if isinstance(verdict, cycles.Periodic):
                if len(settling) < SETTLING_SOUPS:
                    line = (f"verdict=stable orbit_size={verdict.preperiod + verdict.period} "
                            f"preperiod={verdict.preperiod} period={verdict.period}")
                    settling.append((rle, config, line))
                continue
            if len(running) == RUNNING_SOUPS:
                continue
            verdict, total = soup_walk(config, ORBIT_BUDGET)
        except _Rejected:
            continue
        if isinstance(verdict, cycles.Exhausted) and total >= RUNNING_POPULATION[0]:
            line = f"verdict=unknown points={ORBIT_BUDGET + 1} limit=budget"
            running.append((rle, config, line))
    ops = []
    for i, (rle, config, verdict_line) in enumerate(settling + running):
        name = f"soup{i}.rle"
        digest = _write(workdir, name, rle + "\n")
        argv = ("orbit", "check", "--encode", name, "--map", "gol",
                "--translate", str(ORBIT_OFFSET), str(ORBIT_OFFSET),
                "--max-steps", str(ORBIT_BUDGET))
        expected = (digest, "quadrant_safe=true", f"generators=1 support={len(config)}",
                    f"budget={ORBIT_BUDGET}", verdict_line)
        ops.append(Op(name, argv, expected, 1))
    return ops


# --- tm-periodicity -----------------------------------------------------

TM_BUDGET = 2000
TM_CLASSES = (("halting", 3), ("cycling", 3), ("growing", 3))
# Growing machines kept: non-blank cells summed over the budget, as a share
# of the right-writer's B(B+1)/2 -- the band around tape growth of 1/2 a
# cell per step.
GROWING_SHARE = (0.48, 0.52)
_HALTING = ("qa", "qr")
RIGHT_WRITER = {("q0", s): ("q0", "1", "R") for s in "01_"}


def tm_text(trans: dict) -> str:
    states = sorted({q for q, _ in trans})
    lines = [f"states: {' '.join(states + list(_HALTING))}", "input: 0 1", "tape: 0 1 _",
             "blank: _", "start: q0", "accept: qa", "reject: qr"]
    lines += [f"{q}, {s} -> {q2}, {w}, {m}" for (q, s), (q2, w, m) in sorted(trans.items())]
    return "\n".join(lines) + "\n"


def _random_machine(rng):
    states = [f"q{i}" for i in range(rng.randint(2, 4))]
    trans = {}
    for q in states:
        for s in "01_":
            nxt = rng.choice(_HALTING) if rng.random() < 0.12 else rng.choice(states)
            trans[(q, s)] = (nxt, rng.choice("01_"), rng.choice("LR"))
    word = "".join(rng.choice("01") for _ in range(rng.randint(2, 6)))
    return trans, word


class _Run:
    """Reference Turing machine: dict tape, head clamped at cell 0.

    With ``keys`` (random 64-bit Zobrist keys per state, head position and
    written cell) it keeps a fingerprint of (state, head, tape) up to date
    in O(1) per step, so configurations can be compared without building
    them.
    """

    def __init__(self, trans, word, keys=None):
        self.trans = trans
        self.state, self.head = "q0", 0
        self.tape = dict(enumerate(word))
        self.keys = keys
        if keys is not None:
            self.fp = keys[self.state] ^ keys[("head", 0)]
            for cell in self.tape.items():
                self.fp ^= keys[cell]

    def step(self):
        state, write, move = self.trans[(self.state, self.tape.get(self.head, "_"))]
        head = self.head + 1 if move == "R" else max(self.head - 1, 0)
        keys = self.keys
        if keys is not None:
            old = self.tape.get(self.head)
            if old is not None:
                self.fp ^= keys[(self.head, old)]
            if write != "_":
                self.fp ^= keys[(self.head, write)]
            self.fp ^= keys[self.state] ^ keys[state] ^ keys[("head", self.head)] ^ keys[("head", head)]
        if write == "_":
            self.tape.pop(self.head, None)
        else:
            self.tape[self.head] = write
        self.state, self.head = state, head

    def config(self):
        return self.state, self.head, dict(self.tape)


def _config_at(trans, word, index):
    run = _Run(trans, word)
    for _ in range(index):
        run.step()
    return run.config()


def tm_reference(trans, word, budget):
    """The trajectory's shape within ``budget`` step invocations.

    Returns ("halting", h) when configuration h is halting, ("cycling",
    preperiod, period) at the first exact repeat, or ("open", cells) with
    non-blank cells summed over the steps taken.  Fingerprint matches are
    confirmed by re-simulating both configurations, so the answer is exact.
    """
    key_rng = random.Random(0)
    run = _Run(trans, word, defaultdict(lambda: key_rng.getrandbits(64)))
    seen = {run.fp: [0]}
    cells = 0
    for used in range(1, budget + 1):
        if run.state in _HALTING:
            return ("halting", used - 1)
        run.step()
        cells += len(run.tape)
        for first in seen.get(run.fp, ()):
            if _config_at(trans, word, first) == run.config():
                return ("cycling", first, used - first)
        seen.setdefault(run.fp, []).append(used)
    return ("open", cells)


def tm_verdict_line(shape, budget):
    """What both detectors must report for a trajectory shape."""
    if shape[0] == "halting":
        return f"verdict=terminated steps={shape[1]}"
    if shape[0] == "cycling":
        # Brent needs at most 5 * (preperiod + period) + 1 step calls;
        # with this margin both detectors finish and must agree.
        if 8 * (shape[1] + shape[2]) > budget:
            raise ValueError(f"cycle {shape[1:]} too long for budget {budget}")
        return f"verdict=periodic preperiod={shape[1]} period={shape[2]}"
    return f"verdict=exhausted budget={budget}"


def _tm_class(shape):
    if shape[0] == "halting":
        return "halting" if shape[1] >= 4 else None
    if shape[0] == "cycling":
        return "cycling" if 4 <= shape[1] + shape[2] <= TM_BUDGET // 8 else None
    lo, hi = (share * TM_BUDGET * (TM_BUDGET + 1) / 2 for share in GROWING_SHARE)
    return "growing" if lo <= shape[1] <= hi else None


def _halt_steps(trans, word):
    m = turing.parse_tm(tm_text(trans))
    return sum(1 for _ in turing.trajectory(m, list(word))) - 1


def _tm_periodicity(rng, workdir):
    budget = TM_BUDGET
    wanted = dict(TM_CLASSES)
    picked = {cls: [] for cls in wanted}
    while any(len(picked[c]) < n for c, n in wanted.items()):
        trans, word = _random_machine(rng)
        shape = tm_reference(trans, word, budget)
        cls = _tm_class(shape)
        if cls is not None and len(picked[cls]) < wanted[cls]:
            if cls == "halting" and _halt_steps(trans, word) != shape[1]:
                raise AssertionError("reference halt disagrees with turing.trajectory")
            picked[cls].append((trans, word, shape))
    machines = [("right-writer", RIGHT_WRITER, "", tm_reference(RIGHT_WRITER, "", budget))]
    for cls, _ in TM_CLASSES:
        machines += [(f"{cls}{i}", t, w, s) for i, (t, w, s) in enumerate(picked[cls])]
    ops = []
    for label, trans, word, shape in machines:
        name = f"{label}.tm"
        digest = _write(workdir, name, tm_text(trans))
        verdict_line = tm_verdict_line(shape, budget)
        for algorithm in ("hashset", "brent"):
            argv = ("tm", "periodicity", name, "--input", word, "--budget", str(budget),
                    "--algorithm", algorithm)
            header = f"algorithm={algorithm} budget={budget} halt_as_fixed_point=false"
            ops.append(Op(f"{label}-{algorithm}", argv, (digest, header, verdict_line), 1))
    return ops


# --- poly-closure -------------------------------------------------------

# (n, count): free hyperoctahedral orbits of size 2^n * n! per pass.
HYPEROCTAHEDRAL = ((6, 1), (5, 3))
VALUE_BITS = 320  # one size for every value: hashing and arithmetic scale with it
UNIPOTENT_RUNS = 8
UNIPOTENT_POINTS = 3000  # below the default max_depth, so max_points fires


def hyperoctahedral_inputs(rng, n):
    """A point with n moved coordinates of distinct VALUE_BITS-bit absolute
    values (plus two fixed ones) and three component maps -- a
    transposition, an n-cycle and a sign flip -- that generate the
    hyperoctahedral group B_n on the moved coordinates.  B_n acts freely on
    such a point, so its orbit has exactly 2^n * n! points."""
    coords = rng.sample(range(48), n + 2)
    moved = coords[:n]
    magnitudes = set()
    while len(magnitudes) < n + 2:
        magnitudes.add(rng.getrandbits(VALUE_BITS - 1) | 1 << (VALUE_BITS - 1))
    point = " ".join(f"{c}:{rng.choice((1, -1)) * v}" for c, v in zip(coords, sorted(magnitudes)))
    maps = {
        "swap": f"{moved[0]}: x{moved[1]}\n{moved[1]}: x{moved[0]}\n",
        "cycle": "".join(f"{moved[i]}: x{moved[(i + 1) % n]}\n" for i in range(n)),
        "flip": f"{moved[0]}: -1*x{moved[0]}\n",
    }
    return point + "\n", maps, 2 ** n * math.factorial(n)


def _poly_closure(rng, workdir):
    ops = []
    for n, count in HYPEROCTAHEDRAL:
        for k in range(count):
            tag = f"b{n}-{k}"
            point, maps, size = hyperoctahedral_inputs(rng, n)
            expected = [_write(workdir, f"{tag}.pt", point)]
            argv = ["orbit", "check", "--point", f"{tag}.pt"]
            for label, text in maps.items():
                expected.append(_write(workdir, f"{tag}-{label}.map", text))
                argv += ["--map", f"{tag}-{label}.map"]
            expected += [f"generators=3 support={n + 2}", "max_points=100000 max_depth=10000",
                         f"verdict=stable orbit_size={size}"]
            ops.append(Op(tag, tuple(argv), tuple(expected), size))
    for k in range(UNIPOTENT_RUNS):
        tag = f"unipotent-{k}"
        a, b = rng.sample(range(48), 2)
        x_a, x_b = (rng.getrandbits(VALUE_BITS - 1) | 1 << (VALUE_BITS - 1) for _ in "ab")
        point = f"{a}:{x_a} {b}:{-x_b}\n"
        expected = [_write(workdir, f"{tag}.pt", point),
                    _write(workdir, f"{tag}.map", f"{a}: x{a} + x{b}^2\n")]
        argv = ("orbit", "check", "--point", f"{tag}.pt", "--map", f"{tag}.map", "--closure",
                "--max-points", str(UNIPOTENT_POINTS))
        # x_a grows by x_b^2 > 0 every step, so the orbit is infinite
        expected += [f"max_points={UNIPOTENT_POINTS} max_depth=10000",
                     f"verdict=unknown points={UNIPOTENT_POINTS} limit=max_points"]
        ops.append(Op(tag, argv, tuple(expected), UNIPOTENT_POINTS))
    return ops
