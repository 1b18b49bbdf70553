"""Command-line surface wiring the toolkit into reproducible experiments.

Subcommands:

* ``life step|run``   evolve an RLE pattern with the set-based engine
* ``poly-rule``       print the local update-rule polynomial and its checks
* ``tm run|periodicity``  simulate a Turing machine / classify its trajectory
* ``orbit check``     stability of a point under one or more polynomial maps
* ``verify``          differential test: polynomial map vs. grid engine

Each command imports only the modules it uses: a ``tm`` run loads
``turing`` and ``cycles`` but not ``polymap``, ``dynamics``, ``life``,
``lifepoly`` or ``orbit``.

Reports are ``key=value`` lines on stdout, one logical result per line.
Stdout is byte-deterministic for fixed inputs and seed; the wall-time
line goes to stderr.  Every file argument accepts ``-`` for stdin, at
most once per command; input is UTF-8 and ``sha256=`` hashes its bytes.

Exit codes: 0 = a verdict was produced (Unknown included); 1 = input
error, any ``ValueError`` or ``OSError`` (every error class of the
toolkit subclasses ``ValueError``), reported as ``error: ...`` on
stderr; 2 = internal invariant violation, any ``RuntimeError``, reported
as ``internal check failed: ...`` on stderr.  Each command reads and
parses all of its input, and writes its ``--out`` file, before it prints
its first line, so an input or output error prints nothing on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import orbitkit  # the package, already loaded: annotations name classes through it

# the toolkit's modules are imported inside the commands that use them and
# called through the module (turing.parse_tm) or through parse_poly below, so
# a wrapper set on a module attribute sees every call
__all__ = ["main", "parse_component_map"]


class CliInputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1), not internal failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _integer(text: str) -> int:
    """argparse type: an optional ``-`` and ASCII digits, nothing else."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _at_least(minimum: int):
    """argparse type: an integer of at least ``minimum``, for budgets and counts."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {value}")
        return value

    return parse


def _soup_side(text: str) -> int:
    """argparse type: a ``verify --size`` whose soup box holds at most
    ``life.MAX_RLE_CELLS`` cells, the cap a pattern file has."""
    from . import life

    side = _at_least(1)(text)
    if side * side > life.MAX_RLE_CELLS:
        raise argparse.ArgumentTypeError(
            f"a {side} x {side} soup has more than {life.MAX_RLE_CELLS} cells")
    return side


def _unit_interval(text: str) -> float:
    """argparse type: a finite number in [0, 1], for probabilities, in ASCII."""
    try:
        if not text.isascii() or "_" in text:
            raise ValueError
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 <= value <= 1:  # also false for nan
        raise argparse.ArgumentTypeError(f"must be a finite number in [0, 1], got {text}")
    return value


def _read_text(path: str) -> tuple[str, str]:
    """Read a file (or stdin for ``-``) as UTF-8 whatever the locale; return the text
    and a report line with the sha256 of the raw bytes, line endings included."""
    if path == "-":
        if sys.stdin is None:  # the process was started with stdin closed
            raise CliInputError("cannot read '-': stdin is closed")
        data = sys.stdin.buffer.read()
        name = "<stdin>"
    else:
        data = Path(path).read_bytes()
        name = path
    digest = hashlib.sha256(data).hexdigest()
    return data.decode("utf-8"), f"input={name} sha256={digest}"


def parse_poly(text: str) -> orbitkit.polymap.Polynomial:
    """:func:`orbitkit.polymap.parse_poly`, imported when first called, so a
    command that reads no polynomial never loads ``polymap``."""
    from .polymap import parse_poly

    return parse_poly(text)


def parse_component_map(text: str) -> orbitkit.dynamics.FiniteComponentMap:
    """Parse a component-map file: ``coordinate: polynomial`` lines.

    Polynomials use the standard text format; ``#`` starts a comment.
    """
    from .dynamics import FiniteComponentMap

    components = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        coord_text, sep, poly_text = line.partition(":")
        if not sep:
            raise CliInputError(f"component line {lineno} needs 'coordinate: polynomial'")
        coord_text = coord_text.strip()
        if not (coord_text.isascii() and coord_text.isdigit()):
            raise CliInputError(f"coordinate {coord_text!r} on line {lineno} is not a natural number")
        coord = int(coord_text)
        if coord in components:
            raise CliInputError(f"duplicate coordinate {coord} on line {lineno}")
        components[coord] = parse_poly(poly_text)
    return FiniteComponentMap(components)


def cmd_life(args) -> int:
    from . import life

    def summary(config) -> str:
        box = life.bounding_box(config)
        bbox = "empty" if box is None else ",".join(map(str, box))
        return f"population={len(config)} bbox={bbox}"

    text, digest = _read_text(args.pattern)
    config = life.parse_rle(text)
    # buffered, so an unwritable --out fails before the first line is printed
    lines = [f"command={args.command}", digest]
    current = config
    for k in range(1, args.steps + 1):
        current = life.step(current)
        if args.trace:
            lines.append(f"step={k} {summary(current)}")
    lines.append(f"steps={args.steps} {summary(current)}")
    if args.grid:
        box = life.bounding_box(current)
        lines.append(f"origin={box[0]},{box[1]}" if box else "origin=none")
        lines.append(life.render(current))
    rle = life.emit_rle(current)
    if args.out != "-":
        Path(args.out).write_text(rle + "\n")
        lines.append(f"out={args.out}")
    else:
        lines.append(rle)
    for line in lines:
        print(line)
    return 0


def cmd_poly_rule(args) -> int:
    from . import lifepoly

    rule = lifepoly.build_local_rule()
    patterns = lifepoly.life_patterns()
    print("command=poly-rule")
    if args.expanded:
        print(f"terms={len(rule.terms)}")
        print(f"rule={rule.to_text()}")
    else:
        print(f"summands={len(patterns)}")
        print(f"rule={lifepoly.pattern_sum_text()}")
    print("truth_table=ok")  # build_local_rule raises unless all 512 inputs agree
    probe = (0, 1, 1, 1, 0, 0, 0, 0, 0)
    print(f"probe={','.join(map(str, probe))} value={rule.evaluate(dict(enumerate(probe)))}")
    return 0


def _tape_str(config, m) -> str:
    tape = config.tape
    row = [m.blank] * (max(config.head, tape[-1][0] if tape else 0) + 1)
    for cell, symbol in tape:
        row[cell] = symbol
    return ",".join(row)


def cmd_tm(args) -> int:
    from . import cycles, turing

    text, digest = _read_text(args.machine)
    m = turing.parse_tm(text)
    word = turing.parse_word(args.input, m)
    print(f"command={args.command}")
    print(digest)
    if args.subcommand == "run":
        for k, c in enumerate(turing.trajectory(m, word)):
            if k > args.budget:
                print(f"result=truncated steps={args.budget}")
                break
            print(f"step={k} state={c.state} head={c.head} tape={_tape_str(c, m)}")
        else:  # the trajectory ended, so c is the halting configuration
            verdict = "accept" if c.state == m.accept else "reject"
            print(f"result=halted verdict={verdict} steps={k}")
        return 0
    detect = cycles.detect_brent if args.algorithm == "brent" else cycles.detect_hashset
    start = turing.initial_config(m, word)
    verdict = detect(turing.step_fn(m), start, args.budget)
    if args.halt_as_fixed_point and isinstance(verdict, cycles.Terminated):
        verdict = cycles.Periodic(verdict.steps, 1)
    flag = "true" if args.halt_as_fixed_point else "false"
    print(f"algorithm={args.algorithm} budget={args.budget} halt_as_fixed_point={flag}")
    print(cycles.report_line(verdict))
    return 0


def cmd_orbit(args) -> int:
    from . import dynamics, orbit

    if args.point is not None and args.translate:
        raise CliInputError("--translate only applies to --encode")
    source = args.encode if args.point is None else args.point
    if [source, *args.map].count("-") > 1:
        raise CliInputError("'-' (stdin) may be given only once")
    text, digest = _read_text(source)
    head_lines = [f"command={args.command}", digest]
    if args.point is not None:
        point = dynamics.parse_point(text)
        extra_lines = []
    else:
        from . import life, lifepoly

        config = life.parse_rle(text)
        if args.translate:
            config = life.translate(config, args.translate[0], args.translate[1])
        safe = "true" if lifepoly.quadrant_safe(config) else "false"
        extra_lines = [f"quadrant_safe={safe}"]
        point = lifepoly.encode(config)
    maps = []
    for spec in args.map:
        if spec == "gol":
            from . import lifepoly

            maps.append(lifepoly.build_gol_map())
        else:
            text, digest = _read_text(spec)
            head_lines.append(digest)
            maps.append(parse_component_map(text))
    for line in head_lines + extra_lines:
        print(line)
    print(f"generators={len(maps)} support={len(point)}")
    if len(maps) == 1 and not args.closure:
        print(f"budget={args.max_steps}")
        verdict = orbit.is_stable_singleton(maps[0], point, args.max_steps)
    else:
        print(f"max_points={args.max_points} max_depth={args.max_depth}")
        verdict = orbit.orbit_closure(maps, point, args.max_points, args.max_depth)
    print(orbit.report_line(verdict))
    return 0


def _corrupted_rule():
    from . import lifepoly

    # negative control: forget every survival-on-2 pattern
    return lifepoly.expand_patterns(
        bits for bits in lifepoly.life_patterns() if not (bits[0] == 1 and sum(bits[1:]) == 2)
    )


def cmd_verify(args) -> int:
    import random

    from . import life, lifepoly
    from .dynamics import GridRuleMap

    print(f"command={args.command}")
    print(f"trials={args.trials} size={args.size} density={args.density} seed={args.seed}")
    gol = (GridRuleMap(_corrupted_rule(), lifepoly.cantor_pairing()) if args.corrupt
           else lifepoly.build_gol_map())
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.trials):
        soup = life.random_soup(rng, args.size, args.density, origin=(1, 1))
        # encode is injective, so comparing points compares configurations
        if gol.apply(lifepoly.encode(soup)) != lifepoly.encode(life.step(soup)):
            failures += 1
    print(f"failures={failures} passes={args.trials - failures}")
    return 0 if failures == 0 else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="orbitkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    life_p = sub.add_parser("life", help="evolve RLE patterns with the set-based engine")
    life_sub = life_p.add_subparsers(dest="subcommand", required=True)
    for name in ("step", "run"):
        sp = life_sub.add_parser(name, help=f"{name} a pattern")
        sp.add_argument("pattern", help="RLE pattern file ('-' for stdin)")
        if name == "run":
            sp.add_argument("--steps", type=_at_least(0), default=1, help="generations to advance")
        sp.add_argument("--out", default="-", help="write the evolved RLE here (default stdout)")
        sp.add_argument("--trace", action="store_true", help="print population/bbox per step")
        sp.add_argument("--grid", action="store_true", help="print a #/. grid with its origin")
        sp.set_defaults(func=cmd_life, command=f"life {name}", steps=1)

    pr = sub.add_parser("poly-rule", help="print the local update-rule polynomial")
    pr.add_argument("--expanded", action="store_true", help="canonical expanded form")
    pr.set_defaults(func=cmd_poly_rule, command="poly-rule")

    tm_p = sub.add_parser("tm", help="Turing machine simulation and periodicity")
    tm_sub = tm_p.add_subparsers(dest="subcommand", required=True)
    for name in ("run", "periodicity"):
        sp = tm_sub.add_parser(name)
        sp.add_argument("machine", help="machine description file ('-' for stdin)")
        sp.add_argument("--input", default="", help="input word (symbols or characters)")
        sp.add_argument("--budget", type=_at_least(0), default=10000, help="step budget")
        if name == "periodicity":
            sp.add_argument("--algorithm", choices=("hashset", "brent"), default="hashset")
            sp.add_argument("--halt-as-fixed-point", action="store_true",
                            help="report a halt as a period-1 cycle")
        sp.set_defaults(func=cmd_tm, command=f"tm {name}")

    ob = sub.add_parser("orbit", help="orbit finiteness of a point under polynomial maps")
    ob_sub = ob.add_subparsers(dest="subcommand", required=True)
    oc = ob_sub.add_parser("check")
    src = oc.add_mutually_exclusive_group(required=True)
    src.add_argument("--point", help="sparse point file in index:value format")
    src.add_argument("--encode", help="RLE pattern file to encode as a point")
    oc.add_argument("--translate", nargs=2, type=_integer, metavar=("DX", "DY"),
                    help="translate the pattern before encoding")
    oc.add_argument("--map", action="append", required=True,
                    help="'gol' or a component-map file; repeat for several generators")
    oc.add_argument("--closure", action="store_true",
                    help="force breadth-first closure even for a single map")
    oc.add_argument("--max-steps", type=_at_least(1), default=10000, help="singleton cycle budget")
    oc.add_argument("--max-points", type=_at_least(1), default=100000, help="closure point budget")
    oc.add_argument("--max-depth", type=_at_least(1), default=10000, help="closure depth budget")
    oc.set_defaults(func=cmd_orbit, command="orbit check")

    vf = sub.add_parser("verify", help="random differential test of map vs. engine")
    vf.add_argument("--trials", type=_at_least(0), default=1000)
    vf.add_argument("--size", type=_soup_side, default=16)
    vf.add_argument("--density", type=_unit_interval, default=0.3)
    vf.add_argument("--seed", type=_integer, default=42)
    vf.add_argument("--corrupt", action="store_true",
                    help="negative control: run with a deliberately broken rule")
    vf.set_defaults(func=cmd_verify, command="verify")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except (OSError, ValueError) as exc:  # bad input, undecodable bytes included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # an internal invariant check failed
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = (time.perf_counter() - started) * 1000
        print(f"walltime_ms={elapsed:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
