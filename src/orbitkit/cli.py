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
Every report line is built in this module, the ``verdict=`` lines too:
``tm periodicity`` formats the records of ``cycles`` and ``orbit check``
those of ``orbit``.
Stdout is byte-deterministic for fixed inputs and seed; the wall-time
line goes to stderr.  ``verify`` splits its trials across the CPUs the
process may run on, one forked worker per CPU past the first, and its
stdout is the same whatever their number.  Every file argument accepts
``-`` for stdin, at most once per command; input is UTF-8 and
``sha256=`` hashes its bytes with the interpreter's built-in SHA-256, so
no command loads OpenSSL.

Exit codes: 0 = a verdict was produced (Unknown included); 1 = input
error, any ``ValueError``, ``OSError`` or ``MemoryError`` (every error
class of the toolkit subclasses ``ValueError``), reported as ``error:
...`` on stderr; 2 = internal invariant violation, any ``RuntimeError``,
reported as ``internal check failed: ...`` on stderr.  Each command
returns its exit code and its report lines, and :func:`main` prints the
lines only after the command has returned, so a command that fails, for
any reason, prints nothing on stdout.  The one exception is the trace of
``tm run``, which grows with the square of ``--budget``: it is printed
as it is made, so its memory stays flat, and a failure partway leaves
the lines before it.
"""

from __future__ import annotations

import argparse
import os
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
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        return int(text)  # also raises past the interpreter's limit on integer digits
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


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
    # hashlib loads OpenSSL's libcrypto, about 3.6 MiB of RSS and 3 ms per process, so
    # take the interpreter's built-in SHA-256, as CPython's own random takes its built-in
    # SHA-512 for this reason, with the same hashlib fallback for a build without them
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256

    digest = sha256(data).hexdigest()
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
        try:
            coord = int(coord_text)
        except ValueError:  # past the interpreter's limit on integer digits
            raise CliInputError(f"coordinate on line {lineno} has too many digits") from None
        if coord in components:
            raise CliInputError(f"duplicate coordinate {coord} on line {lineno}")
        components[coord] = parse_poly(poly_text)
    return FiniteComponentMap(components)


def cmd_life(args) -> tuple:
    from . import life

    def summary(config) -> str:
        box = life.bounding_box(config)
        bbox = "empty" if box is None else ",".join(map(str, box))
        return f"population={len(config)} bbox={bbox}"

    text, digest = _read_text(args.pattern)
    config = life.parse_rle(text)
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
    return 0, lines


def cmd_poly_rule(args) -> tuple:
    from . import lifepoly

    rule = lifepoly.build_local_rule()
    if args.expanded:
        lines = ["command=poly-rule", f"terms={len(rule.terms)}", f"rule={rule.to_text()}"]
    else:
        lines = ["command=poly-rule", f"summands={len(lifepoly.life_patterns())}",
                 f"rule={lifepoly.pattern_sum_text()}"]
    lines.append("truth_table=ok")  # build_local_rule raises unless all 512 inputs agree
    probe = (0, 1, 1, 1, 0, 0, 0, 0, 0)
    lines.append(f"probe={','.join(map(str, probe))} value={rule.evaluate(dict(enumerate(probe)))}")
    return 0, lines


def _tape_str(config, m) -> str:
    tape = config.tape
    row = [m.blank] * (max(config.head, tape[-1][0] if tape else 0) + 1)
    for cell, symbol in tape:
        row[cell] = symbol
    return ",".join(row)


def _cycle_verdict_line(verdict: orbitkit.cycles.CycleVerdict) -> str:
    if isinstance(verdict, orbitkit.cycles.Periodic):
        return f"verdict=periodic preperiod={verdict.preperiod} period={verdict.period}"
    if isinstance(verdict, orbitkit.cycles.Terminated):
        return f"verdict=terminated steps={verdict.steps}"
    return f"verdict=exhausted budget={verdict.budget}"


def cmd_tm(args) -> tuple:
    from . import cycles, turing

    text, digest = _read_text(args.machine)
    m = turing.parse_tm(text)
    word = turing.parse_word(args.input, m)
    lines = [f"command={args.command}", digest]
    if args.subcommand == "run":
        # the trace grows with the square of --budget, so it is made as it is written
        def trace():
            yield from lines
            for k, c in enumerate(turing.trajectory(m, word)):
                if k > args.budget:
                    yield f"result=truncated steps={args.budget}"
                    return
                yield f"step={k} state={c.state} head={c.head} tape={_tape_str(c, m)}"
            # the trajectory ended, so c is the halting configuration
            verdict = "accept" if c.state == m.accept else "reject"
            yield f"result=halted verdict={verdict} steps={k}"

        return 0, trace()
    detect = cycles.detect_brent if args.algorithm == "brent" else cycles.detect_hashset
    start = turing.initial_config(m, word)
    verdict = detect(turing.step_fn(m), start, args.budget)
    if args.halt_as_fixed_point and isinstance(verdict, cycles.Terminated):
        verdict = cycles.Periodic(verdict.steps, 1)
    flag = "true" if args.halt_as_fixed_point else "false"
    lines.append(f"algorithm={args.algorithm} budget={args.budget} halt_as_fixed_point={flag}")
    lines.append(_cycle_verdict_line(verdict))
    return 0, lines


def _stability_verdict_line(verdict: orbitkit.orbit.StabilityVerdict) -> str:
    if not isinstance(verdict, orbitkit.orbit.Stable):
        return f"verdict=unknown points={verdict.points_explored} limit={verdict.budget_hit}"
    if verdict.witness is None:
        return f"verdict=stable orbit_size={verdict.orbit_size}"
    preperiod, period = verdict.witness
    return f"verdict=stable orbit_size={verdict.orbit_size} preperiod={preperiod} period={period}"


def cmd_orbit(args) -> tuple:
    from . import dynamics, orbit

    if args.point is not None and args.translate:
        raise CliInputError("--translate only applies to --encode")
    source = args.encode if args.point is None else args.point
    if [source, *args.map].count("-") > 1:
        raise CliInputError("'-' (stdin) may be given only once")
    text, digest = _read_text(source)
    lines = [f"command={args.command}", digest]
    if args.point is not None:
        point = dynamics.parse_point(text)
    else:
        from . import life, lifepoly

        config = life.parse_rle(text)
        if args.translate:
            config = life.translate(config, args.translate[0], args.translate[1])
        safe = "true" if lifepoly.quadrant_safe(config) else "false"
        point = lifepoly.encode(config)
    maps = []
    for spec in args.map:
        if spec == "gol":
            from . import lifepoly

            maps.append(lifepoly.build_gol_map())
        else:
            text, digest = _read_text(spec)
            lines.append(digest)
            maps.append(parse_component_map(text))
    if args.point is None:
        lines.append(f"quadrant_safe={safe}")
    lines.append(f"generators={len(maps)} support={len(point)}")
    if len(maps) == 1 and not args.closure:
        lines.append(f"budget={args.max_steps}")
        verdict = orbit.is_stable_singleton(maps[0], point, args.max_steps)
    else:
        lines.append(f"max_points={args.max_points} max_depth={args.max_depth}")
        verdict = orbit.orbit_closure(maps, point, args.max_points, args.max_depth)
    lines.append(_stability_verdict_line(verdict))
    return 0, lines


def _corrupted_rule():
    from . import lifepoly

    # negative control: forget every survival-on-2 pattern
    return lifepoly.expand_patterns(
        bits for bits in lifepoly.life_patterns() if not (bits[0] == 1 and sum(bits[1:]) == 2)
    )


def _sum_over_shares(count, n: int) -> int:
    """Sum ``count(start, stop)`` over contiguous shares of [0, n), one per
    CPU this process may run on.

    The first share runs here; each other share runs in a forked worker
    that sends its count through a pipe and leaves by ``os._exit``, so it
    never returns into the caller and never flushes the copy of stdout's
    buffer it was forked with.  A share runs here too when ``fork``
    fails or the platform has none.  A worker that exits abnormally is a
    ``RuntimeError``; every worker is reaped before this returns or raises.
    """
    import signal  # builds its enums on import, which no other command needs

    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    shares = max(1, min(len(os.sched_getaffinity(0)) if can_fork else 1, n))
    bounds = [n * k // shares for k in range(shares + 1)]
    total = 0
    workers = []  # (pid, read end of its pipe, start, stop)
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                total += count(start, stop)
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(read_end)
                    os.write(write_end, str(count(start, stop)).encode())
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_end)
            workers.append((pid, read_end, start, stop))
        total += count(bounds[0], bounds[1])
        while workers:
            pid, read_end, start, stop = workers.pop()
            with open(read_end, "rb") as pipe:
                sent = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code != 0:
                raise RuntimeError(
                    f"the worker for trials {start}..{stop - 1} exited with status {code}")
            total += int(sent)
    finally:
        for pid, read_end, _, _ in workers:
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return total


def cmd_verify(args) -> tuple:
    from . import life, lifepoly
    from .dynamics import GridRuleMap

    lines = [f"command={args.command}",
             f"trials={args.trials} size={args.size} density={args.density} seed={args.seed}"]
    gol = (GridRuleMap(_corrupted_rule(), lifepoly.cantor_pairing()) if args.corrupt
           else lifepoly.build_gol_map())

    def failures_in(start: int, stop: int) -> int:
        failures = 0
        for soup in life.seeded_soups(args.seed, start, stop, args.size, args.density,
                                      origin=(1, 1)):
            # encode is injective, so comparing points compares configurations
            if gol.apply(lifepoly.encode(soup)) != lifepoly.encode(life.step(soup)):
                failures += 1
        return failures

    failures = _sum_over_shares(failures_in, args.trials)
    lines.append(f"failures={failures} passes={args.trials - failures}")
    return (0 if failures == 0 else 2), lines


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
    vf.add_argument("--seed", type=_at_least(0), default=42)
    vf.add_argument("--corrupt", action="store_true",
                    help="negative control: run with a deliberately broken rule")
    vf.set_defaults(func=cmd_verify, command="verify")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code, lines = args.func(args)
        for line in lines:  # a list, or the trace of tm run, made as it is printed
            print(line)
    except (OSError, ValueError) as exc:  # bad input, undecodable bytes included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # a backstop: an allocation failed under an address-space limit
        print("error: out of memory", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # an internal invariant check failed
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = (time.perf_counter() - started) * 1000
        print(f"walltime_ms={elapsed:.1f}", file=sys.stderr)
    return code
