import errno
import hashlib
import importlib
import io
import os
import pkgutil
import re
import subprocess
import sys
import time
import tracemalloc
import typing
from pathlib import Path

import pytest

import orbitkit
from orbitkit import cli, cycles, dynamics, life, lifepoly, turing
from orbitkit.cli import CliInputError, main, parse_component_map
from orbitkit.dynamics import FiniteComponentMap, SparsePoint
from orbitkit.polymap import Polynomial, PolyParseError, parse_poly

from helpers import (
    ACCEPT_ON_START,
    BLINKER_RLE,
    BLOCK_RLE,
    EMPTY_RLE,
    GLIDER,
    GLIDER_RLE,
    RIGHT_MOVER,
    RIGHT_WRITER,
    STAY_LEFT_LOOPER,
    TOAD_RLE,
    WRITER,
    count_calls,
)


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def write_inputs(files, tmp_path, monkeypatch):
    """Make ``tmp_path`` the work dir and write ``files`` there, ``bytes`` as they are and
    text as UTF-8; the name "-" is stdin instead (None: started with stdin closed), and
    p.pt and stdin hold "0:1" unless given."""
    monkeypatch.chdir(tmp_path)
    files = {"p.pt": "0:1\n", "-": "0:1\n", **files}
    stdin = files.pop("-")
    if stdin is not None:
        # like sys.stdin under a C locale: a text layer that takes any byte, over the
        # bytes that the CLI reads and decodes strictly
        raw = stdin if isinstance(stdin, bytes) else stdin.encode()
        stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data if isinstance(data, bytes) else data.encode())


def input_line(name, text):
    """The report line for input ``name`` ("-" for stdin) that holds ``text`` as UTF-8."""
    shown = "<stdin>" if name == "-" else name
    return f"input={shown} sha256={hashlib.sha256(text.encode()).hexdigest()}"


def test_life_step_glider_four_times_translates(tmp_path, capsys):
    src = tmp_path / "glider.rle"
    src.write_text(GLIDER_RLE)
    current = str(src)
    for i in range(4):
        nxt = str(tmp_path / f"g{i}.rle")
        code, _, _ = run_cli(["life", "step", current, "--out", nxt], capsys)
        assert code == 0
        current = nxt
    # RLE carries no absolute position, so chained files show the shape only; one
    # four-step run keeps coordinates (REPORTS row life-run-glider-4-steps)
    evolved = life.parse_rle((tmp_path / "g3.rle").read_text())
    moved = GLIDER
    for _ in range(4):
        moved = life.step(moved)
    assert moved == life.translate(GLIDER, 1, 1)
    assert evolved == GLIDER


# quadrant_safe=true certifies the first step only, while the verdict rests on every
# step: a glider heading for the corner, and orbit-soups seed 1's soup8.rle, whose
# gliders die at the quadrant's edge, both print verdict=stable
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
@pytest.mark.parametrize("rle, shift, budget", [
    pytest.param("x = 3, y = 3\n3o$o2b$bo!", 3, 100, id="nw-glider"),
    pytest.param("x = 6, y = 6\nobobo$3o$4o$obo2bo$4b2o$bo!", 116, 1000, id="soup8-seed-1"),
])
def test_a_quadrant_safe_verdict_agrees_with_the_engine(tmp_path, capsys, rle, shift, budget):
    p = tmp_path / "pattern.rle"
    p.write_text(rle)
    code, out, _ = run_cli(["orbit", "check", "--encode", str(p), "--map", "gol", "--translate",
                            str(shift), str(shift), "--max-steps", str(budget)], capsys)
    assert code == 0
    if "quadrant_safe=true" in out.splitlines():
        start = life.translate(life.parse_rle(rle), shift, shift)
        engine = cycles.detect_hashset(life.step, start, budget)
        assert ("verdict=stable" in out) == isinstance(engine, cycles.Periodic)


def test_parse_component_map_helper():
    m = parse_component_map("0: 1*x0^2\n3: 1*x1 + -2\n")
    assert m.components[0] == parse_poly("x0^2")
    assert m.apply(SparsePoint({0: 3})) == SparsePoint({0: 9, 3: -2})
    with pytest.raises(CliInputError, match="needs 'coordinate: polynomial'"):
        parse_component_map("0 1*x0")


# int() also takes a sign, digit-group underscores and other scripts' digits
@pytest.mark.parametrize("coordinate", ["+3", "1_0", "٣", "-1", ""])
def test_parse_component_map_takes_ascii_natural_coordinates_only(coordinate):
    with pytest.raises(CliInputError, match="is not a natural number"):
        parse_component_map(f"{coordinate}: x0\n")


@pytest.mark.parametrize("corrupt", [[], ["--corrupt"]], ids=["life", "corrupt"])
def test_verify_compares_points_without_decoding(corrupt, monkeypatch, capsys):
    calls = count_calls(monkeypatch, lifepoly, "decode")
    code, out, _ = run_cli(["verify", "--trials", "20", "--seed", "7", *corrupt], capsys)
    assert calls == []
    assert code == (2 if corrupt else 0)
    assert ("failures=0 passes=20" in out) == (not corrupt)


# a run whose passes and failures are mixed through its trials
MIXED_VERIFY = ["verify", "--corrupt", "--size", "4", "--density", "0.35", "--trials", "400",
                "--seed", "9"]


def failing_fork():
    raise OSError(errno.EAGAIN, "fork refused")


# each setting changes how the trials are shared out; none may change what verify reports
@pytest.mark.parametrize(
    "args",
    [["verify", "--trials", "0"], ["verify", "--trials", "1"], ["verify", "--trials", "7"],
     MIXED_VERIFY],
    ids=["0", "1", "7", "mixed"],
)
def test_verify_reports_the_same_whatever_the_worker_count(args, monkeypatch, capsys):
    def cpus(n):
        return lambda pid: set(range(n))

    # os attributes to set, or to delete where None
    settings = [{"sched_getaffinity": cpus(n)} for n in (1, 2, 3, 8)]
    settings += [{"sched_getaffinity": None}, {"sched_getaffinity": cpus(8), "fork": None},
                 {"sched_getaffinity": cpus(8), "fork": failing_fork}]
    runs = []
    for setting in settings:
        with monkeypatch.context() as m:
            for name, value in setting.items():
                if value is None:
                    m.delattr(os, name, raising=False)
                else:
                    m.setattr(os, name, value)
            code, out, err = run_cli(args, capsys)
        assert re.fullmatch(r"walltime_ms=\d+\.\d\n", err), err
        runs.append((code, out))
    assert runs == [runs[0]] * len(settings)
    if args is MIXED_VERIFY:
        assert runs[0][0] == 2
        assert runs[0][1].splitlines()[-1] == "failures=288 passes=112"


def test_verify_runs_with_stdout_closed(monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)  # as when the process starts with fd 1 closed
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert main(["verify", "--trials", "4"]) == 0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_verify_pinned_to_one_cpu_prints_the_same_bytes():
    env = {**os.environ, "PYTHONPATH": str(Path(orbitkit.__file__).parents[1])}
    pinned = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
              "from orbitkit import cli; sys.exit(cli.main(sys.argv[1:]))")
    runs = [subprocess.run([sys.executable, *head, *MIXED_VERIFY], env=env, capture_output=True)
            for head in (["-c", pinned], ["-m", "orbitkit"])]
    assert runs[0].returncode == 2, runs[0].stderr
    assert (runs[1].returncode, runs[1].stdout) == (runs[0].returncode, runs[0].stdout)


@pytest.mark.parametrize("fails_in", ["worker", "parent"])
def test_a_failing_share_is_an_internal_error_and_reaps_every_worker(
    fails_in, monkeypatch, capsys
):
    parent, real_step = os.getpid(), life.step

    def step(config):
        if (os.getpid() == parent) == (fails_in == "parent"):
            # a ValueError that escaped a worker would be reported as an input error
            raise ValueError("step failed")
        return real_step(config)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(life, "step", step)
    code, out, err = run_cli(["verify", "--trials", "10"], capsys)
    assert code == (2 if fails_in == "worker" else 1)
    prefix = "internal check failed:" if fails_in == "worker" else "error: step failed"
    assert [line.startswith(prefix) for line in err.splitlines()] == [True, False]
    assert "Traceback" not in err
    assert "failures=" not in out
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(life, "step", real_step)
    assert run_cli(["verify", "--trials", "10"], capsys)[0] == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# main prints a report only after its command returns, so a walk that fails partway
# leaves stdout empty, except for tm run, whose trace is printed as it is made; a
# MemoryError, as under an address-space limit, is an input error
@pytest.mark.parametrize(
    "exc, code, message",
    [(ValueError, 1, "error: step failed"), (RuntimeError, 2, "internal check failed: step failed"),
     (MemoryError, 1, "error: out of memory")],
    ids=["value-error", "runtime-error", "memory-error"],
)
@pytest.mark.parametrize(
    "args, owner, name, lines",
    [
        (["orbit", "check", "--point", "p.pt", "--map", "m.map"],
         dynamics.FiniteComponentMap, "apply", []),
        (["orbit", "check", "--point", "p.pt", "--map", "m.map", "--closure"],
         dynamics.FiniteComponentMap, "apply", []),
        (["tm", "periodicity", "m.tm"], turing, "tm_step", []),
        (["verify", "--trials", "4"], life, "step", []),
        (["tm", "run", "m.tm"], turing, "tm_step",
         ["command=tm run", input_line("m.tm", RIGHT_MOVER), "step=0 state=q head=0 tape=_",
          "step=1 state=q head=1 tape=_,_", "step=2 state=q head=2 tape=_,_,_"]),
    ],
    ids=["orbit-singleton", "orbit-closure", "tm-periodicity", "verify", "tm-run"],
)
def test_a_failing_step_prints_nothing_on_stdout(args, owner, name, lines, exc, code, message,
                                                  tmp_path, monkeypatch, capsys):
    write_inputs({"m.map": "0: x0 + 1\n", "m.tm": RIGHT_MOVER}, tmp_path, monkeypatch)
    real_step, calls = getattr(owner, name), []

    def step(*args):  # fails on its third call, partway through each walk
        calls.append(args)
        if len(calls) == 3:
            raise exc("step failed")
        return real_step(*args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # verify runs every trial here
    monkeypatch.setattr(owner, name, step)
    got, out, err = run_cli(args, capsys)
    assert (got, out.splitlines()) == (code, lines)
    errors = err.splitlines()
    assert len(errors) == 2 and errors[0] == message
    assert re.fullmatch(r"walltime_ms=\d+\.\d", errors[1])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_output_buffered_before_verify_forks_is_written_once():
    # block-buffered stdout: a worker that flushed its copy of the buffer would repeat it
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(orbitkit.__file__).parents[1])
    code = ("import os, sys; from orbitkit import cli; os.sched_getaffinity = lambda pid: {0, 1}; "
            "sys.stdout.write('before\\n'); sys.exit(cli.main(['verify', '--trials', '8']))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[:2] == ["before", "command=verify"]
    assert lines.count("before") == 1


def test_tm_run_prints_its_trace_as_it_is_made(tmp_path, monkeypatch):
    # 4.07 M characters of trace at this budget; printing it as it is made keeps memory flat
    machine = tmp_path / "w.tm"
    machine.write_text(RIGHT_WRITER)
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["tm", "run", str(machine), "--budget", "2000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2**20, peak


@pytest.mark.parametrize(("source", "builtin"),
                         [("file", True), ("stdin", True), ("file", False), ("stdin", False)],
                         ids=["file", "stdin", "file-hashlib-fallback", "stdin-hashlib-fallback"])
def test_digest_line_is_the_sha256_of_the_raw_bytes(source, builtin, tmp_path, monkeypatch,
                                                     capsys):
    if not builtin:  # as on a build configured without the built-in hashes
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
    reports = []
    for raw in (b"12:1\r\n17:1\r\n23:1\r\n", b"12:1\n17:1\n23:1\n"):
        write_inputs({"p.pt": raw, "-": raw}, tmp_path, monkeypatch)
        arg = "p.pt" if source == "file" else "-"
        code, out, _ = run_cli(["orbit", "check", "--point", arg, "--map", "gol"], capsys)
        assert code == 0
        assert out.splitlines()[1] == input_line(arg, raw.decode())
        reports.append(out.splitlines()[2:])
    # CRLF changes the digest, not the parse
    assert reports[0] == reports[1]
    assert "verdict=stable orbit_size=2 preperiod=0 period=2" in reports[0]


def test_input_is_decoded_as_utf8_under_the_c_locale(tmp_path):
    (tmp_path / "p.pt").write_text("0:5\n")
    flip = "# café\n0: -1*x0\n"
    (tmp_path / "flip.map").write_bytes(flip.encode())
    env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C",
           "PYTHONPATH": str(Path(orbitkit.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "orbitkit", "orbit", "check", "--point", "p.pt", "--map", "flip.map"],
        cwd=tmp_path, env=env, capture_output=True,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.decode("ascii").splitlines()
    assert input_line("flip.map", flip) in lines
    assert "verdict=stable orbit_size=2 preperiod=0 period=2" in lines


def test_package_import_loads_only_the_modules_asked_for():
    env = {**os.environ, "PYTHONPATH": str(Path(orbitkit.__file__).parents[1])}
    report = "import sys; print(*sorted(m for m in sys.modules if m.startswith('orbitkit.')))"
    loaded = {}
    for stmt in ("import orbitkit", "from orbitkit import lifepoly"):
        run = subprocess.run([sys.executable, "-c", f"{stmt}; {report}"],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        loaded[stmt] = run.stdout.split()
    assert loaded["import orbitkit"] == []
    assert loaded["from orbitkit import lifepoly"] == [
        "orbitkit.dynamics", "orbitkit.lifepoly", "orbitkit.polymap"]


def test_lifepoly_annotations_resolve_and_load_life_on_demand():
    # in a fresh process, where lifepoly has not loaded life
    env = {**os.environ, "PYTHONPATH": str(Path(orbitkit.__file__).parents[1])}
    code = ("import sys, typing; from orbitkit import lifepoly\n"
            "print('orbitkit.life' in sys.modules)\n"
            "for f in (lifepoly.encode, lifepoly.decode, lifepoly.quadrant_safe):\n"
            "    print(*(t.__qualname__ for t in typing.get_type_hints(f).values()))\n"
            "print('orbitkit.life' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "False", "frozenset SparsePoint", "SparsePoint frozenset", "frozenset bool", "True"]


def test_cli_annotations_resolve_and_load_their_modules_on_demand():
    # in a fresh process, where neither dynamics nor polymap is loaded yet
    env = {**os.environ, "PYTHONPATH": str(Path(orbitkit.__file__).parents[1])}
    code = ("import typing; from orbitkit import cli\n"
            "for f in vars(cli).values():\n"
            "    if getattr(f, '__module__', None) == 'orbitkit.cli': typing.get_type_hints(f)\n"
            "print(typing.get_type_hints(cli.parse_poly)['return'].__qualname__, "
            "typing.get_type_hints(cli.parse_component_map)['return'].__qualname__)")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["Polynomial", "FiniteComponentMap"]
    assert typing.get_type_hints(orbitkit.cli.parse_poly) == {"text": str, "return": Polynomial}
    assert typing.get_type_hints(parse_component_map) == {"text": str, "return": FiniteComponentMap}


README = Path(__file__).parents[1] / "README.md"


def readme_example(title, nth=0):
    """The nth unlabelled fenced block after the bold ``title`` in the README."""
    text = README.read_text(encoding="utf-8")
    rest = text[text.index(f"**{title}**"):]
    return re.findall(r"^```\n(.*?)^```", rest, re.M | re.S)[nth]


def write_readme_examples(work):
    """The README's example machine and component maps, and two start points."""
    (work / "machine.tm").write_text(readme_example("Turing machines"))
    (work / "flip.map").write_text(readme_example("Component maps"))
    (work / "swap.map").write_text(readme_example("Component maps", 1))
    (work / "start.pt").write_text("0:5\n")
    (work / "pair.pt").write_text("0:5 1:7\n")


def test_readme_python_blocks_run():
    # a public name the README uses cannot disappear without failing here
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    for m in blocks:
        # pad with the lines above the block so tracebacks name README lines
        code = "\n" * text.count("\n", 0, m.start(1)) + m.group(1)
        exec(compile(code, str(README), "exec"), {})


@pytest.mark.parametrize(
    "args, line",
    [
        (["tm", "periodicity", "machine.tm", "--input", "0110"],
         "verdict=periodic preperiod=6 period=1"),
        (["orbit", "check", "--point", "start.pt", "--map", "flip.map"],
         "verdict=stable orbit_size=2 preperiod=0 period=2"),
        (["orbit", "check", "--point", "pair.pt", "--map", "swap.map", "--map", "flip.map"],
         "verdict=stable orbit_size=8"),
        # the swap moves 0:5 to coordinate 1 and deletes coordinate 0
        (["orbit", "check", "--point", "start.pt", "--map", "swap.map", "--map", "flip.map"],
         "verdict=stable orbit_size=4"),
    ],
    ids=["tm-periodicity", "orbit-flip", "orbit-pair-closure", "orbit-start-closure"],
)
def test_readme_examples_keep_their_verdicts(args, line, tmp_path, monkeypatch, capsys):
    write_readme_examples(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    assert line in out.splitlines()


# stdout is byte-deterministic: nothing a command prints may depend on the
# per-process string hash seed
@pytest.mark.parametrize(
    "args",
    [
        ["tm", "run", "machine.tm", "--input", "0110"],
        ["tm", "periodicity", "machine.tm", "--input", "0110", "--algorithm", "brent"],
        ["life", "run", "glider.rle", "--steps", "8", "--trace", "--grid"],
        ["poly-rule", "--expanded"],
        ["verify", "--trials", "50"],
        ["orbit", "check", "--point", "start.pt", "--map", "flip.map"],
        ["orbit", "check", "--point", "pair.pt", "--map", "swap.map", "--map", "flip.map"],
        ["orbit", "check", "--encode", "glider.rle", "--translate", "10", "10",
         "--map", "gol", "--max-steps", "50"],
    ],
    ids=["tm-run", "tm-periodicity", "life-run", "poly-rule", "verify", "orbit-flip",
         "orbit-closure", "orbit-gol"],
)
def test_stdout_is_the_same_under_two_hash_seeds(args, tmp_path):
    write_readme_examples(tmp_path)
    (tmp_path / "glider.rle").write_text(GLIDER_RLE + "\n")
    env = {**os.environ, "PYTHONPATH": str(Path(orbitkit.__file__).parents[1])}
    runs = [subprocess.run([sys.executable, "-m", "orbitkit", *args], cwd=tmp_path,
                           env={**env, "PYTHONHASHSEED": seed}, capture_output=True)
            for seed in ("0", "12345")]
    assert runs[0].returncode == 0, runs[0].stderr
    assert (runs[1].returncode, runs[1].stdout) == (runs[0].returncode, runs[0].stdout)


def test_each_command_loads_only_its_own_modules(tmp_path):
    (tmp_path / "m.tm").write_text(WRITER)
    (tmp_path / "p.pt").write_text("0:5\n")
    (tmp_path / "flip.map").write_text("0: -1*x0\n")
    (tmp_path / "b.rle").write_text(BLINKER_RLE)
    env = {**os.environ, "PYTHONPATH": str(Path(orbitkit.__file__).parents[1])}
    report = ("import sys; from orbitkit import cli; code = cli.main(sys.argv[1:]); "
              "print(*sorted(m for m in sys.modules if m.startswith('orbitkit.')), "
              "'dataclasses' in sys.modules, 'hashlib' in sys.modules, "
              "'_hashlib' in sys.modules); sys.exit(code)")
    # hashlib and _hashlib load OpenSSL; no command needs them, not even for the sha256
    # line of a command that reads a file
    for args, modules in (
        (["tm", "periodicity", "m.tm", "--budget", "50"], ["cycles", "turing"]),
        (["orbit", "check", "--point", "p.pt", "--map", "flip.map"],
         ["cycles", "dynamics", "orbit", "polymap"]),
        (["poly-rule"], ["dynamics", "lifepoly", "polymap"]),
        (["life", "run", "b.rle"], ["life"]),
        (["verify", "--trials", "2"], ["dynamics", "life", "lifepoly", "polymap"]),
        (["orbit", "check", "--encode", "b.rle", "--translate", "2", "2", "--map", "gol"],
         ["cycles", "dynamics", "life", "lifepoly", "orbit", "polymap"]),
    ):
        run = subprocess.run([sys.executable, "-c", report, *args], cwd=tmp_path, env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        loaded = run.stdout.splitlines()[-1].split()
        assert loaded[:-3] == sorted(f"orbitkit.{m}" for m in ["cli", *modules])
        assert loaded[-3:] == ["False", "False", "False"]


def test_no_module_imports_dataclasses():
    imports = re.compile(r"^\s*(from|import)\s+dataclasses\b", re.M)
    for path in Path(orbitkit.__file__).parent.glob("*.py"):
        assert not imports.search(path.read_text(encoding="utf-8")), path.name


# a run count is bounded by the header's box, so a short pattern cannot ask for a
# million cells, and a count of a million digits is read in one pass
@pytest.mark.parametrize("rle", ["x = 1, y = 1\n1000000o!", "x = 3, y = 1\n3o1000000$o!",
                                 "x = 3, y = 1\n" + "7" * 10**6 + "o!"],
                         ids=["column", "row", "long-count"])
@pytest.mark.parametrize("args", [["life", "run", "s.rle"],
                                  ["orbit", "check", "--encode", "s.rle", "--map", "gol"]],
                         ids=["life-run", "orbit-encode"])
def test_live_cell_outside_the_declared_box_is_input_error(rle, args, tmp_path, monkeypatch,
                                                           capsys):
    write_inputs({"s.rle": rle}, tmp_path, monkeypatch)
    started = time.perf_counter()
    code, out, err = run_cli(args, capsys)
    assert time.perf_counter() - started < 1
    assert code == 1
    assert out == ""
    assert "outside the declared" in err and "Traceback" not in err


# a header may declare a box of 10**6 cells; the cell cap stops the run inside it
@pytest.mark.parametrize("args", [["life", "step", "s.rle"],
                                  ["orbit", "check", "--encode", "s.rle", "--map", "gol"]],
                         ids=["life-step", "orbit-encode"])
def test_pattern_past_the_cell_cap_is_input_error(args, tmp_path, monkeypatch, capsys):
    write_inputs({"s.rle": "x = 1000000, y = 1\n1000000o!\n"}, tmp_path, monkeypatch)
    assert (tmp_path / "s.rle").stat().st_size == 29
    started = time.perf_counter()
    code, out, err = run_cli(args, capsys)
    assert time.perf_counter() - started < 1
    assert code == 1
    assert out == ""
    assert "more than 100000 live cells (line 2, column 8)" in err and "Traceback" not in err


# four blocks at the corners of a 10**5 x 10**5 box: 16 live cells, but a grid of 10**10
SPARSE_CORNERS_RLE = ("x = 100000, y = 100000\n"
                      "2o99996b2o$2o99996b2o99997$2o99996b2o$2o99996b2o!\n")


@pytest.mark.parametrize("args", [["life", "step", "s.rle", "--grid"],
                                  ["life", "run", "s.rle", "--steps", "1", "--grid"]],
                         ids=["life-step", "life-run"])
def test_grid_past_the_cell_cap_is_input_error(args, tmp_path, monkeypatch, capsys):
    write_inputs({"s.rle": SPARSE_CORNERS_RLE}, tmp_path, monkeypatch)
    started = time.perf_counter()
    code, out, err = run_cli(args, capsys)
    assert time.perf_counter() - started < 1
    assert code == 1
    assert out == ""
    assert err.startswith("error: a 100000 x 100000 grid has more than 100000 cells\n")
    # without --grid the same pattern steps and prints at once
    code, out, _ = run_cli(args[:-1], capsys)
    assert code == 0
    assert "population=16 bbox=0,0,99999,99999" in out


def test_every_error_class_is_a_value_error():
    # main maps ValueError to exit 1, so every public error class must be one
    # (cycles._OutOfBudget is private and never leaves detect_brent)
    errors = {
        obj.__name__: obj
        for info in pkgutil.iter_modules(orbitkit.__path__)
        if info.name != "__main__"
        for obj in vars(importlib.import_module(f"orbitkit.{info.name}")).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
        and obj.__module__.startswith("orbitkit.") and not obj.__name__.startswith("_")
    }
    assert errors.keys() == {
        "CliInputError", "PolyParseError", "PointParseError", "RleParseError",
        "OutOfQuadrantError", "NotAConfigurationError", "TmError", "TmParseError",
        "TmValidationError",
    }
    assert all(issubclass(cls, ValueError) for cls in errors.values())


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["life", "run"])
    assert exc.value.code == 1


def test_internal_check_failure_exits_two_without_traceback(monkeypatch, capsys):
    # an expansion that lost one pattern: the rule is 0 where Life gives 1
    real_expand = lifepoly.expand_patterns
    monkeypatch.setattr(lifepoly, "expand_patterns", lambda patterns: real_expand(patterns[1:]))
    lifepoly.build_local_rule.cache_clear()
    code, out, err = run_cli(["poly-rule"], capsys)
    assert code == 2
    assert out == ""
    assert "internal check failed: expanded local rule disagrees" in err
    assert "Traceback" not in err


SCANNER = """
# rewrites 0s as 1s moving right; accepts at the first blank, rejects at a 1
states: q qa qr
input: 0 1
tape: 0 1 _
blank: _
start: q
accept: qa
reject: qr
q, 0 -> q, 1, R
q, 1 -> qr, 0, L
q, _ -> qa, 1, R
"""


POINT = ["orbit", "check", "--point", "p.pt", "--map"]
ENCODE = ["orbit", "check", "--encode", "s.rle", "--map", "gol"]
LONE_CELL_RLE = "x = 1, y = 1\no!"
SHIFTED_BLINKER_RLE = "x = 5, y = 1\n2b3o!"  # a blinker on columns 2-4
FLIP_MAP = "# sign flip on coordinate 0\n0: -1*x0\n"
STEP_MAP = "0: x0 + 1\n"  # every image is new, so only a limit stops a closure


# runs whose exit code and whole stdout, line for line, are a fixed contract: (id, input
# files as write_inputs takes them, argv, exit code, stdout lines)
REPORTS = [
    ("life-run-blinker-2-steps", {"s.rle": BLINKER_RLE}, ["life", "run", "s.rle", "--steps", "2"],
     0, ["command=life run", input_line("s.rle", BLINKER_RLE),
         "steps=2 population=3 bbox=0,0,2,0", *BLINKER_RLE.splitlines()]),
    # --steps defaults to one step
    ("life-run-blinker-default-steps", {"s.rle": BLINKER_RLE}, ["life", "run", "s.rle"], 0,
     ["command=life run", input_line("s.rle", BLINKER_RLE), "steps=1 population=3 bbox=1,-1,1,1",
      "x = 1, y = 3", "o$o$o!"]),
    ("life-run-empty", {"s.rle": EMPTY_RLE}, ["life", "run", "s.rle", "--steps", "100"], 0,
     ["command=life run", input_line("s.rle", EMPTY_RLE), "steps=100 population=0 bbox=empty",
      *EMPTY_RLE.splitlines()]),
    # one four-step run keeps coordinates, so its report shows the glider's shift
    ("life-run-glider-4-steps", {"s.rle": GLIDER_RLE}, ["life", "run", "s.rle", "--steps", "4"],
     0, ["command=life run", input_line("s.rle", GLIDER_RLE),
         "steps=4 population=5 bbox=1,1,3,3", "x = 3, y = 3", "bo$2bo$3o!"]),
    ("life-run-trace-grid", {"s.rle": BLINKER_RLE},
     ["life", "run", "s.rle", "--steps", "2", "--trace", "--grid"], 0,
     ["command=life run", input_line("s.rle", BLINKER_RLE), "step=1 population=3 bbox=1,-1,1,1",
      "step=2 population=3 bbox=0,0,2,0", "steps=2 population=3 bbox=0,0,2,0", "origin=0,0",
      "###", *BLINKER_RLE.splitlines()]),
    ("life-run-dies-grid", {"s.rle": LONE_CELL_RLE},
     ["life", "run", "s.rle", "--steps", "1", "--grid"], 0,
     ["command=life run", input_line("s.rle", LONE_CELL_RLE), "steps=1 population=0 bbox=empty",
      "origin=none", "(empty)", "x = 0, y = 0", "!"]),
    ("life-run-stdin", {"-": BLINKER_RLE}, ["life", "run", "-", "--steps", "0"], 0,
     ["command=life run", input_line("-", BLINKER_RLE), "steps=0 population=3 bbox=0,0,2,0",
      *BLINKER_RLE.splitlines()]),
    ("tm-run-accept-on-start", {"m.tm": ACCEPT_ON_START}, ["tm", "run", "m.tm"], 0,
     ["command=tm run", input_line("m.tm", ACCEPT_ON_START), "step=0 state=qa head=0 tape=_",
      "result=halted verdict=accept steps=0"]),
    # a tape shows every cell up to the head and the last written symbol
    ("tm-run-writer", {"m.tm": WRITER}, ["tm", "run", "m.tm", "--input", "00"], 0,
     ["command=tm run", input_line("m.tm", WRITER), "step=0 state=q head=0 tape=0,0",
      "step=1 state=p head=0 tape=1,0", "step=2 state=qa head=1 tape=1,0",
      "result=halted verdict=accept steps=2"]),
    ("tm-run-right-mover-truncated", {"m.tm": RIGHT_MOVER},
     ["tm", "run", "m.tm", "--input", "0", "--budget", "2"], 0,
     ["command=tm run", input_line("m.tm", RIGHT_MOVER), "step=0 state=q head=0 tape=0",
      "step=1 state=q head=1 tape=0,_", "step=2 state=q head=2 tape=0,_,_",
      "result=truncated steps=2"]),
    ("tm-periodicity-looper", {"m.tm": STAY_LEFT_LOOPER},
     ["tm", "periodicity", "m.tm", "--budget", "100"], 0,
     ["command=tm periodicity", input_line("m.tm", STAY_LEFT_LOOPER),
      "algorithm=hashset budget=100 halt_as_fixed_point=false",
      "verdict=periodic preperiod=0 period=1"]),
    ("tm-periodicity-right-mover-hashset", {"m.tm": RIGHT_MOVER},
     ["tm", "periodicity", "m.tm", "--budget", "10000", "--algorithm", "hashset"], 0,
     ["command=tm periodicity", input_line("m.tm", RIGHT_MOVER),
      "algorithm=hashset budget=10000 halt_as_fixed_point=false",
      "verdict=exhausted budget=10000"]),
    ("tm-periodicity-right-mover-brent", {"m.tm": RIGHT_MOVER},
     ["tm", "periodicity", "m.tm", "--budget", "10000", "--algorithm", "brent"], 0,
     ["command=tm periodicity", input_line("m.tm", RIGHT_MOVER),
      "algorithm=brent budget=10000 halt_as_fixed_point=false",
      "verdict=exhausted budget=10000"]),
    ("tm-periodicity-accept-on-start", {"m.tm": ACCEPT_ON_START},
     ["tm", "periodicity", "m.tm"], 0,
     ["command=tm periodicity", input_line("m.tm", ACCEPT_ON_START),
      "algorithm=hashset budget=10000 halt_as_fixed_point=false", "verdict=terminated steps=0"]),
    ("tm-periodicity-accept-on-start-halt-as-fixed-point", {"m.tm": ACCEPT_ON_START},
     ["tm", "periodicity", "m.tm", "--halt-as-fixed-point"], 0,
     ["command=tm periodicity", input_line("m.tm", ACCEPT_ON_START),
      "algorithm=hashset budget=10000 halt_as_fixed_point=true",
      "verdict=periodic preperiod=0 period=1"]),
    ("orbit-block", {"s.rle": BLOCK_RLE}, [*ENCODE, "--translate", "2", "2"], 0,
     ["command=orbit check", input_line("s.rle", BLOCK_RLE), "quadrant_safe=true",
      "generators=1 support=4", "budget=10000",
      "verdict=stable orbit_size=1 preperiod=0 period=1"]),
    ("orbit-blinker", {"s.rle": BLINKER_RLE}, [*ENCODE, "--translate", "2", "2"], 0,
     ["command=orbit check", input_line("s.rle", BLINKER_RLE), "quadrant_safe=true",
      "generators=1 support=3", "budget=10000",
      "verdict=stable orbit_size=2 preperiod=0 period=2"]),
    ("orbit-toad", {"s.rle": TOAD_RLE}, [*ENCODE, "--translate", "2", "2"], 0,
     ["command=orbit check", input_line("s.rle", TOAD_RLE), "quadrant_safe=true",
      "generators=1 support=6", "budget=10000",
      "verdict=stable orbit_size=2 preperiod=0 period=2"]),
    # a negative shift is read as a number, not as an option
    ("orbit-negative-translate", {"s.rle": SHIFTED_BLINKER_RLE},
     [*ENCODE, "--translate", "-1", "2"], 0,
     ["command=orbit check", input_line("s.rle", SHIFTED_BLINKER_RLE), "quadrant_safe=true",
      "generators=1 support=3", "budget=10000",
      "verdict=stable orbit_size=2 preperiod=0 period=2"]),
    # Unknown is an honest verdict, not an error
    ("orbit-glider-unknown", {"s.rle": GLIDER_RLE},
     [*ENCODE, "--translate", "10", "10", "--max-steps", "1000"], 0,
     ["command=orbit check", input_line("s.rle", GLIDER_RLE), "quadrant_safe=true",
      "generators=1 support=5", "budget=1000", "verdict=unknown points=1001 limit=budget"]),
    ("orbit-flip-file", {"p.pt": "0:5", "flip.map": FLIP_MAP}, [*POINT, "flip.map"], 0,
     ["command=orbit check", input_line("p.pt", "0:5"), input_line("flip.map", FLIP_MAP),
      "generators=1 support=1", "budget=10000",
      "verdict=stable orbit_size=2 preperiod=0 period=2"]),
    ("orbit-flip-file-twice-closure", {"p.pt": "0:5", "flip.map": FLIP_MAP},
     [*POINT, "flip.map", "--map", "flip.map", "--closure"], 0,
     ["command=orbit check", input_line("p.pt", "0:5"), *[input_line("flip.map", FLIP_MAP)] * 2,
      "generators=2 support=1", "max_points=100000 max_depth=10000",
      "verdict=stable orbit_size=2"]),
    ("orbit-closure-max-points", {"p.pt": "0:5 1:7", "step.map": STEP_MAP},
     [*POINT, "step.map", "--closure", "--max-points", "5"], 0,
     ["command=orbit check", input_line("p.pt", "0:5 1:7"), input_line("step.map", STEP_MAP),
      "generators=1 support=2", "max_points=5 max_depth=10000",
      "verdict=unknown points=5 limit=max_points"]),
    # the identity adds no point, so depth 3 holds the start and three steps
    ("orbit-closure-max-depth", {"p.pt": "0:5 1:7", "step.map": STEP_MAP, "id.map": "0: x0\n"},
     [*POINT, "step.map", "--map", "id.map", "--max-depth", "3"], 0,
     ["command=orbit check", input_line("p.pt", "0:5 1:7"), input_line("step.map", STEP_MAP),
      input_line("id.map", "0: x0\n"), "generators=2 support=2",
      "max_points=100000 max_depth=3", "verdict=unknown points=4 limit=max_depth"]),
    ("verify-seed-7", {}, ["verify", "--trials", "40", "--size", "12", "--seed", "7"], 0,
     ["command=verify", "trials=40 size=12 density=0.3 seed=7", "failures=0 passes=40"]),
    ("verify-corrupt-20-trials", {}, ["verify", "--trials", "20", "--corrupt", "--seed", "7"], 2,
     ["command=verify", "trials=20 size=16 density=0.3 seed=7", "failures=20 passes=0"]),
    ("verify-zero-trials", {}, ["verify", "--trials", "0"], 0,
     ["command=verify", "trials=0 size=16 density=0.3 seed=42", "failures=0 passes=0"]),
    # the ends of --density, and the largest soup whose box stays within life.MAX_RLE_CELLS
    ("verify-density-0", {}, ["verify", "--trials", "3", "--size", "1", "--density", "0"], 0,
     ["command=verify", "trials=3 size=1 density=0.0 seed=42", "failures=0 passes=3"]),
    ("verify-density-1", {}, ["verify", "--trials", "3", "--size", "1", "--density", "1"], 0,
     ["command=verify", "trials=3 size=1 density=1.0 seed=42", "failures=0 passes=3"]),
    ("verify-size-316", {}, ["verify", "--trials", "1", "--size", "316"], 0,
     ["command=verify", "trials=1 size=316 density=0.3 seed=42", "failures=0 passes=1"]),
]


@pytest.mark.parametrize("files, args, exit_code, lines",
                         [pytest.param(*row[1:], id=row[0]) for row in REPORTS])
def test_report_lines_and_exit_code_are_pinned(files, args, exit_code, lines, tmp_path,
                                               monkeypatch, capsys):
    write_inputs(files, tmp_path, monkeypatch)
    code, out, err = run_cli(args, capsys)
    assert code == exit_code
    assert out.splitlines() == lines
    assert re.fullmatch(r"walltime_ms=\d+\.\d\n", err), err


def test_poly_rule_summary(capsys):
    code, out, _ = run_cli(["poly-rule"], capsys)
    assert code == 0
    assert "summands=140" in out
    assert "truth_table=ok" in out
    assert "probe=0,1,1,1,0,0,0,0,0 value=1" in out
    assert "(1-x0)*x1*x2*x3*(1-x4)*(1-x5)*(1-x6)*(1-x7)*(1-x8)" in out


def test_poly_rule_expanded(capsys):
    code, out, _ = run_cli(["poly-rule", "--expanded"], capsys)
    assert code == 0
    expected_terms = len(lifepoly.build_local_rule().terms)
    assert f"terms={expected_terms}" in out
    assert "truth_table=ok" in out


# component-map runs; the B_5 point's moved values have distinct absolute values, some
# above 64 bits, so swap, cycle and flip generate a free orbit of 2^5 * 5! = 3840 points
B5_POINT = (f"0:17 3:{2**70 + 1} 7:-{2**65 + 3} 11:5 20:-9 31:12345678901234567890123"
            f" 40:-{2**80}\n")
B5_MAPS = {
    "swap.map": "3: x7\n7: x3\n",
    "cycle.map": "3: x7\n7: x11\n11: x20\n20: x31\n31: x3\n",
    "flip.map": "3: -1*x3\n",
}


OUT_RLE = {"out.rle": "x = 1, y = 3\no$o$o!\n"}
GOL_STDIN = ["orbit", "check", "--point", "-", "--map", "gol", "--max-steps", "3"]

# runs whose exit code and whole stdout, by sha256, are a fixed contract: (id, input
# files as write_inputs takes them, argv, exit code, digest, files the run writes)
STDOUT_PINS = [
    ("life-step-out", {"s.rle": BLINKER_RLE}, ["life", "step", "s.rle", "--out", "out.rle"], 0,
     "0eccd5392302e0f2958fd2b91e2e3726ffaf13bef8d0f54f3dc4db846dea2c83", OUT_RLE),
    ("life-run-trace-grid-out", {"s.rle": BLINKER_RLE},
     ["life", "run", "s.rle", "--steps", "3", "--trace", "--grid", "--out", "out.rle"], 0,
     "d48879297a0591f3e90bf813d735eef874bb71d3e486d777d51eb6a29fdbf44e", OUT_RLE),
    ("poly-rule", {}, ["poly-rule"], 0,
     "5dfd1df712804a0ce9039e3456dc002e01e7ccd11227db110e296527b73e495d", {}),
    ("poly-rule-expanded", {}, ["poly-rule", "--expanded"], 0,
     "27de82d80a7fe5193522d41f7789c2d892444d2cb9a5339b8d6ac58f7a447dbf", {}),
    ("verify-corrupt", {}, ["verify", "--trials", "50", "--corrupt", "--seed", "7"], 2,
     "3e318392089396895bb3d7f59ae56fa3d33929acc15cbc0ca394d721f038f682", {}),
    # each point holds a 2, so apply takes the generic path and evaluates the rule
    # polynomial; --max-steps stays small because value bit-lengths can triple every step
    ("gol-blinker-holding-2", {"-": "12:1 17:2 23:1"}, GOL_STDIN, 0,
     "3a8e513adb9e9d8a7bde17d14978c26ec180f352c021adf2a1ba8f8920731a16", {}),
    ("gol-vee-holding-2", {"-": "12:2 13:1 24:1"}, GOL_STDIN, 0,
     "1b2237c4b7cf15eb74da2cf0959de30409520edb6c1ecff84eb84348106ed89a", {}),
    # the scanner accepts "000" after 4 steps and rejects "001" after 3; budget 2 truncates
    # its "000" run, and --halt-as-fixed-point relabels the 4-step halt as a period-1 cycle
    ("tm-run-accept", {"-": SCANNER}, ["tm", "run", "-", "--input", "000"], 0,
     "53cf075250ae8652e95dd98abdf367e6adee6e9acde96da69c5d42f5b3563524", {}),
    ("tm-run-reject", {"-": SCANNER}, ["tm", "run", "-", "--input", "001"], 0,
     "397b6365a2362a2f2849f07cd87e68031485dc9322b3e433e5deac74c2369e0a", {}),
    ("tm-run-truncated", {"-": SCANNER}, ["tm", "run", "-", "--input", "000", "--budget", "2"], 0,
     "bc2ff3d27a305184e11fa92c5de685032fd143500d4f0e506cedc23244ec5bb8", {}),
    ("tm-hashset", {"-": SCANNER},
     ["tm", "periodicity", "-", "--input", "000", "--algorithm", "hashset"], 0,
     "19a2f6ce1e51ea28e0b83112ba093e2159093db17ee3a3637cae6472d5ae1288", {}),
    ("tm-hashset-halt-as-fixed-point", {"-": SCANNER},
     ["tm", "periodicity", "-", "--input", "000", "--algorithm", "hashset",
      "--halt-as-fixed-point"], 0,
     "c0b83aef527554cb9c9a7ac36e31bb2caef96fd5e3f058bef14fbbeb55eb6082", {}),
    ("tm-brent", {"-": SCANNER},
     ["tm", "periodicity", "-", "--input", "000", "--algorithm", "brent"], 0,
     "5f2cd4c5bf6061b27fbb4008f77233aac9da4b8f91b55f21b4f0ed2071b54ce3", {}),
    ("tm-brent-halt-as-fixed-point", {"-": SCANNER},
     ["tm", "periodicity", "-", "--input", "000", "--algorithm", "brent",
      "--halt-as-fixed-point"], 0,
     "e3f3e963487c07ae55b5423820aa3535a71664853b6c3e023bb76323d8b7b61c", {}),
    ("b5-closure", {"b5.pt": B5_POINT, **B5_MAPS},
     ["orbit", "check", "--point", "b5.pt", "--map", "swap.map", "--map", "cycle.map",
      "--map", "flip.map"], 0,
     "e0e798e42354ee193ae1108b8ed4c4e10584d36d4ac1998d2bbc69c3df4e2380", {}),
    ("unipotent-closure", {"u.pt": f"4:{2**70 + 5} 9:-{2**66 + 1}\n", "u.map": "4: x4 + x9^2\n"},
     ["orbit", "check", "--point", "u.pt", "--map", "u.map", "--closure", "--max-points", "200"],
     0, "2accb478a3431c3edf8ff4002ea8080b3dbeac61644f9bb995b0e0db74fd9332", {}),
    # the map moves x1 to 0 and x2 to 1 and sends 2 to 0, so the coordinates leave the
    # support one by one, while coordinate 5, off the support, takes x0 + 1
    ("support-leaves", {"s.pt": "0:3 1:5 2:-7\n", "s.map": "0: x1\n1: x2\n2: 0\n5: x0 + 1\n"},
     ["orbit", "check", "--point", "s.pt", "--map", "s.map"], 0,
     "366e0c4fd0c082399b9fea1188ab46a0bfc1759269cca70182b1de3dc4fac409", {}),
]


@pytest.mark.parametrize("files, args, exit_code, digest, writes",
                         [pytest.param(*row[1:], id=row[0]) for row in STDOUT_PINS])
def test_stdout_bytes_and_exit_code_are_pinned(files, args, exit_code, digest, writes, tmp_path,
                                               monkeypatch, capsys):
    write_inputs(files, tmp_path, monkeypatch)
    code, out, _ = run_cli(args, capsys)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert {name: (tmp_path / name).read_text() for name in writes} == writes


BAD_MAP = "0: x0 -\n"
DUP_MAP = "0: x1\n0: x0\n"
# int() refuses a numeral longer than this with a plain ValueError; 0 means no limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "1" * (DIGIT_LIMIT + 1)


needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT,
                                       reason="the interpreter sets no integer digit limit")


def input_error(files, args, message="error:", marks=()):
    """A row of the input-error table: ``message`` is text its one error line holds."""
    return pytest.param(files, args, message, marks=marks)


# every input is read and parsed before the first report line, so no error leaves
# partial stdout; the files are written by write_inputs.  "²" is a digit to
# str.isdigit but not to int(), which used to raise a bare ValueError
@pytest.mark.parametrize(
    "files, args, message",
    [
        input_error({"m.tm": SCANNER.replace("tape: 0 1 _", "tape: 0 1")}, ["tm", "run", "m.tm"]),
        input_error({"m.tm": SCANNER.replace("input: 0 1", "input: 0 1 2")},
                    ["tm", "run", "m.tm"]),
        input_error({"m.tm": SCANNER.replace("qr, 0, L", "qr, 0, X")}, ["tm", "run", "m.tm"]),
        input_error({"m.tm": SCANNER.replace("start: q", "start: q qa")}, ["tm", "run", "m.tm"]),
        input_error({"m.tm": SCANNER}, ["tm", "run", "m.tm", "--input", "0 _"]),
        input_error({"m.tm": SCANNER}, ["tm", "periodicity", "m.tm", "--input", "0 x"]),
        input_error({"s.rle": "x = 5, y = 1\n3o2!"}, ["life", "run", "s.rle"]),
        input_error({"s.rle": "x = 5, y = 1\n3o2!"}, ENCODE),
        input_error({"s.rle": BLINKER_RLE}, [*ENCODE, "--translate", "-1", "0"]),
        input_error({"p.pt": "0:1 0:2"}, [*POINT, "gol"]),
        input_error({"m.map": BAD_MAP}, [*POINT, "m.map"]),
        input_error({"m.map": DUP_MAP}, [*POINT, "m.map"]),
        input_error({"m.map": DUP_MAP}, [*POINT, "gol", "--map", "m.map"]),
        input_error({"s.rle": BLINKER_RLE, "m.map": BAD_MAP},
                    ["orbit", "check", "--encode", "s.rle", "--map", "m.map"]),
        input_error({"s.rle": BLINKER_RLE}, ["life", "step", "s.rle", "--out", "."]),
        input_error({"s.rle": BLINKER_RLE},
                    ["life", "run", "s.rle", "--steps", "2", "--trace", "--out", "."]),
        # a second '-' would read stdin empty and run the identity map
        input_error({}, ["orbit", "check", "--point", "-", "--map", "-"]),
        input_error({"-": BLINKER_RLE},
                    ["orbit", "check", "--encode", "-", "--map", "gol", "--map", "-"]),
        input_error({"m.map": "0: x0\n"}, [*POINT, "-", "--map", "m.map", "--map", "-"]),
        # started with stdin closed, so sys.stdin is None
        input_error({"-": None}, ["life", "step", "-"]),
        input_error({"p.pt": f"0:{TOO_LONG}"}, [*POINT, "gol"], marks=needs_digit_limit),
        input_error({"p.pt": f"{TOO_LONG}:1"}, [*POINT, "gol"], marks=needs_digit_limit),
        input_error({"m.map": f"0: {TOO_LONG}*x0\n"}, [*POINT, "m.map"], marks=needs_digit_limit),
        input_error({"m.map": f"{TOO_LONG}: x0\n"}, [*POINT, "m.map"], marks=needs_digit_limit),
        input_error({"m.map": f"0: x0^{TOO_LONG}\n"}, [*POINT, "m.map"], marks=needs_digit_limit),
        input_error({"m.map": f"0: x{TOO_LONG}\n"}, [*POINT, "m.map"], marks=needs_digit_limit),
        input_error({"s.rle": f"x = {TOO_LONG}, y = 1\no!"}, ["life", "run", "s.rle"],
                    marks=needs_digit_limit),
        input_error({}, ["life", "run", "/nonexistent.rle"]),
        input_error({"s.rle": "x = 1, y = 1\n3q!"}, ["life", "run", "s.rle"], "unknown symbol"),
        input_error({"m.map": "0: ²*x0\n"}, [*POINT, "m.map"]),
        input_error({"s.rle": "x = 1, y = 1\n²o!"}, ["life", "run", "s.rle"]),
        input_error({"m.tm": b"\xff\xfe"}, ["tm", "run", "m.tm"]),
        input_error({"-": b"\xff"}, ["life", "step", "-"]),
        input_error({}, [*POINT, "gol", "--translate", "1", "1"],
                    "error: --translate only applies to --encode"),
    ],
    ids=["blank-not-in-tape", "input-not-in-tape", "move-X", "two-start-states",
         "run-word-with-blank", "periodicity-word-with-x", "rle-count-before-end",
         "encode-rle-count-before-end", "encode-off-quadrant", "duplicate-point-index",
         "map-dangling-minus", "map-duplicate-coordinate", "second-map-duplicate-coordinate",
         "encode-then-bad-map", "life-step-out-is-a-directory", "life-run-out-is-a-directory",
         "stdin-as-point-and-map", "stdin-as-pattern-and-map", "stdin-as-two-maps",
         "stdin-closed", "point-value-past-digit-limit", "point-index-past-digit-limit",
         "map-coefficient-past-digit-limit", "map-coordinate-past-digit-limit",
         "poly-exponent-past-digit-limit", "poly-variable-past-digit-limit",
         "rle-header-past-digit-limit", "missing-file", "rle-unknown-symbol",
         "map-non-ascii-digit", "rle-non-ascii-digit", "non-utf8-file", "non-utf8-stdin",
         "translate-with-point"],
)
def test_input_error_prints_nothing_on_stdout(files, args, message, tmp_path, monkeypatch, capsys):
    write_inputs(files, tmp_path, monkeypatch)
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in err
    # each reader names the input, not the interpreter setting that int() names
    assert "set_int_max_str_digits" not in err


@needs_digit_limit
@pytest.mark.parametrize(
    "read, text, error, where",
    [
        (life.parse_rle, f"x = {TOO_LONG}, y = 1\no!", life.RleParseError, r"\(line 1, column 1\)"),
        (dynamics.parse_point, f"3:{TOO_LONG}", dynamics.PointParseError, "in token '3:1111"),
        (cli.parse_poly, f"x0 + x{TOO_LONG}", PolyParseError, "in term 'x1111"),
        (parse_component_map, f"0: x0\n{TOO_LONG}: x0\n", CliInputError, "on line 2 "),
    ],
    ids=["rle-header", "point-value", "poly-variable", "map-coordinate"],
)
def test_numeral_past_the_digit_limit_is_the_readers_own_error(read, text, error, where):
    with pytest.raises(error, match=where) as exc:
        read(text)
    assert "too many digits" in str(exc.value)


def usage_error(args, message=": ", marks=()):
    """A row of the usage-error table: stderr names the last option in ``args``, then
    ``message``."""
    return pytest.param(args, message, marks=marks)


# each run's work dir holds m.tm (a right mover), s.rle (a blinker) and p.pt
@pytest.mark.parametrize(
    "args, message",
    [
        usage_error(["tm", "periodicity", "m.tm", "--budget", "-1"]),
        usage_error(["tm", "run", "m.tm", "--budget", "-1"]),
        usage_error([*ENCODE, "--max-steps", "0"]),
        usage_error([*ENCODE, "--closure", "--max-depth", "0"]),
        usage_error([*ENCODE, "--closure", "--max-points", "0"]),
        usage_error(["life", "run", "s.rle", "--steps", "-1"]),
        usage_error(["verify", "--trials", "-1"]),
        usage_error(["verify", "--trials", "1_0"]),
        usage_error(["tm", "run", "m.tm", "--budget", "٣"]),
        usage_error(["life", "run", "s.rle", "--steps", "+2"]),
        usage_error([*ENCODE, "--translate", "+1", "1"]),
        usage_error([*ENCODE, "--translate", "1", "٢"]),
        usage_error(["verify", "--size", "0"]),
        usage_error(["verify", "--size", "-2"]),
        usage_error(["verify", "--density", "nan"]),
        usage_error(["verify", "--density", "inf"]),
        usage_error(["verify", "--density", "-0.1"]),
        usage_error(["verify", "--density", "1.5"]),
        usage_error(["verify", "--density", "dense"]),
        usage_error(["verify", "--size", "+4"]),
        usage_error(["verify", "--seed", "٧"]),
        usage_error(["verify", "--seed", "1_0"]),
        # random.Random(-5) draws the soups of seed 5, so a negative seed would be a
        # rerun that its report line misnames
        usage_error(["verify", "--seed", "-5"], ": must be an integer >= 0, got -5"),
        usage_error(["verify", "--density", "٠.٣"]),
        usage_error(["verify", "--density", "0.3_0"]),
        usage_error(["verify", "--size", "317"]),
        usage_error([*POINT, "gol", "--max-steps", TOO_LONG], ": invalid int value: '1111",
                    marks=needs_digit_limit),
        usage_error(["verify", "--seed", TOO_LONG], ": invalid int value: '1111",
                    marks=needs_digit_limit),
    ],
    ids=["periodicity-budget-negative", "run-budget-negative", "max-steps-zero",
         "max-depth-zero", "max-points-zero", "steps-negative", "trials-negative",
         "trials-underscore", "budget-non-ascii-digit", "steps-plus-sign", "translate-plus-sign",
         "translate-non-ascii-digit", "size-zero", "size-negative", "density-nan",
         "density-inf", "density-negative", "density-above-one", "density-not-a-number",
         "size-plus-sign", "seed-non-ascii-digit", "seed-underscore", "seed-negative",
         "density-non-ascii-digits", "density-underscore", "size-past-cap",
         "max-steps-past-digit-limit", "seed-past-digit-limit"],
)
def test_usage_error_prints_nothing_on_stdout(args, message, tmp_path, monkeypatch, capsys):
    write_inputs({"m.tm": RIGHT_MOVER, "s.rle": BLINKER_RLE}, tmp_path, monkeypatch)
    option = [a for a in args if a.startswith("--")][-1]
    with pytest.raises(SystemExit) as exc:
        main(args)
    out, err = capsys.readouterr()
    assert exc.value.code == 1
    assert out == ""
    assert f"error: argument {option}{message}" in err
    assert "set_int_max_str_digits" not in err
