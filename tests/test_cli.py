import hashlib
import importlib
import io
import os
import pkgutil
import re
import subprocess
import sys
import time
import typing
from pathlib import Path

import pytest

import orbitkit
from orbitkit import life, lifepoly
from orbitkit.cli import CliInputError, main, parse_component_map
from orbitkit.dynamics import FiniteComponentMap, SparsePoint
from orbitkit.polymap import Polynomial, variable

from helpers import BLINKER_RLE, BLOCK_RLE, EMPTY_RLE, GLIDER, GLIDER_RLE, TOAD_RLE, count_calls
from test_turing import ACCEPT_ON_START, RIGHT_MOVER, STAY_LEFT_LOOPER, WRITER


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def text_stdin(text):
    # like sys.stdin: a text stream with the bytes under it in .buffer
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")


def body(out):
    # report lines only (wall time goes to stderr already)
    return [line for line in out.splitlines() if line]


@pytest.fixture
def blinker_file(tmp_path):
    p = tmp_path / "blinker.rle"
    p.write_text(BLINKER_RLE)
    return str(p)


def test_life_run_blinker_two_steps_round_trips(blinker_file, capsys):
    code, out, _ = run_cli(["life", "run", blinker_file, "--steps", "2"], capsys)
    assert code == 0
    assert "command=life run" in out
    assert "sha256=" in out
    assert "steps=2 population=3" in out
    assert out.rstrip().endswith(BLINKER_RLE)


def test_life_run_empty_pattern(tmp_path, capsys):
    p = tmp_path / "empty.rle"
    p.write_text(EMPTY_RLE)
    code, out, _ = run_cli(["life", "run", str(p), "--steps", "100"], capsys)
    assert code == 0
    assert "population=0" in out and "bbox=empty" in out
    assert out.rstrip().endswith(EMPTY_RLE)


def test_life_step_glider_four_times_translates(tmp_path, capsys):
    src = tmp_path / "glider.rle"
    src.write_text(GLIDER_RLE)
    current = str(src)
    for i in range(4):
        nxt = str(tmp_path / f"g{i}.rle")
        code, _, _ = run_cli(["life", "step", current, "--out", nxt], capsys)
        assert code == 0
        current = nxt
    # RLE carries no absolute position, so chained files show the shape only
    evolved = life.parse_rle((tmp_path / "g3.rle").read_text())
    moved = GLIDER
    for _ in range(4):
        moved = life.step(moved)
    assert moved == life.translate(GLIDER, 1, 1)
    assert evolved == GLIDER
    # one four-step invocation keeps coordinates, so its report shows the shift
    code, out, _ = run_cli(["life", "run", str(src), "--steps", "4"], capsys)
    assert code == 0
    assert "bbox=1,1,3,3" in out


# sha256 of the whole stdout of a run that writes its RLE to --out
@pytest.mark.parametrize(
    "args, digest",
    [
        (["step"], "0eccd5392302e0f2958fd2b91e2e3726ffaf13bef8d0f54f3dc4db846dea2c83"),
        (["run", "--steps", "3", "--trace", "--grid"],
         "d48879297a0591f3e90bf813d735eef874bb71d3e486d777d51eb6a29fdbf44e"),
    ],
)
def test_life_out_stdout_bytes_are_pinned(args, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.rle").write_text(BLINKER_RLE)
    code, out, _ = run_cli(["life", args[0], "s.rle", *args[1:], "--out", "out.rle"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert (tmp_path / "out.rle").read_text() == "x = 1, y = 3\no$o$o!\n"


def test_life_trace_and_grid(blinker_file, capsys):
    code, out, _ = run_cli(
        ["life", "run", blinker_file, "--steps", "2", "--trace", "--grid"], capsys
    )
    assert code == 0
    assert "step=1 population=3 bbox=1,-1,1,1" in out
    assert "step=2 population=3 bbox=0,0,2,0" in out
    assert "origin=0,0" in out
    assert "###" in out


def test_life_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", text_stdin(BLINKER_RLE))
    code, out, _ = run_cli(["life", "run", "-", "--steps", "0"], capsys)
    assert code == 0
    assert "input=<stdin>" in out


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


def test_tm_run_accept_on_start(tmp_path, capsys):
    p = tmp_path / "m.tm"
    p.write_text(ACCEPT_ON_START)
    code, out, _ = run_cli(["tm", "run", str(p)], capsys)
    assert code == 0
    assert "step=0 state=qa head=0 tape=_" in out
    assert "result=halted verdict=accept steps=0" in out


def test_tm_run_prints_every_tape_cell_up_to_head_and_last_symbol(tmp_path, capsys):
    writer = tmp_path / "writer.tm"
    writer.write_text(WRITER)
    code, out, _ = run_cli(["tm", "run", str(writer), "--input", "00"], capsys)
    assert code == 0
    assert body(out)[2:] == [
        "step=0 state=q head=0 tape=0,0",
        "step=1 state=p head=0 tape=1,0",
        "step=2 state=qa head=1 tape=1,0",
        "result=halted verdict=accept steps=2",
    ]
    mover = tmp_path / "mover.tm"
    mover.write_text(RIGHT_MOVER)
    code, out, _ = run_cli(["tm", "run", str(mover), "--input", "0", "--budget", "2"], capsys)
    assert code == 0
    assert body(out)[2:] == [
        "step=0 state=q head=0 tape=0",
        "step=1 state=q head=1 tape=0,_",
        "step=2 state=q head=2 tape=0,_,_",
        "result=truncated steps=2",
    ]


def test_tm_periodicity_looper(tmp_path, capsys):
    p = tmp_path / "looper.tm"
    p.write_text(STAY_LEFT_LOOPER)
    code, out, _ = run_cli(["tm", "periodicity", str(p), "--budget", "100"], capsys)
    assert code == 0
    assert "verdict=periodic preperiod=0 period=1" in out


def test_tm_periodicity_right_mover_exhausts(tmp_path, capsys):
    p = tmp_path / "mover.tm"
    p.write_text(RIGHT_MOVER)
    for algorithm in ("hashset", "brent"):
        code, out, _ = run_cli(
            ["tm", "periodicity", str(p), "--budget", "10000", "--algorithm", algorithm],
            capsys,
        )
        assert code == 0
        assert "verdict=exhausted budget=10000" in out


def test_tm_periodicity_accept_on_start_terminates(tmp_path, capsys):
    p = tmp_path / "m.tm"
    p.write_text(ACCEPT_ON_START)
    code, out, _ = run_cli(["tm", "periodicity", str(p)], capsys)
    assert code == 0
    assert "verdict=terminated steps=0" in out
    code, out, _ = run_cli(
        ["tm", "periodicity", str(p), "--halt-as-fixed-point"], capsys
    )
    assert code == 0
    assert "verdict=periodic preperiod=0 period=1" in out


def test_orbit_check_block_still_life(tmp_path, capsys):
    p = tmp_path / "block.rle"
    p.write_text(BLOCK_RLE)
    code, out, _ = run_cli(
        ["orbit", "check", "--encode", str(p), "--map", "gol", "--translate", "2", "2"],
        capsys,
    )
    assert code == 0
    assert "quadrant_safe=true" in out
    assert "verdict=stable orbit_size=1 preperiod=0 period=1" in out


def test_orbit_check_blinker_and_toad_period_two(tmp_path, capsys):
    for name, rle in (("blinker", BLINKER_RLE), ("toad", TOAD_RLE)):
        p = tmp_path / f"{name}.rle"
        p.write_text(rle)
        code, out, _ = run_cli(
            ["orbit", "check", "--encode", str(p), "--map", "gol", "--translate", "2", "2"],
            capsys,
        )
        assert code == 0
        assert "verdict=stable orbit_size=2 preperiod=0 period=2" in out


def test_orbit_check_glider_unknown(tmp_path, capsys):
    p = tmp_path / "glider.rle"
    p.write_text(GLIDER_RLE)
    code, out, _ = run_cli(
        [
            "orbit", "check", "--encode", str(p), "--map", "gol",
            "--translate", "10", "10", "--max-steps", "1000",
        ],
        capsys,
    )
    assert code == 0  # Unknown is an honest verdict, not an error
    assert "verdict=unknown points=1001 limit=budget" in out


def test_orbit_check_component_map_file(tmp_path, capsys):
    flip = tmp_path / "flip.map"
    flip.write_text("# sign flip on coordinate 0\n0: -1*x0\n")
    point = tmp_path / "p.pt"
    point.write_text("0:5")
    code, out, _ = run_cli(
        ["orbit", "check", "--point", str(point), "--map", str(flip)], capsys
    )
    assert code == 0
    assert "verdict=stable orbit_size=2 preperiod=0 period=2" in out

    code, out, _ = run_cli(
        [
            "orbit", "check", "--point", str(point),
            "--map", str(flip), "--map", str(flip), "--closure",
        ],
        capsys,
    )
    assert code == 0
    assert "verdict=stable orbit_size=2" in out


def test_parse_component_map_helper():
    m = parse_component_map("0: 1*x0^2\n3: 1*x1 + -2\n")
    assert m.components[0] == variable(0) ** 2
    assert m.apply(SparsePoint({0: 3})) == SparsePoint({0: 9, 3: -2})
    with pytest.raises(Exception):
        parse_component_map("0 1*x0")


# int() also takes a sign, digit-group underscores and other scripts' digits
@pytest.mark.parametrize("coordinate", ["+3", "1_0", "٣", "-1", ""])
def test_parse_component_map_takes_ascii_natural_coordinates_only(coordinate):
    with pytest.raises(CliInputError, match="is not a natural number"):
        parse_component_map(f"{coordinate}: x0\n")


def test_verify_passes_and_is_deterministic(capsys):
    args = ["verify", "--trials", "40", "--size", "12", "--seed", "7"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    assert "failures=0 passes=40" in out1
    assert "seed=7" in out1
    code, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_verify_zero_trials_vacuous_pass(capsys):
    code, out, _ = run_cli(["verify", "--trials", "0"], capsys)
    assert code == 0
    assert "failures=0 passes=0" in out


def test_verify_corrupt_rule_fails(capsys):
    code, out, _ = run_cli(["verify", "--trials", "20", "--corrupt", "--seed", "7"], capsys)
    assert code == 2
    assert "failures=0" not in out


@pytest.mark.parametrize("corrupt", [[], ["--corrupt"]], ids=["life", "corrupt"])
def test_verify_compares_points_without_decoding(corrupt, monkeypatch, capsys):
    calls = count_calls(monkeypatch, lifepoly, "decode")
    code, out, _ = run_cli(["verify", "--trials", "20", "--seed", "7", *corrupt], capsys)
    assert calls == []
    assert code == (2 if corrupt else 0)
    assert ("failures=0 passes=20" in out) == (not corrupt)


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    machine = tmp_path / "bin.tm"
    machine.write_bytes(b"\xff\xfe")
    code, _, err = run_cli(["tm", "run", str(machine)], capsys)
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err


def test_non_utf8_stdin_is_input_error(monkeypatch, capsys):
    # under a C/POSIX locale the interpreter's stdin text layer uses surrogateescape;
    # the CLI reads the bytes beneath it and decodes them strictly
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    code, _, err = run_cli(["life", "step", "-"], capsys)
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_digest_line_is_the_sha256_of_the_raw_bytes(source, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    reports = []
    for raw in (b"12:1\r\n17:1\r\n23:1\r\n", b"12:1\n17:1\n23:1\n"):
        (tmp_path / "p.pt").write_bytes(raw)
        monkeypatch.setattr("sys.stdin", text_stdin(raw.decode()))
        arg = "p.pt" if source == "file" else "-"
        code, out, _ = run_cli(["orbit", "check", "--point", arg, "--map", "gol"], capsys)
        assert code == 0
        name = "p.pt" if source == "file" else "<stdin>"
        assert body(out)[1] == f"input={name} sha256={hashlib.sha256(raw).hexdigest()}"
        reports.append(body(out)[2:])
    # CRLF changes the digest, not the parse
    assert reports[0] == reports[1]
    assert "verdict=stable orbit_size=2 preperiod=0 period=2" in reports[0]


def test_input_is_decoded_as_utf8_under_the_c_locale(tmp_path):
    (tmp_path / "p.pt").write_text("0:5\n")
    raw = "# café\n0: -1*x0\n".encode()
    (tmp_path / "flip.map").write_bytes(raw)
    env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C",
           "PYTHONPATH": str(Path(orbitkit.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "orbitkit", "orbit", "check", "--point", "p.pt", "--map", "flip.map"],
        cwd=tmp_path, env=env, capture_output=True,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.decode("ascii").splitlines()
    assert f"input=flip.map sha256={hashlib.sha256(raw).hexdigest()}" in lines
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


def readme_example(title, nth=0):
    """The nth unlabelled fenced block after the bold ``title`` in the README."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rest = text[text.index(f"**{title}**"):]
    return re.findall(r"^```\n(.*?)^```", rest, re.M | re.S)[nth]


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
    (tmp_path / "machine.tm").write_text(readme_example("Turing machines"))
    (tmp_path / "flip.map").write_text(readme_example("Component maps"))
    (tmp_path / "swap.map").write_text(readme_example("Component maps", 1))
    (tmp_path / "start.pt").write_text("0:5\n")
    (tmp_path / "pair.pt").write_text("0:5 1:7\n")
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
              "'dataclasses' in sys.modules); sys.exit(code)")
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
        assert loaded[:-1] == sorted(f"orbitkit.{m}" for m in ["cli", *modules])
        assert loaded[-1] == "False"


def test_no_module_imports_dataclasses():
    imports = re.compile(r"^\s*(from|import)\s+dataclasses\b", re.M)
    for path in Path(orbitkit.__file__).parent.glob("*.py"):
        assert not imports.search(path.read_text(encoding="utf-8")), path.name


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(["life", "run", "/nonexistent.rle"], capsys)
    assert code == 1
    assert "error:" in err


def test_bad_rle_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.rle"
    p.write_text("x = 1, y = 1\n3q!")
    code, _, err = run_cli(["life", "run", str(p)], capsys)
    assert code == 1
    assert "unknown symbol" in err


# a run count is bounded by the header's box, so a short pattern cannot ask for a
# million cells
@pytest.mark.parametrize("rle", ["x = 1, y = 1\n1000000o!", "x = 3, y = 1\n3o1000000$o!"],
                         ids=["column", "row"])
@pytest.mark.parametrize("args", [["life", "run", "s.rle"],
                                  ["orbit", "check", "--encode", "s.rle", "--map", "gol"]],
                         ids=["life-run", "orbit-encode"])
def test_live_cell_outside_the_declared_box_is_input_error(rle, args, tmp_path, monkeypatch,
                                                           capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.rle").write_text(rle)
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
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.rle").write_text("x = 1000000, y = 1\n1000000o!\n")
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
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.rle").write_text(SPARSE_CORNERS_RLE)
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


# "²" is a digit to str.isdigit but not to int(), which used to raise a bare ValueError
@pytest.mark.parametrize(
    "name, text, args",
    [
        ("m.map", "0: ²*x0\n", ["orbit", "check", "--point", "p.pt", "--map", "m.map"]),
        ("s.rle", "x = 1, y = 1\n²o!", ["life", "run", "s.rle"]),
    ],
    ids=["map", "rle"],
)
def test_non_ascii_digit_is_input_error(name, text, args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.pt").write_text("0:1\n")
    (tmp_path / name).write_text(text)
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert "error:" in err and "Traceback" not in err


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


def test_walltime_goes_to_stderr(blinker_file, capsys):
    _, out, err = run_cli(["life", "run", blinker_file], capsys)
    assert "walltime_ms=" in err
    assert "walltime_ms=" not in out


@pytest.mark.parametrize(
    "args",
    [
        ["tm", "periodicity", "{tm}", "--budget", "-1"],
        ["tm", "run", "{tm}", "--budget", "-1"],
        ["orbit", "check", "--encode", "{rle}", "--map", "gol", "--max-steps", "0"],
        ["orbit", "check", "--encode", "{rle}", "--map", "gol", "--closure", "--max-depth", "0"],
        ["orbit", "check", "--encode", "{rle}", "--map", "gol", "--closure", "--max-points", "0"],
        ["life", "run", "{rle}", "--steps", "-1"],
        ["verify", "--trials", "-1"],
        ["verify", "--trials", "1_0"],
        ["tm", "run", "{tm}", "--budget", "٣"],
        ["life", "run", "{rle}", "--steps", "+2"],
        ["orbit", "check", "--encode", "{rle}", "--map", "gol", "--translate", "+1", "1"],
        ["orbit", "check", "--encode", "{rle}", "--map", "gol", "--translate", "1", "٢"],
    ],
)
def test_out_of_range_budget_is_usage_error(args, tmp_path, blinker_file, capsys):
    machine = tmp_path / "mover.tm"
    machine.write_text(RIGHT_MOVER)
    argv = [a.format(tm=machine, rle=blinker_file) for a in args]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 1
    assert out == ""
    assert "error: argument --" in err


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--size", "0"],
        ["verify", "--size", "-2"],
        ["verify", "--density", "nan"],
        ["verify", "--density", "inf"],
        ["verify", "--density", "-0.1"],
        ["verify", "--density", "1.5"],
        ["verify", "--density", "dense"],
        ["verify", "--size", "+4"],
        ["verify", "--seed", "٧"],
        ["verify", "--seed", "1_0"],
        ["verify", "--density", "٠.٣"],
        ["verify", "--density", "0.3_0"],
        ["verify", "--size", "317"],
    ],
)
def test_out_of_range_verify_argument_is_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    out, err = capsys.readouterr()
    assert exc.value.code == 1
    assert out == ""
    assert f"error: argument {args[1]}: " in err


def test_verify_accepts_the_range_ends(capsys):
    for args in (["--size", "1", "--density", "0"], ["--size", "1", "--density", "1"]):
        code, out, _ = run_cli(["verify", "--trials", "3", *args], capsys)
        assert code == 0
        assert "failures=0 passes=3" in out
    # the largest soup whose box stays within life.MAX_RLE_CELLS
    code, out, _ = run_cli(["verify", "--trials", "1", "--size", "316"], capsys)
    assert code == 0
    assert "failures=0 passes=1" in out


def test_negative_seed_and_translate_are_read(tmp_path, capsys):
    code, out, _ = run_cli(["verify", "--trials", "2", "--seed", "-5"], capsys)
    assert code == 0
    assert "seed=-5" in out
    p = tmp_path / "shifted.rle"
    p.write_text("x = 5, y = 1\n2b3o!")  # a blinker on columns 2-4
    code, out, _ = run_cli(
        ["orbit", "check", "--encode", str(p), "--map", "gol", "--translate", "-1", "2"], capsys
    )
    assert code == 0
    assert "quadrant_safe=true" in out
    assert "verdict=stable orbit_size=2 preperiod=0 period=2" in out


# sha256 of the whole stdout; the rule text and report lines are a fixed contract
@pytest.mark.parametrize(
    "args, digest",
    [
        ([], "5dfd1df712804a0ce9039e3456dc002e01e7ccd11227db110e296527b73e495d"),
        (["--expanded"], "27de82d80a7fe5193522d41f7789c2d892444d2cb9a5339b8d6ac58f7a447dbf"),
    ],
)
def test_poly_rule_stdout_bytes_are_pinned(args, digest, capsys):
    code, out, _ = run_cli(["poly-rule", *args], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the orbit runs take the generic path: each point holds a 2, so apply evaluates the rule
# polynomial; --max-steps stays small because value bit-lengths can triple every step
@pytest.mark.parametrize(
    "args, stdin, exit_code, digest",
    [
        (["verify", "--trials", "50", "--corrupt", "--seed", "7"], None, 2,
         "3e318392089396895bb3d7f59ae56fa3d33929acc15cbc0ca394d721f038f682"),
        (["orbit", "check", "--point", "-", "--map", "gol", "--max-steps", "3"], "12:1 17:2 23:1",
         0, "3a8e513adb9e9d8a7bde17d14978c26ec180f352c021adf2a1ba8f8920731a16"),
        (["orbit", "check", "--point", "-", "--map", "gol", "--max-steps", "3"], "12:2 13:1 24:1",
         0, "1b2237c4b7cf15eb74da2cf0959de30409520edb6c1ecff84eb84348106ed89a"),
    ],
)
def test_stdout_bytes_and_exit_code_are_pinned(args, stdin, exit_code, digest, monkeypatch, capsys):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", text_stdin(stdin))
    code, out, _ = run_cli(args, capsys)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_translate_with_point_is_input_error_before_any_output(tmp_path, capsys):
    p = tmp_path / "p.pt"
    p.write_text("0:1")
    code, out, err = run_cli(
        ["orbit", "check", "--point", str(p), "--map", "gol", "--translate", "1", "1"], capsys
    )
    assert code == 1
    assert out == ""
    assert "error: --translate only applies to --encode" in err


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


# the scanner accepts "000" after 4 steps and rejects "001" after 3; budget 2 truncates
# its "000" run, and --halt-as-fixed-point relabels the 4-step halt as a period-1 cycle
@pytest.mark.parametrize(
    "args, digest",
    [
        (["run", "-", "--input", "000"],
         "53cf075250ae8652e95dd98abdf367e6adee6e9acde96da69c5d42f5b3563524"),
        (["run", "-", "--input", "001"],
         "397b6365a2362a2f2849f07cd87e68031485dc9322b3e433e5deac74c2369e0a"),
        (["run", "-", "--input", "000", "--budget", "2"],
         "bc2ff3d27a305184e11fa92c5de685032fd143500d4f0e506cedc23244ec5bb8"),
        (["periodicity", "-", "--input", "000", "--algorithm", "hashset"],
         "19a2f6ce1e51ea28e0b83112ba093e2159093db17ee3a3637cae6472d5ae1288"),
        (["periodicity", "-", "--input", "000", "--algorithm", "hashset", "--halt-as-fixed-point"],
         "c0b83aef527554cb9c9a7ac36e31bb2caef96fd5e3f058bef14fbbeb55eb6082"),
        (["periodicity", "-", "--input", "000", "--algorithm", "brent"],
         "5f2cd4c5bf6061b27fbb4008f77233aac9da4b8f91b55f21b4f0ed2071b54ce3"),
        (["periodicity", "-", "--input", "000", "--algorithm", "brent", "--halt-as-fixed-point"],
         "e3f3e963487c07ae55b5423820aa3535a71664853b6c3e023bb76323d8b7b61c"),
    ],
)
def test_tm_stdout_bytes_and_exit_code_are_pinned(args, digest, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", text_stdin(SCANNER))
    code, out, _ = run_cli(["tm", *args], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# component-map runs; the B_5 point's moved values have distinct absolute values, some
# above 64 bits, so swap, cycle and flip generate a free orbit of 2^5 * 5! = 3840 points
B5_POINT = (f"0:17 3:{2**70 + 1} 7:-{2**65 + 3} 11:5 20:-9 31:12345678901234567890123"
            f" 40:-{2**80}\n")
B5_MAPS = {
    "swap.map": "3: x7\n7: x3\n",
    "cycle.map": "3: x7\n7: x11\n11: x20\n20: x31\n31: x3\n",
    "flip.map": "3: -1*x3\n",
}


# the singleton map moves x1 to 0 and x2 to 1 and sends 2 to 0, so the coordinates leave
# the support one by one, while coordinate 5, off the support, takes x0 + 1
@pytest.mark.parametrize(
    "files, args, digest",
    [
        ({"b5.pt": B5_POINT, **B5_MAPS},
         ["--point", "b5.pt", "--map", "swap.map", "--map", "cycle.map", "--map", "flip.map"],
         "e0e798e42354ee193ae1108b8ed4c4e10584d36d4ac1998d2bbc69c3df4e2380"),
        ({"u.pt": f"4:{2**70 + 5} 9:-{2**66 + 1}\n", "u.map": "4: x4 + x9^2\n"},
         ["--point", "u.pt", "--map", "u.map", "--closure", "--max-points", "200"],
         "2accb478a3431c3edf8ff4002ea8080b3dbeac61644f9bb995b0e0db74fd9332"),
        ({"s.pt": "0:3 1:5 2:-7\n", "s.map": "0: x1\n1: x2\n2: 0\n5: x0 + 1\n"},
         ["--point", "s.pt", "--map", "s.map"],
         "366e0c4fd0c082399b9fea1188ab46a0bfc1759269cca70182b1de3dc4fac409"),
    ],
)
def test_component_map_stdout_bytes_and_exit_code_are_pinned(
    files, args, digest, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, _ = run_cli(["orbit", "check", *args], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


BAD_MAP = "0: x0 -\n"
DUP_MAP = "0: x1\n0: x0\n"
POINT = ["orbit", "check", "--point", "p.pt", "--map"]
# int() refuses a numeral longer than this with a plain ValueError; 0 means no limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "1" * (DIGIT_LIMIT + 1)


def past_digit_limit(files, args):
    return pytest.param(files, args, marks=pytest.mark.skipif(
        not DIGIT_LIMIT, reason="the interpreter sets no integer digit limit"))


# every input is read and parsed before the first report line, so no error leaves
# partial stdout; the files are written to the work dir, p.pt holding "0:1", except
# "-", which is stdin (by default "0:1" too)
@pytest.mark.parametrize(
    "files, args",
    [
        ({"m.tm": SCANNER.replace("tape: 0 1 _", "tape: 0 1")}, ["tm", "run", "m.tm"]),
        ({"m.tm": SCANNER.replace("input: 0 1", "input: 0 1 2")}, ["tm", "run", "m.tm"]),
        ({"m.tm": SCANNER.replace("qr, 0, L", "qr, 0, X")}, ["tm", "run", "m.tm"]),
        ({"m.tm": SCANNER.replace("start: q", "start: q qa")}, ["tm", "run", "m.tm"]),
        ({"m.tm": SCANNER}, ["tm", "run", "m.tm", "--input", "0 _"]),
        ({"m.tm": SCANNER}, ["tm", "periodicity", "m.tm", "--input", "0 x"]),
        ({"s.rle": "x = 5, y = 1\n3o2!"}, ["life", "run", "s.rle"]),
        ({"s.rle": "x = 5, y = 1\n3o2!"}, ["orbit", "check", "--encode", "s.rle", "--map", "gol"]),
        ({"s.rle": BLINKER_RLE},
         ["orbit", "check", "--encode", "s.rle", "--map", "gol", "--translate", "-1", "0"]),
        ({"p.pt": "0:1 0:2"}, ["orbit", "check", "--point", "p.pt", "--map", "gol"]),
        ({"m.map": BAD_MAP}, [*POINT, "m.map"]),
        ({"m.map": DUP_MAP}, [*POINT, "m.map"]),
        ({"m.map": DUP_MAP}, [*POINT, "gol", "--map", "m.map"]),
        ({"s.rle": BLINKER_RLE, "m.map": BAD_MAP},
         ["orbit", "check", "--encode", "s.rle", "--map", "m.map"]),
        ({"s.rle": BLINKER_RLE}, ["life", "step", "s.rle", "--out", "."]),
        ({"s.rle": BLINKER_RLE}, ["life", "run", "s.rle", "--steps", "2", "--trace", "--out", "."]),
        # a second '-' would read stdin empty and run the identity map
        ({}, ["orbit", "check", "--point", "-", "--map", "-"]),
        ({"-": BLINKER_RLE}, ["orbit", "check", "--encode", "-", "--map", "gol", "--map", "-"]),
        ({"m.map": "0: x0\n"}, [*POINT, "-", "--map", "m.map", "--map", "-"]),
        # started with stdin closed, so sys.stdin is None
        ({"-": None}, ["life", "step", "-"]),
        past_digit_limit({"p.pt": f"0:{TOO_LONG}"}, [*POINT, "gol"]),
        past_digit_limit({"p.pt": f"{TOO_LONG}:1"}, [*POINT, "gol"]),
        past_digit_limit({"m.map": f"0: {TOO_LONG}*x0\n"}, [*POINT, "m.map"]),
        past_digit_limit({"m.map": f"{TOO_LONG}: x0\n"}, [*POINT, "m.map"]),
        past_digit_limit({"m.map": f"0: x0^{TOO_LONG}\n"}, [*POINT, "m.map"]),
        past_digit_limit({"m.map": f"0: x{TOO_LONG}\n"}, [*POINT, "m.map"]),
    ],
    ids=["blank-not-in-tape", "input-not-in-tape", "move-X", "two-start-states",
         "run-word-with-blank", "periodicity-word-with-x", "rle-count-before-end",
         "encode-rle-count-before-end", "encode-off-quadrant", "duplicate-point-index",
         "map-dangling-minus", "map-duplicate-coordinate", "second-map-duplicate-coordinate",
         "encode-then-bad-map", "life-step-out-is-a-directory", "life-run-out-is-a-directory",
         "stdin-as-point-and-map", "stdin-as-pattern-and-map", "stdin-as-two-maps",
         "stdin-closed", "point-value-past-digit-limit", "point-index-past-digit-limit",
         "map-coefficient-past-digit-limit", "map-coordinate-past-digit-limit",
         "poly-exponent-past-digit-limit", "poly-variable-past-digit-limit"],
)
def test_input_error_prints_nothing_on_stdout(files, args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    stdin = files.get("-", "0:1\n")
    monkeypatch.setattr("sys.stdin", None if stdin is None else text_stdin(stdin))
    (tmp_path / "p.pt").write_text("0:1\n")
    for name, text in files.items():
        if name != "-":
            (tmp_path / name).write_text(text)
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert "Traceback" not in err
