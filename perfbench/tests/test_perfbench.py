"""Tests of the benchmark itself: oracles, statistics, determinism, contract.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import workloads
from orbitkit import cli, cycles, dynamics, life, lifepoly, orbit, turing

ROOT = Path(__file__).resolve().parents[2]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    assert bench.tail(samples) == (90, 90.0, 10)
    value, percentile, beyond = bench.tail(list(range(1, 12)))
    assert (value, beyond) == (1, 10) and percentile == pytest.approx(100 / 11)


def test_tail_falls_back_to_the_maximum_with_ten_samples_or_fewer():
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert bench.tail(list(range(10))) == (9, 100.0, 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    first, again, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, again, other):
        d.mkdir()
    ops = workloads.build(workload, 7, first)
    assert workloads.build(workload, 7, again) == ops
    assert workloads.build(workload, 8, other) != ops
    assert sorted(p.name for p in first.iterdir()) == sorted(p.name for p in again.iterdir())
    for path in first.iterdir():
        assert path.read_bytes() == (again / path.name).read_bytes()


def test_check_reports_wrong_verdicts_and_exit_codes():
    op = workloads.Op("x", (), ("verdict=stable orbit_size=2 preperiod=0 period=2",), 1)
    good = b"command=orbit check\nverdict=stable orbit_size=2 preperiod=0 period=2\n"
    assert workloads.check(op, 0, good) == ""
    assert "missing" in workloads.check(op, 0, good.replace(b"size=2", b"size=3"))
    assert workloads.check(op, 2, good) == "exit code 2"


def _machine(rules):
    return {(q, s): rule for q, s, rule in rules}


@pytest.mark.parametrize("trans, word, shape", [
    (workloads.RIGHT_WRITER, "", ("open", 2000 * 2001 // 2)),
    # bounce between cells 0 and 1 on a blank tape
    (_machine([("q0", s, ("q1", s, "R")) for s in "01_"]
              + [("q1", s, ("q0", s, "L")) for s in "01_"]), "", ("cycling", 0, 2)),
    # erase cell 0 while pinned there by the left clamp
    (_machine([("q0", s, ("q0", "_", "L")) for s in "01_"]), "1", ("cycling", 1, 1)),
    (_machine([("q0", "0", ("q0", "0", "R")), ("q0", "1", ("q0", "1", "R")),
               ("q0", "_", ("qa", "_", "R"))]), "0110", ("halting", 5)),
])
def test_tm_reference_on_hand_checked_machines(trans, word, shape):
    assert workloads.tm_reference(trans, word, 2000) == shape


def test_tm_oracle_agrees_with_both_detectors(tmp_path):
    ops = workloads.build("tm-periodicity", 3, tmp_path)
    for op in ops:
        m = turing.parse_tm((tmp_path / op.argv[2]).read_text())
        start = turing.initial_config(m, turing.parse_word(op.argv[4], m))
        detect = cycles.detect_brent if op.argv[-1] == "brent" else cycles.detect_hashset
        verdict = detect(turing.step_fn(m), start, workloads.TM_BUDGET)
        assert cycles.report_line(verdict) == op.expected[-1], op.name


def test_soup_oracle_agrees_with_the_polynomial_map(tmp_path):
    ops = workloads.build("orbit-soups", 3, tmp_path)
    gol = lifepoly.build_gol_map()
    for op in ops:
        config = life.parse_rle((tmp_path / op.name).read_text())
        config = life.translate(config, workloads.ORBIT_OFFSET, workloads.ORBIT_OFFSET)
        assert lifepoly.quadrant_safe(config)
        verdict = orbit.is_stable_singleton(gol, lifepoly.encode(config), workloads.ORBIT_BUDGET)
        assert orbit.report_line(verdict) == op.expected[-1], op.name


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hyperoctahedral_orbit_has_closed_form_size(n):
    point, maps, size = workloads.hyperoctahedral_inputs(random.Random(n), n)
    assert size == 2 ** n * math.factorial(n)
    gens = [cli.parse_component_map(text) for text in maps.values()]
    orbit_points = orbit.enumerate_orbit(gens, dynamics.parse_point(point), 10 ** 5, 10 ** 4)
    assert len(orbit_points) == size


def test_verify_oracle_rejects_a_corrupted_rule(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "VERIFY_TRIALS", 50)
    (op,) = workloads.build("soup-verify", 1, tmp_path)
    code = cli.main(list(op.argv))
    assert workloads.check(op, code, capsys.readouterr().out.encode()) == ""
    code = cli.main([*op.argv, "--corrupt"])
    assert workloads.check(op, code, capsys.readouterr().out.encode()) != ""


def test_spawn_times_out_a_hung_child(tmp_path):
    code, elapsed, _ = bench.spawn([sys.executable, "-c", "import time; time.sleep(30)"],
                                   tmp_path, None, 0.3, tmp_path / "o", tmp_path / "e")
    assert code is None and elapsed < 10


def test_passes_repeat_stdout_bytes_and_tracing_keeps_them(tmp_path):
    ops = [op for op in workloads.build("poly-closure", 5, tmp_path) if not op.name.startswith("b6")]
    runner = bench.Bench(ROOT, tmp_path, "poly-closure", 5)
    plain = runner.plain_passes(ops, 2)
    first = dict(runner.stdout)
    traced = [runner.run_pass(ops, traced=True)]
    assert (runner.attempted, runner.failed) == (3 * len(ops), 0)
    assert runner.stdout == first
    for op in ops:
        assert (tmp_path / f"{op.name}.out").read_bytes() == first[op.name]
    metrics = bench.per_layer(plain, traced)
    assert metrics["dynamics.component_apply.calls"]["value"] > 0
    assert metrics["orbit.orbit_closure.points_visited"]["value"] == sum(op.items for op in ops)
    assert metrics["turing.tm_step.calls"]["value"] == 0


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    reported = [(name, unit) for name, unit, _ in bench.PER_LAYER] + [bench.TRACE_OVERHEAD]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == reported
    assert set(bench.NOMINAL_PASS_S) == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "soup-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "correct" not in result.stdout
