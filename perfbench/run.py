"""orbitkit benchmark: time to verdict, memory and correctness of the CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is one closed-loop client: it starts one ``python -m
orbitkit`` child at a time, each in a work directory that holds only the
inputs generated from ``--seed`` (see ``workloads.py``), and checks every
verdict against an oracle.  A pass runs each of the workload's operations
once.

With ``--trace 0`` it makes as many passes as fill ``--seconds`` at the
nominal pass time and reports the end-to-end metrics: medians over the
passes, percentiles over every invocation, and the median of several
fresh set-ups.  With ``--trace 1`` it alternates plain passes with passes
whose children run through ``tracer.py`` until ``--seconds`` have gone by,
and reports the per-layer metrics of the traced passes plus the tracing
overhead (traced minus plain pass time).  The last stdout line is one JSON object; the line
before it records the interpreter, core count, tail percentile and failure
share.  Detailed results and spans go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":
    _SRC = Path.cwd() / "src"
    if not (_SRC / "orbitkit" / "__init__.py").is_file():
        sys.exit(f"error: no orbitkit sources under {_SRC}; run from the root of a checkout")
    sys.path.insert(0, str(_SRC))

import tracer  # noqa: E402  (this file's directory is on sys.path)
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 30.0  # a hung or runaway invocation fails instead of stalling the run
RUN_LIMIT_S = 150.0  # no child starts, and none runs on, past this
SETUP_PROBES = 5
SETUP_CODE = "import orbitkit; from orbitkit import lifepoly; lifepoly.build_gol_map()"
# Seconds one plain pass takes on a 2-core Xeon at 2.1 GHz.  A run makes
# --seconds / NOMINAL_PASS_S passes, so every run of a workload, on any
# commit, has the same sample count and reports the same tail percentile.
NOMINAL_PASS_S = {"soup-verify": 2.9, "orbit-soups": 4.25, "tm-periodicity": 5.9,
                  "poly-closure": 3.8}
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
OUT_DIR = ".perfbench-out"

END_TO_END = (
    ("wall_s", "s"),
    ("verdict_p50_s", "s"),
    ("verdict_tail_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)


def _calls(name):
    return lambda stats, counters: stats.get(name, (0, 0.0, 0.0))[0]


def _total(name):
    return lambda stats, counters: stats.get(name, (0, 0.0, 0.0))[1]


def _self(name):
    return lambda stats, counters: stats.get(name, (0, 0.0, 0.0))[2]


def _counter(name):
    return lambda stats, counters: counters.get(name, 0)


def _ratio(num, den):
    def value(stats, counters):
        d = den(stats, counters)
        return num(stats, counters) / d if d else 0.0

    return value


# (metric, unit, value from summed tracer stats and counters)
PER_LAYER = (
    ("polymap.evaluate.calls", "count", _calls("polymap.evaluate")),
    ("polymap.evaluate.self_s", "s", _self("polymap.evaluate")),
    ("polymap.mul.calls", "count", _calls("polymap.mul")),
    ("polymap.mul.self_s", "s", _self("polymap.mul")),
    ("lifepoly.build_local_rule.calls", "count", _calls("lifepoly.build_local_rule")),
    ("lifepoly.build_local_rule.s", "s", _total("lifepoly.build_local_rule")),
    ("lifepoly.pairing.calls", "count", _calls("lifepoly.pairing")),
    ("lifepoly.pairing.self_s", "s", _self("lifepoly.pairing")),
    ("lifepoly.encode.self_s", "s", _self("lifepoly.encode")),
    ("lifepoly.decode.self_s", "s", _self("lifepoly.decode")),
    ("lifepoly.quadrant_safe.self_s", "s", _self("lifepoly.quadrant_safe")),
    ("dynamics.grid_apply.calls", "count", _calls("dynamics.grid_apply")),
    ("dynamics.grid_apply.self_s", "s", _self("dynamics.grid_apply")),
    ("dynamics.grid_apply.cells_in", "count", _counter("grid_apply.cells_in")),
    ("dynamics.grid_apply.candidates", "count", _counter("grid_apply.candidates")),
    ("dynamics.grid_apply.evaluate_ratio", "ratio",
     _ratio(_counter("grid_apply.evaluate_calls"), _counter("grid_apply.candidates"))),
    ("dynamics.component_apply.calls", "count", _calls("dynamics.component_apply")),
    ("dynamics.component_apply.self_s", "s", _self("dynamics.component_apply")),
    ("dynamics.component_apply.max_bits", "bits", _counter("component_apply.max_bits")),
    ("dynamics.point_hash.calls", "count", _calls("dynamics.point_hash")),
    ("dynamics.point_hash.self_s", "s", _self("dynamics.point_hash")),
    ("dynamics.point_eq.calls", "count", _calls("dynamics.point_eq")),
    ("dynamics.point_eq.self_s", "s", _self("dynamics.point_eq")),
    ("life.step.calls", "count", _calls("life.step")),
    ("life.step.self_s", "s", _self("life.step")),
    ("turing.tm_step.calls", "count", _calls("turing.tm_step")),
    ("turing.tm_step.self_s", "s", _self("turing.tm_step")),
    ("turing.tm_step.us_per_call", "us",
     _ratio(lambda s, c: 1e6 * _self("turing.tm_step")(s, c), _calls("turing.tm_step"))),
    ("turing.tape_cells.max", "cells", _counter("tape_cells.max")),
    ("turing.config_hash.calls", "count", _calls("turing.config_hash")),
    ("turing.config_hash.self_s", "s", _self("turing.config_hash")),
    ("cycles.detect_hashset.self_s", "s", _self("cycles.detect_hashset")),
    ("cycles.detect_hashset.steps", "count", _counter("detect_hashset.steps")),
    ("cycles.detect_hashset.states_stored", "count", _counter("detect_hashset.states_stored")),
    ("cycles.detect_hashset.peak_mib", "MiB", _counter("detect_hashset.peak_mib")),
    ("cycles.detect_brent.self_s", "s", _self("cycles.detect_brent")),
    ("cycles.detect_brent.steps", "count", _counter("detect_brent.steps")),
    ("cycles.detect_brent.step_ratio", "ratio",
     _ratio(_counter("detect_brent.periodic_steps"), _counter("detect_brent.periodic_shape"))),
    ("orbit.is_stable_singleton.self_s", "s", _self("orbit.is_stable_singleton")),
    ("orbit.orbit_closure.self_s", "s", _self("orbit.orbit_closure")),
    ("orbit.orbit_closure.apply_calls", "count", _counter("orbit_closure.apply_calls")),
    ("orbit.orbit_closure.points_visited", "count", _counter("orbit_closure.points_visited")),
    ("orbit.orbit_closure.new_point_ratio", "ratio",
     _ratio(_counter("orbit_closure.new_points"), _counter("orbit_closure.apply_calls"))),
    ("cli.main.self_s", "s", _self("cli.main")),
    ("life.parse_rle.self_s", "s", _self("life.parse_rle")),
    ("turing.parse_tm.self_s", "s", _self("turing.parse_tm")),
    ("dynamics.parse_point.self_s", "s", _self("dynamics.parse_point")),
    ("polymap.parse_poly.self_s", "s", _self("polymap.parse_poly")),
)
TRACE_OVERHEAD = ("trace.overhead_s", "s")


def tail(samples):
    """(value, percentile, samples beyond) for the highest percentile with
    at least TAIL_BEYOND samples beyond it; the maximum when there are too
    few samples for any."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def spawn(argv, cwd, env, timeout, stdout_path, stderr_path):
    """Run one child to its exit.

    Returns (exit code or None on timeout, seconds from spawn to exit,
    the child's peak RSS in MiB).  The child's own rusage comes from
    ``os.wait4``; a pidfd lets the wait time out without polling.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                exited = select.select([fd], [], [], max(timeout, 0.0))[0]
            finally:
                os.close(fd)
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if exited else None
    return code, elapsed, usage.ru_maxrss / 1024


class Bench:
    """One benchmark run: its work directory, children and bookkeeping."""

    def __init__(self, root, work, workload, seed):
        self.root, self.work = root, work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stop_at = time.perf_counter() + RUN_LIMIT_S
        self.tag = f"{workload}-seed{seed}"
        self.attempted = self.failed = 0
        self.stdout = {}  # op name -> stdout bytes of its first run
        self.spans = {}  # op name -> spans of its last traced run

    def child(self, argv, name):
        timeout = min(CHILD_TIMEOUT_S, self.stop_at - time.perf_counter())
        if timeout <= 0:
            return None
        out, err = self.work / f"{name}.out", self.work / f"{name}.err"
        code, elapsed, rss = spawn([sys.executable, *argv], self.work, self.env, timeout, out, err)
        return code, elapsed, rss, out.read_bytes(), err.read_bytes()

    def probe(self):
        """Fail unless children import orbitkit from this checkout."""
        result = self.child(["-c", "import orbitkit; print(orbitkit.__file__)"], "probe")
        expected = (self.root / "src" / "orbitkit" / "__init__.py").resolve()
        if result is None or result[0] != 0 or Path(result[3].decode().strip()).resolve() != expected:
            raise SystemExit(f"error: children cannot import orbitkit from {self.root / 'src'}")

    def setup_seconds(self):
        times = []
        for _ in range(SETUP_PROBES):
            result = self.child(["-c", SETUP_CODE], "setup")
            if result is None or result[0] != 0:
                raise SystemExit("error: set-up probe failed")
            times.append(result[1])
        return statistics.median(times)

    def run_pass(self, ops, traced):
        """Run every operation once; returns a pass record, or None when
        the run limit cut it short."""
        record = {"times": [], "peak_rss": 0.0, "stats": {}, "counters": {}}
        start = time.perf_counter()
        for op in ops:
            argv = ["-m", "orbitkit", *op.argv]
            trace_path = self.work / f"{op.name}.trace.json"
            if traced:
                argv = [str(self.root / "perfbench" / "tracer.py"), str(trace_path), *op.argv]
            result = self.child(argv, op.name)
            if result is None:
                return None
            code, elapsed, rss, out, err = result
            self.attempted += 1
            reason = "timed out" if code is None else workloads.check(op, code, out)
            if not reason and self.stdout.setdefault(op.name, out) != out:
                reason = "stdout differs from an earlier run"
            if reason:
                self.failed += 1
                print(f"FAILED {op.name} ({'traced' if traced else 'plain'}): {reason}\n"
                      f"{err.decode(errors='replace')[-2000:]}", file=sys.stderr)
            record["times"].append(elapsed)
            record["peak_rss"] = max(record["peak_rss"], rss)
            if traced and code is not None and trace_path.exists():
                self._merge_trace(record, op.name, json.loads(trace_path.read_text()))
        record["wall"] = time.perf_counter() - start
        return record

    def _merge_trace(self, record, name, trace):
        for key, (calls, total, own) in trace["stats"].items():
            acc = record["stats"].setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for key, value in trace["counters"].items():
            combine = max if key in tracer.MAX_COUNTERS else (lambda a, b: a + b)
            record["counters"][key] = combine(record["counters"].get(key, 0), value)
        self.spans[name] = trace["spans"]

    def plain_passes(self, ops, count):
        records = []
        for _ in range(count):
            record = self.run_pass(ops, traced=False)
            if record is None:
                break
            records.append(record)
        return records

    def paired_passes(self, ops, seconds):
        """Plain and traced passes in turn until ``seconds`` have gone by."""
        plain, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            record = self.run_pass(ops, traced=False)
            if record is None:
                break
            plain.append(record)
            record = self.run_pass(ops, traced=True)
            if record is None:
                break
            traced.append(record)
        return plain, traced


def end_to_end(ops, plain, setup):
    times = [t for record in plain for t in record["times"]]
    wall = statistics.median(record["wall"] for record in plain)
    tail_value, tail_pct, _ = tail(times)
    values = {
        "wall_s": wall,
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": tail_value,
        "items_per_s": sum(op.items for op in ops) / wall,
        "peak_rss_mib": max(record["peak_rss"] for record in plain),
        "setup_s": setup,
    }
    info = {"tail_percentile": round(tail_pct, 1), "tail_samples": len(times)}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, info


def per_layer(plain, traced):
    metrics = {}
    for name, unit, value in PER_LAYER:
        per_pass = [value(record["stats"], record["counters"]) for record in traced]
        metrics[name] = {"value": statistics.median(per_pass), "unit": unit}
    overhead = (statistics.median(r["wall"] for r in traced)
                - statistics.median(r["wall"] for r in plain))
    metrics[TRACE_OVERHEAD[0]] = {"value": overhead, "unit": TRACE_OVERHEAD[1]}
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        bench = Bench(root, work, args.workload, args.seed)
        bench.probe()
        ops = workloads.build(args.workload, args.seed, work)
        if args.trace:
            plain, traced = bench.paired_passes(ops, args.seconds)
            if traced:
                metrics = per_layer(plain, traced)
                (out_dir / f"{bench.tag}-spans.json").write_text(json.dumps(bench.spans))
            else:
                plain = []
            info = {}
        else:
            setup = bench.setup_seconds()
            count = max(2, round(args.seconds / NOMINAL_PASS_S[args.workload]))
            plain = bench.plain_passes(ops, count)
            if plain:
                metrics, info = end_to_end(ops, plain, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not plain:
        print("error: the run limit passed before one pass completed", file=sys.stderr)
        return 1
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "passes": len(plain), "ops_per_pass": len(ops),
        "failed_frac": bench.failed / max(bench.attempted, 1), **info,
    }
    result = {"correct": bench.failed == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    (out_dir / f"{bench.tag}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, **result}, indent=1))
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
