"""Per-layer tracing of one orbitkit CLI invocation, in the CLI's own process.

Run as ``python perfbench/tracer.py OUT.json ARGS...`` with ``src`` on the
path.  It wraps the public functions of each orbitkit layer with timers,
runs ``orbitkit.cli.main(ARGS)`` and exits with its code, so stdout is the
CLI's own, byte for byte.  OUT.json receives, per wrapped name, the call
count, summed time and self time (own time minus the time of wrapped
callees), the layer counters below, and spans (name, parent span, start,
end) for the boundary functions.  Hot leaf functions are aggregated only.

The wrappers are installed before the first ``cantor_pairing()`` or
``build_gol_map()`` call: ``PairingSpec`` captures ``pair``/``unpair`` when
it is built and both builders are cached, so later wrapping would miss
those calls.
"""

from __future__ import annotations

import json
import resource
import sys
import time

# Counters combined across processes by maximum; all others are summed.
MAX_COUNTERS = ("component_apply.max_bits", "tape_cells.max", "detect_hashset.peak_mib")


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counters = {}
        self.spans = []  # [name, parent span index or -1, start_s, end_s]
        self._inner = [0.0]  # time spent in wrapped callees, per open call
        self._open = [-1]  # innermost open span

    def count(self, name, value):
        if name in MAX_COUNTERS:
            self.counters[name] = max(self.counters.get(name, 0), value)
        else:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name, fn, span=False, before=None, after=None):
        """Timed stand-in for ``fn``.  ``after(args, result, token)`` gets
        ``before(args)``'s token; their own time is kept out of every
        caller's self time."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        inner, open_spans, spans = self._inner, self._open, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            if span:
                spans.append([name, open_spans[-1], 0.0, 0.0])
                open_spans.append(len(spans) - 1)
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - inner.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += own
                inner[-1] += elapsed
                if span:
                    spans[open_spans.pop()][2:] = [start, start + elapsed]
            if after is not None:
                start = clock()
                after(args, result, token)
                inner[-1] += clock() - start
            return result

        return traced

    def report(self):
        return {"stats": self.stats, "counters": self.counters, "spans": self.spans}


def _max_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def install(tracer):
    """Wrap every traced orbitkit function; returns the traced ``cli.main``."""
    from orbitkit import cli, cycles, dynamics, life, lifepoly, orbit, polymap, turing

    for builder in (lifepoly.cantor_pairing, lifepoly.build_gol_map, lifepoly.build_local_rule):
        if builder.cache_info().currsize:
            raise RuntimeError(f"{builder.__name__} ran before tracing was installed")
    wrap, count = tracer.wrap, tracer.count
    stats = tracer.stats
    raw_unpair = lifepoly.unpair

    for module, attr, name in (
        (life, "parse_rle", "life.parse_rle"),
        (turing, "parse_tm", "turing.parse_tm"),
        (dynamics, "parse_point", "dynamics.parse_point"),
        (cli, "parse_poly", "polymap.parse_poly"),
        (lifepoly, "build_local_rule", "lifepoly.build_local_rule"),
        (lifepoly, "quadrant_safe", "lifepoly.quadrant_safe"),
    ):
        setattr(module, attr, wrap(name, getattr(module, attr), span=True))
    for module, attr, name in (
        (lifepoly, "pair", "lifepoly.pairing"),
        (lifepoly, "unpair", "lifepoly.pairing"),
        (lifepoly, "encode", "lifepoly.encode"),
        (lifepoly, "decode", "lifepoly.decode"),
        (life, "step", "life.step"),
    ):
        setattr(module, attr, wrap(name, getattr(module, attr)))
    for cls, attr, name in (
        (polymap.Polynomial, "evaluate", "polymap.evaluate"),
        (polymap.Polynomial, "__mul__", "polymap.mul"),
        (polymap.Polynomial, "__rmul__", "polymap.mul"),
        (dynamics.SparsePoint, "__hash__", "dynamics.point_hash"),
        (dynamics.SparsePoint, "__eq__", "dynamics.point_eq"),
        (turing.Configuration, "__hash__", "turing.config_hash"),
    ):
        setattr(cls, attr, wrap(name, getattr(cls, attr)))

    evaluate = stats["polymap.evaluate"]

    def grid_after(args, result, evaluate_calls):
        cells = [raw_unpair(i) for i, _ in args[1].items()]
        candidates = {(a + da, b + db) for a, b in cells for da in (-1, 0, 1) for db in (-1, 0, 1)
                      if a + da >= 0 and b + db >= 0}
        count("grid_apply.cells_in", len(cells))
        count("grid_apply.candidates", len(candidates))
        count("grid_apply.evaluate_calls", evaluate[0] - evaluate_calls)

    dynamics.GridRuleMap.apply = wrap("dynamics.grid_apply", dynamics.GridRuleMap.apply,
                                      before=lambda args: evaluate[0], after=grid_after)

    def component_after(args, result, token):
        bits = max((abs(v).bit_length() for _, v in result.items()), default=0)
        count("component_apply.max_bits", bits)

    dynamics.FiniteComponentMap.apply = wrap(
        "dynamics.component_apply", dynamics.FiniteComponentMap.apply, after=component_after)

    def tm_after(args, result, token):
        if isinstance(result, turing.Configuration):
            count("tape_cells.max", len(result.tape))

    turing.tm_step = wrap("turing.tm_step", turing.tm_step, after=tm_after)

    def counted(detect, prefix):
        def run(step, start, budget, *rest):
            calls = 0

            def counting_step(state):
                nonlocal calls
                calls += 1
                return step(state)

            rss = _max_rss_mib()
            verdict = detect(counting_step, start, budget, *rest)
            count(f"{prefix}.steps", calls)
            if prefix == "detect_hashset":
                # the walk stores one state per index it reached
                if isinstance(verdict, cycles.Periodic):
                    stored = verdict.preperiod + verdict.period
                elif isinstance(verdict, cycles.Terminated):
                    stored = verdict.steps + 1
                else:
                    stored = verdict.budget + 1
                count("detect_hashset.states_stored", stored)
                count("detect_hashset.peak_mib", _max_rss_mib() - rss)
            elif isinstance(verdict, cycles.Periodic):
                count("detect_brent.periodic_steps", calls)
                count("detect_brent.periodic_shape", verdict.preperiod + verdict.period + 1)
            return verdict

        return run

    for prefix in ("detect_hashset", "detect_brent"):
        setattr(cycles, prefix, wrap(f"cycles.{prefix}", counted(getattr(cycles, prefix), prefix),
                                     span=True))

    applies = (stats["dynamics.grid_apply"], stats["dynamics.component_apply"])

    def closure_after(args, verdict, apply_calls):
        points = verdict.orbit_size if isinstance(verdict, orbit.Stable) else verdict.points_explored
        count("orbit_closure.apply_calls", sum(s[0] for s in applies) - apply_calls)
        count("orbit_closure.points_visited", points)
        count("orbit_closure.new_points", points - 1)

    orbit.is_stable_singleton = wrap("orbit.is_stable_singleton", orbit.is_stable_singleton,
                                     span=True)
    orbit.orbit_closure = wrap("orbit.orbit_closure", orbit.orbit_closure, span=True,
                               before=lambda args: sum(s[0] for s in applies), after=closure_after)
    return wrap("cli.main", cli.main, span=True)


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli_main = install(tracer)
    try:
        code = cli_main(cli_args)
    finally:
        with open(out_path, "w") as out:
            json.dump(tracer.report(), out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
