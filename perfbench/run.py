"""strongodd benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload solve_mix --seed 1 --seconds 25 --trace 0

Set-up imports the library from ./src, generates the seeded inputs and
serializes them, three times; setup_s is the import time plus the median
of the three.  The timed phase then repeats passes over the op list
while a further pass still fits in --seconds (at least one pass, two
with --trace 1).  Every pass runs the same ops on the same inputs, so an
op's latency is its median over passes, and a difference between passes
in the deterministic counters makes the run incorrect.  Outputs are
checked once, in the first pass, outside the timing.

All times are speed-scaled (see timing.py): each op's time is
multiplied by the ratio of a reference to a fixed probe timed just
before and after it, which cancels the host's slow spells.

With --trace 0 the last line carries the end-to-end metrics.  With
--trace 1 passes alternate untraced and traced; the last line carries
the per-layer metrics of the traced passes and the tracing overhead, and
every span is written to perfbench/out/.

Exit code 0 with a result line; another code without one, for instance
when the library sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

import timing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "ok_frac": "1", "certified_frac": "1", "bracket_ratio": "1",
    "colors_ratio": "1", "peak_rss_mb": "MB",
}
SOLVER_KINDS = ("so", "chi", "odd", "square", "refute", "witness", "pfo")
PLANE_STAGES = ("load", "trace", "annihilate", "decompose", "augment", "pipeline")


def per_layer_units() -> dict:
    units = {}
    for kind in SOLVER_KINDS:
        units.update({f"solver.{kind}.calls": "count", f"solver.{kind}.busy_s": "s",
                      f"solver.{kind}.nodes": "count", f"solver.{kind}.nodes_per_s": "1/s",
                      f"solver.{kind}.exhausted": "count"})
    for stage in PLANE_STAGES:
        units.update({f"planemaps.{stage}.calls": "count", f"planemaps.{stage}.busy_s": "s"})
    units.update({
        "planemaps.decompose.pieces": "count", "planemaps.augment.edges_added": "count",
        "constructive.calls": "count", "constructive.busy_s": "s",
        "constructive.vertices_per_s": "1/s",
        "colorings.verify.calls": "count", "colorings.verify.busy_s": "s",
        "colorings.load.busy_s": "s", "graphs.load.calls": "count", "graphs.load.busy_s": "s",
        "gallery.check.calls": "count", "gallery.check.busy_s": "s",
        "harness.busy_s": "s", "trace.spans": "count", "trace.overhead_s": "s",
        "trace.overhead_frac": "1",
    })
    return units


def import_library():
    """Import strongodd from ./src only; a copy installed elsewhere must
    not stand in for the sources under test."""
    sys.path.insert(0, SRC)
    try:
        import strongodd
    except ImportError as exc:
        raise SystemExit(f"error: cannot import strongodd from {SRC}: {exc}") from None
    if not os.path.abspath(strongodd.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: strongodd was imported from {strongodd.__file__}")


def percentile(sorted_vals: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


class Pass:
    """One pass over the ops: scaled latencies, summaries and failures;
    with a tracer, the spans of the pass."""

    def __init__(self, ops, lib, tracer=None, check=False):
        self.tracer = tracer
        self.latency: list[float] = []
        self.scale: list[float] = []
        self.summaries: list = []
        self.failures: dict[int, str] = {}
        self.problems: dict[int, list] = {}
        gc.collect()
        before = timing.probe()
        with lib.traced(tracer) if tracer else contextlib.nullcontext():
            for i, op in enumerate(ops):
                span = tracer.op_span(i, "harness") if tracer else contextlib.nullcontext()
                t0 = time.perf_counter()
                try:
                    with span:
                        out = op.run(lib)
                except Exception as exc:  # a raising op counts as failed; the run goes on
                    out = None
                    self.failures[i] = f"{type(exc).__name__}: {str(exc)[:120]}"
                raw = time.perf_counter() - t0
                after = timing.probe()
                self.scale.append(timing.scale(before, after))
                self.latency.append(raw * self.scale[-1])
                before = after
                summary, probs = None, []
                if out is not None:
                    try:
                        summary = op.summary(out)
                        probs = op.check(out) if check else []
                    except Exception as exc:  # a malformed output is a wrong answer
                        probs = [f"unreadable output: {type(exc).__name__}: {exc}"]
                self.summaries.append(summary)
                if probs:
                    self.problems[i] = probs
        self.wall = sum(self.latency)
        self.digest = hashlib.sha256(repr(
            [None if s is None else (s.solves, s.colorings, s.digest, s.nodes)
             for s in self.summaries]).encode()).hexdigest()[:16]


def quality(summaries, n_ops, failed) -> dict:
    solves, colorings = [], []
    for s in summaries:
        if s is not None:
            solves += s.solves
            colorings += s.colorings
    lo, hi = sum(s[0] for s in solves), sum(s[1] for s in solves)
    used, ref = sum(c[0] for c in colorings), sum(c[1] for c in colorings)
    return {
        "ok_frac": (n_ops - failed) / n_ops,
        "certified_frac": sum(1 for s in solves if s[2]) / len(solves) if solves else 1.0,
        "bracket_ratio": hi / lo if lo else 1.0,
        "colors_ratio": used / ref if ref else 1.0,
    }


def layer_metrics(spans, traced: list, untraced: list) -> dict:
    """Per-layer self time and counts of the traced passes; busy times
    are scaled with the factor of the op each span belongs to."""
    per_pass = [spans.layer_totals(p.tracer.spans, p.scale) for p in traced]
    values = {}
    for name in sorted({name for totals in per_pass for name in totals}):
        busy = statistics.median(t.get(name, {}).get("busy_s", 0.0) for t in per_pass)
        first = per_pass[0].get(name, {})
        values[f"{name}.busy_s"] = busy
        for key, val in first.items():
            if key != "busy_s":
                values[f"{name}.{key}"] = val
        for work in ("nodes", "vertices"):
            if work in first:
                values[f"{name}.{work}_per_s"] = first[work] / busy if busy else 0.0
    plain = statistics.median(p.wall for p in untraced)
    with_spans = statistics.median(p.wall for p in traced)
    values["trace.spans"] = len(traced[0].tracer.spans)
    values["trace.overhead_s"] = with_spans - plain
    values["trace.overhead_frac"] = (with_spans - plain) / plain
    return values


def write_trace(args, ops, traced) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "span_fields": ["name", "start", "end", "parent", "op", "counts"],
                   "ops": [op.name for op in ops],
                   "passes": [p.tracer.spans for p in traced]}, fh, separators=(",", ":"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _, import_s = timing.timed(import_library)
    import inputs
    import spans
    import workloads
    from strongodd import constructive
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}")

    def setup():
        pools = inputs.load_pools()
        return pools, workloads.WORKLOADS[args.workload](args.seed, pools)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        (pools, ops), seconds = timing.timed(setup)
        setup_times.append(seconds)
    if (pools["solve_nodes"], pools["pipeline_nodes"]) != (inputs.SOLVE_NODES,
                                                          inputs.PIPELINE_NODES):
        raise SystemExit("error: pools.json was recorded at other node budgets")

    lib = spans.Layers()
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        # each CLI call is a fresh interpreter, so no memo outlives a call
        clear = getattr(constructive.cycle_pattern, "cache_clear", None)
        if clear is not None:
            clear()
        t_pass = time.perf_counter()
        passes.append(Pass(ops, lib, spans.Tracer() if traced else None, check=not passes))
        now = time.perf_counter()
        if len(passes) >= 1 + args.trace and now - start + (now - t_pass) > args.seconds:
            break

    first = passes[0]
    bad = sorted(set(first.failures) | set(first.problems))
    for i in bad:
        detail = first.failures.get(i) or "; ".join(first.problems[i])
        print(f"{'failed' if i in first.failures else 'wrong'}: {ops[i].name}: {detail}")
    digests = [p.digest for p in passes]
    if len(set(digests)) != 1:
        print(f"nondeterministic: pass digests differ: {digests}")
    q = quality(first.summaries, len(ops), len(bad))
    nodes = sum(s.nodes for s in first.summaries if s is not None)
    print(f"determinism: digest={first.digest} ops={len(ops)} nodes={nodes} failed={len(bad)} "
          + " ".join(f"{k}={v!r}" for k, v in q.items()))

    if args.trace == 0:
        op_ms = sorted(1000 * statistics.median(p.latency[i] for p in passes)
                       for i in range(len(ops)))
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": statistics.median(p.wall for p in passes),
            "op_ms_p50": percentile(op_ms, 0.5),
            "op_ms_p90": percentile(op_ms, 0.9),
            **q,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        traced = [p for p in passes if p.tracer is not None]
        untraced = [p for p in passes if p.tracer is None]
        values = layer_metrics(spans, traced, untraced)
        units = per_layer_units()
        write_trace(args, ops, traced)
    print(json.dumps({
        "correct": not first.problems and len(set(digests)) == 1,
        "attempted": len(ops) * len(passes),
        "failed": len(bad) * len(passes),
        "metrics": {k: {"value": values.get(k, 0), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
