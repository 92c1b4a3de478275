"""Record the instance pools: answers, node counts and times.

    python3 perfbench/record.py

Writes perfbench/pools.json.  Run it only when the pools or budgets in
inputs.py change: its answers are the reference later commits are
checked against, so rerunning it on a changed solver hides regressions.
Times are speed-scaled medians of three runs (see timing.py); they only
order the instances for sampling.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from strongodd import planemaps, solver  # noqa: E402

import inputs  # noqa: E402
import timing  # noqa: E402

REPEATS = 3


def measure(fn, *args):
    """Result of fn(*args) and its median scaled time over REPEATS runs."""
    runs = [timing.timed(fn, *args) for _ in range(REPEATS)]
    return runs[0][0], statistics.median(s for _, s in runs)


def record_solves() -> dict:
    budget = solver.Budget(max_nodes=inputs.SOLVE_NODES, max_time=inputs.NO_TIME_LIMIT)
    decide = solver.is_k_strong_odd_colorable
    out: dict[str, list] = {}
    for stratum, size in inputs.SOLVE_POOLS.items():
        for i in range(size):
            g = inputs.solve_instance(stratum, i)
            res, seconds = measure(solver.chi_so_exact, g, budget)
            row = {"i": i, "value": res.value, "lo": res.lo, "hi": res.hi,
                   "nodes": res.nodes_explored, "s": seconds}
            if res.optimal and res.value > 1:
                for kind, k in (("refute", res.value - 1), ("witness", res.value)):
                    dec, seconds = measure(decide, g, k, budget)
                    row[f"{kind}_nodes"], row[f"{kind}_s"] = dec.nodes_explored, seconds
            out.setdefault(stratum, []).append(row)
    return out


def record_pipelines() -> dict:
    budget = solver.Budget(max_nodes=inputs.PIPELINE_NODES, max_time=inputs.NO_TIME_LIMIT)
    spent = []
    original = planemaps.chi_pfo_exact

    def counting(m, b=None):
        res = original(m, b)
        spent.append(res.nodes_explored)
        return res

    def pipeline(pm, phi):
        try:
            return planemaps.strong_odd_via_planar_detailed(pm, phi, budget).coloring.k
        except planemaps.MapError:
            return None

    planemaps.chi_pfo_exact = counting
    out: dict[str, list] = {}
    try:
        for stratum, size in inputs.PLANE_POOLS.items():
            for i in range(size):
                pm = inputs.plane_instance(stratum, i)
                spent.clear()
                colors, seconds = measure(pipeline, pm, inputs.greedy_coloring(pm.underlying))
                out.setdefault(stratum, []).append(
                    {"i": i, "colors": colors, "nodes": sum(spent) // REPEATS, "s": seconds})
    finally:
        planemaps.chi_pfo_exact = original
    return out


def record_claim1() -> dict:
    out: dict[str, list] = {}
    for stratum, size in inputs.CLAIM1_POOLS.items():
        for i in range(size):
            pm = inputs.plane_instance(stratum, i)
            pieces, seconds = measure(planemaps.decompose_claim1, pm,
                                      inputs.greedy_coloring(pm.underlying))
            out.setdefault(stratum, []).append({"i": i, "pieces": len(pieces), "s": seconds})
    return out


def main() -> int:
    t0 = time.monotonic()
    data = {
        "solve_nodes": inputs.SOLVE_NODES,
        "pipeline_nodes": inputs.PIPELINE_NODES,
        "solve": record_solves(),
        "plane": record_pipelines(),
        "claim1": record_claim1(),
    }
    with open(inputs.POOLS_FILE, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {inputs.POOLS_FILE} in {time.monotonic() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
