"""Determinism self-check: run each workload twice at one seed, traced,
in two fresh interpreters with different string-hash seeds, and compare
the deterministic counters (node counts, brackets, colors, failures,
Claim 2 edges, per-op digests).

    python3 perfbench/selfcheck.py [--seed 7] [--workload solve_mix ...]

Exit code 0 when every workload's counters agree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("solve_mix", "plane_pipeline", "map_surgery", "construct_verify")


def counters(workload: str, seed: int, hash_seed: str) -> str:
    """The `determinism:` line of a traced run plus its per-layer counts
    (calls, nodes, exhausted solves, pieces, Claim 2 edges)."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, env=env, cwd=os.path.dirname(HERE), check=True)
    lines = out.stdout.splitlines()
    metrics = json.loads(lines[-1])["metrics"]
    counts = {k: m["value"] for k, m in metrics.items()
              if m["unit"] == "count" and k != "trace.spans" and m["value"]}
    line = next(line for line in lines if line.startswith("determinism:"))
    return f"{line}\n  counts: {json.dumps(counts, sort_keys=True)}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    ok = True
    for w in args.workload:
        first, second = (counters(w, args.seed, h) for h in ("1", "2"))
        same = first == second
        ok &= same
        print(f"{w}: {'identical' if same else 'DIFFERENT'}\n  {first}"
              + ("" if same else f"\n  {second}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
