"""Seeded instance generators and the recorded instance pools.

Search cost is heavy-tailed: two G(20, 0.3) draws can differ by a factor
of fifty in nodes.  Drawing instances freely would make every timing and
every certified share depend on the seed.  The search workloads draw
from finite pools instead.  Instance i of a stratum is rebuilt from the
string seed "<stratum>:<i>"; record.py ran every instance once at the
node budgets below and stored its answer, node counts and time in
pools.json.  A run draws by `systematic_sample`, so every seed gets the
same number of budget-exhausting instances and the same spread of cost,
and the recorded answers check the answers of later commits.
"""

from __future__ import annotations

import json
import os
import random

from strongodd import planemaps, randgen
from strongodd.colorings import Coloring
from strongodd.graphs import Graph, disjoint_union, make_cycle, make_path, product

HERE = os.path.dirname(os.path.abspath(__file__))
POOLS_FILE = os.path.join(HERE, "pools.json")

# Node budgets.  The time budget is set far above them, so every solve
# stops at the same node on every machine and its counters repeat.
# `gallery` keeps the CLI's default node budget.
SOLVE_NODES = 10_000
PIPELINE_NODES = 50_000
GALLERY_NODES = 10**8
NO_TIME_LIMIT = 1e9

POOL_SIZE = 30
# G(n, 0.3) with n >= 20 nearly always exhausts the budget; those sizes
# are represented by the beyond-reach strata instead
GNP_STRATA = ([f"gnp:{n}:0.2" for n in (12, 14, 16, 18, 20, 22)]
              + [f"gnp:{n}:0.3" for n in (12, 14, 16, 18)]
              + [f"gnp:{n}:0.5" for n in (12, 14, 16, 18, 20, 22)])
SMALL_STRATA = [f"gnp:{n}:{p}" for p in (0.3, 0.5) for n in (7, 8, 9)]
FAR_STRATA = ["gnp:26:0.3", "gnp:30:0.3"]
UNION_PARTS = [(10, 0.3), (11, 0.3), (12, 0.3)]
GRID_STRATA = [f"grid:{a}:{b}" for a in range(3, 7) for b in range(a, 7)]
PLANE_STRATA = [f"plane:{n}" for n in (20, 25, 30, 35, 40, 50, 60)]
CLAIM1_STRATA = ["plane:250"]

# stratum -> pool size
SOLVE_POOLS = {**{s: POOL_SIZE for s in GNP_STRATA + SMALL_STRATA + ["union"]},
               **{s: POOL_SIZE // 3 for s in FAR_STRATA},
               **{s: 1 for s in GRID_STRATA + ["torus:5:5"]}}
PLANE_POOLS = {**{s: POOL_SIZE for s in PLANE_STRATA}, "octahedron": 1}
CLAIM1_POOLS = {s: POOL_SIZE for s in CLAIM1_STRATA}

OCTAHEDRON = [[2, 3, 4, 5], [2, 5, 4, 3], [0, 5, 1, 3], [1, 4, 0, 2],
              [3, 1, 5, 0], [4, 1, 2, 0]]


def rng_for(key: str) -> random.Random:
    """String seeds are hashed with SHA-512, so they repeat across runs
    and interpreters."""
    return random.Random(key)


def torus_c5() -> Graph:
    return product(make_cycle(5), make_cycle(5), "cartesian")


def solve_instance(stratum: str, i: int) -> Graph:
    """Member i of a solve pool: "gnp:<n>:<p>", "union", "grid:<a>:<b>"
    (the Cartesian product of two paths) or "torus:5:5"."""
    kind, *args = stratum.split(":")
    rng = rng_for(f"{stratum}:{i}")
    if kind == "gnp":
        return randgen.random_graph(int(args[0]), float(args[1]), rng)
    if kind == "union":
        (n1, p1), (n2, p2) = rng.choice(UNION_PARTS), rng.choice(UNION_PARTS)
        return disjoint_union(randgen.random_graph(n1, p1, rng),
                              randgen.random_graph(n2, p2, rng))
    if kind == "grid":
        return product(make_path(int(args[0])), make_path(int(args[1])), "cartesian")
    if kind == "torus":
        return torus_c5()
    raise ValueError(f"unknown solve stratum {stratum!r}")


def plane_instance(stratum: str, i: int) -> planemaps.PlaneMultigraph:
    """Member i of a plane pool: "plane:<n>" or "octahedron"."""
    if stratum == "octahedron":
        return planemaps.from_neighbor_rotations(OCTAHEDRON)
    return randgen.random_planar_map(int(stratum.split(":")[1]), rng_for(f"{stratum}:{i}"))


def greedy_coloring(g: Graph) -> Coloring:
    """Proper coloring by first fit in descending degree order; it plays
    the coloring a user passes to `plane claim1` and `plane pipeline`."""
    col = [-1] * g.n
    for v in sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v)):
        used = {col[u] for u in g.adj[v]}
        c = 0
        while c in used:
            c += 1
        col[v] = c
    return Coloring(tuple(col))


def load_pools() -> dict:
    with open(POOLS_FILE) as fh:
        return json.load(fh)


def systematic_sample(records: list, total: int, exhausted, cost, rng: random.Random) -> list:
    """Draw `total` records.  Exhausted and other records get quotas in
    proportion to their share of the pool (largest remainder).  Within
    each group the records are sorted by recorded cost and split into as
    many equal slices as the quota, and one record is drawn per slice.
    The sorted costs of a draw then follow the pool's cost distribution
    whatever the seed."""
    groups: dict[bool, list] = {True: [], False: []}
    for r in records:
        groups[bool(exhausted(r))].append(r)
    exact = {g: total * len(rs) / len(records) for g, rs in groups.items()}
    quota = {g: int(x) for g, x in exact.items()}
    if sum(quota.values()) < total:
        quota[max(exact, key=lambda g: exact[g] - quota[g])] += 1
    out = []
    for g, rs in groups.items():
        rs = sorted(rs, key=cost)
        q = quota[g]
        for j in range(q):
            out.append(rs[rng.randrange(j * len(rs) // q, (j + 1) * len(rs) // q)])
    return out
