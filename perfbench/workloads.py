"""The four workloads as lists of ops.

Each op replays the library calls one CLI command makes.  Its inputs are
serialized to JSON text during set-up, and the timed call starts from
that text through the public loaders, as a CLI call does; so no op sees
an object another op built (`Graph.adj` and `PlaneMultigraph.underlying`
are cached per object).

An op has three parts:
  run(lib)        the timed call; `lib` is a spans.Layers
  summary(out)    cheap deterministic facts, taken after every pass:
                  the solve brackets, the colorings with their
                  reference color counts, and a digest compared across
                  passes
  check(out)      the output check, outside the timed region, first
                  pass only; it returns a list of problems
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from strongodd import planemaps, randgen, solver
from strongodd.colorings import Coloring, coloring_to_json_dict, is_strong_odd
from strongodd.graphs import (Graph, complement, join, make_complete,
                              make_complete_bipartite, make_cycle, make_path, product,
                              to_json_dict)
from strongodd.planemaps import annihilation_report, is_two_connected, map_to_json_dict

import inputs


@dataclass
class Summary:
    solves: list = field(default_factory=list)     # (lo, hi, certified)
    colorings: list = field(default_factory=list)  # (colors used, reference)
    digest: tuple = ()
    nodes: int = 0                                 # search nodes, where known


@dataclass
class Op:
    name: str
    run: Callable[[Any], Any]
    summary: Callable[[Any], Summary]
    check: Callable[[Any], list]


def _graph_text(g: Graph) -> str:
    return json.dumps(to_json_dict(g))


def _coloring_text(phi: Coloring) -> str:
    return json.dumps(coloring_to_json_dict(phi))


def _map_text(m) -> str:
    return json.dumps(map_to_json_dict(m))


def _budget(nodes: int) -> solver.Budget:
    return solver.Budget(max_nodes=nodes, max_time=inputs.NO_TIME_LIMIT)


def stratified(lo: int, hi: int, count: int, rng: random.Random, accept=None) -> list:
    """One draw from each of `count` equal slices of [lo, hi], so the
    sizes a seed gets spread over the range the same way every time."""
    out = []
    for j in range(count):
        a = lo + (hi - lo) * j // count
        b = lo + (hi - lo) * (j + 1) // count
        while True:
            n = rng.randint(a, b)
            if accept is None or accept(n):
                break
        out.append(n)
    return out


def _witness_problems(g: Graph, phi: Optional[Coloring], k: int) -> list:
    if phi is None:
        return ["no witness"]
    bad = is_strong_odd(g, phi)
    out = [f"witness violates strong oddness: {bad[0]}"] if bad else []
    if phi.k > k:
        out.append(f"witness uses {phi.k} colors, claimed {k}")
    return out


def _solve_summary(res, reference=None) -> Summary:
    hi = res.hi if res.hi is not None else res.lo
    s = Summary(solves=[(res.lo, hi, res.optimal)],
                digest=(res.value, res.optimal, res.lo, res.hi), nodes=res.nodes_explored)
    if res.optimal and reference is not None:
        s.colorings.append((res.witness.k, reference))
    return s


def _solve_problems(g: Graph, res, value, lo, brute: bool) -> list:
    """value/lo: the answer and lower bound recorded at the commit that
    introduced the benchmark (value None when that search gave up)."""
    if res.optimal:
        out = _witness_problems(g, res.witness, res.value)
        if value is not None and res.value != value:
            out.append(f"value {res.value}, recorded {value}")
        if value is None and res.value < lo:
            out.append(f"value {res.value} below the recorded lower bound {lo}")
        if brute and res.value != solver.brute_force_chi_so(g):
            out.append("value differs from the brute-force oracle")
        return out
    if res.hi is None or not res.lo <= res.hi:
        return [f"inconsistent bracket {res.lo}..{res.hi}"]
    out = [] if res.witness is None else _witness_problems(g, res.witness, res.hi)
    if value is not None and not res.lo <= value <= res.hi:
        out.append(f"bracket {res.lo}..{res.hi} misses recorded value {value}")
    return out


# ---------------------------------------------------------------------------
# solve_mix: the traffic of `solve`, `solve --k` and `gallery`
# ---------------------------------------------------------------------------

GNP_OPS, SMALL_OPS, UNION_OPS, FAR_OPS = 54, 8, 6, 4
REFUTE_OPS = WITNESS_OPS = 12


def _so_op(name, g, row, brute=False) -> Op:
    value, lo = row["value"], row["lo"]
    text = _graph_text(g)
    budget = _budget(inputs.SOLVE_NODES)

    def run(lib):
        h = lib.load_graph(text)
        return h, lib.chi_so_exact(h, budget)

    return Op(name, run, lambda out: _solve_summary(out[1], value),
              lambda out: _solve_problems(out[0], out[1], value, lo, brute))


def _decision_op(name, g, k, expect) -> Op:
    """`solve --k`: refutation at k = value - 1, witness at k = value."""
    text = _graph_text(g)
    budget = _budget(inputs.SOLVE_NODES)
    attr = "witness" if expect == solver.YES else "refute"

    def run(lib):
        h = lib.load_graph(text)
        return h, getattr(lib, attr)(h, k, budget)

    def summary(out):
        res = out[1]
        certified = res.status != solver.UNKNOWN
        s = Summary(solves=[(k, k, certified)], digest=(res.status,),
                    nodes=res.nodes_explored)
        if res.status == solver.YES:
            s.colorings.append((res.witness.k, k))
        return s

    def check(out):
        h, res = out
        if res.status == solver.UNKNOWN:
            return []
        if res.status != expect:
            return [f"status {res.status} at k={k}, expected {expect}"]
        return _witness_problems(h, res.witness, k) if expect == solver.YES else []

    return Op(name, run, summary, check)


_PARAMS = {"chi_so": "chi_so_exact", "chi": "chi_exact",
           "chi_odd": "chi_odd_exact", "chi_square": "chi_square_exact"}


def _gallery_op(name, params, expected, text=None) -> Op:
    """One row of `gallery` (cli.run_gallery): a named entry with its
    structural check, or a reference graph given as JSON.  expected maps
    a parameter to its value; a tuple value means "at most"."""
    budget = _budget(inputs.GALLERY_NODES)

    def run(lib):
        if text is None:
            entry = lib.gallery(name)
            g, problems = entry.graph, lib.gallery_check(entry)
        else:
            g, problems = lib.load_graph(text), []
        return g, problems, {p: getattr(lib, _PARAMS[p])(g, budget) for p in params}

    def summary(out):
        s = Summary()
        for p, res in out[2].items():
            s.solves.append((res.lo, res.hi if res.hi is not None else res.lo, res.optimal))
            ref = expected.get(p)
            if res.optimal and isinstance(ref, int):
                s.colorings.append((res.witness.k, ref))
        s.digest = tuple((p, r.value) for p, r in out[2].items())
        s.nodes = sum(r.nodes_explored for r in out[2].values())
        return s

    def check(out):
        g, problems, results = out
        probs = [f"structural: {p}" for p in problems]
        for p, want in expected.items():
            got = results[p].value
            ok = got is not None and (got <= want[0] if isinstance(want, tuple) else got == want)
            if not ok:
                probs.append(f"{p} = {got}, expected {want}")
        if "chi_so" in results and results["chi_so"].optimal:
            probs += _witness_problems(g, results["chi_so"].witness, results["chi_so"].value)
            if g.n <= 9 and results["chi_so"].value != solver.brute_force_chi_so(g):
                probs.append("chi_so differs from the brute-force oracle")
        return probs

    return Op(f"gallery:{name}", run, summary, check)


def _pool(pools, section, strata) -> list:
    return [(s, row) for s in strata for row in pools[section][s]]


def _exhausted(item) -> bool:
    return item[1]["value"] is None


def solve_mix(seed: int, pools: dict) -> list:
    rng = random.Random(seed)
    ops = []
    for strata, count, brute in ((inputs.GNP_STRATA, GNP_OPS, False),
                                 (inputs.SMALL_STRATA, SMALL_OPS, True),
                                 (inputs.FAR_STRATA, FAR_OPS, False),
                                 (["union"], UNION_OPS, False)):
        pool = _pool(pools, "solve", strata)
        for stratum, row in inputs.systematic_sample(pool, count, _exhausted,
                                                     lambda it: it[1]["s"], rng):
            ops.append(_so_op(f"so:{stratum}:{row['i']}",
                              inputs.solve_instance(stratum, row["i"]), row, brute))
    for stratum in inputs.GRID_STRATA + ["torus:5:5"]:
        ops.append(_so_op(f"so:{stratum}", inputs.solve_instance(stratum, 0),
                          pools["solve"][stratum][0]))

    certified = [it for it in _pool(pools, "solve", inputs.GNP_STRATA) if "refute_s" in it[1]]
    for kind, count, expect in (("refute", REFUTE_OPS, solver.NO),
                                ("witness", WITNESS_OPS, solver.YES)):
        for stratum, row in inputs.systematic_sample(certified, count, lambda it: False,
                                                     lambda it: it[1][f"{kind}_s"], rng):
            k = row["value"] - 1 if expect == solver.NO else row["value"]
            ops.append(_decision_op(f"k{k}:{stratum}:{row['i']}",
                                    inputs.solve_instance(stratum, row["i"]), k, expect))

    for name, n in (("G7", 7), ("G12a", 12), ("G12b", 12), ("C5boxC5", 25)):
        params = ["chi_so"] + (["chi", "chi_odd", "chi_square"] if n <= 12 else [])
        expected = {"chi_so": 7 if name == "G7" else 12 if n == 12 else 5}
        ops.append(_gallery_op(name, params, expected))
    ops.append(_gallery_op("C5", ["chi_odd", "chi_so"], {"chi_odd": 5, "chi_so": 5},
                           _graph_text(make_cycle(5))))
    ops.append(_gallery_op("K_{2,3}", ["chi_so", "chi_square"],
                           {"chi_so": (4,), "chi_square": 5},
                           _graph_text(make_complete_bipartite(2, 3))))
    return ops


# ---------------------------------------------------------------------------
# plane_pipeline: the traffic of `plane pipeline`
# ---------------------------------------------------------------------------

PIPELINE_OPS = 99


def _pipeline_op(name, m, recorded_colors) -> Op:
    phi = inputs.greedy_coloring(m.underlying)
    mtext, ctext = _map_text(m), _coloring_text(phi)
    budget = _budget(inputs.PIPELINE_NODES)

    def run(lib):
        mm = lib.load_map(mtext)
        cc = lib.load_coloring(ctext)
        return mm, cc, lib.pipeline(mm, cc, budget)

    def summary(out):
        res = out[2]
        s = Summary(solves=[(v, v, True) for v in res.pfo_values if v is not None],
                    digest=(res.coloring.colors, res.piece_orders, res.pfo_values))
        if recorded_colors is not None:
            s.colorings.append((res.coloring.k, recorded_colors))
        return s

    def check(out):
        mm, cc, res = out
        bad = is_strong_odd(mm.underlying, res.coloring)
        probs = [f"not strong odd: {bad[0]}"] if bad else []
        if res.coloring.k > cc.k * max(res.piece_color_counts):
            probs.append("more colors than the pieces allow")
        return probs

    return Op(name, run, summary, check)


def plane_pipeline(seed: int, pools: dict) -> list:
    rng = random.Random(seed)
    pool = _pool(pools, "plane", inputs.PLANE_STRATA)
    ops = []
    for stratum, row in inputs.systematic_sample(pool, PIPELINE_OPS,
                                                 lambda it: it[1]["colors"] is None,
                                                 lambda it: it[1]["s"], rng):
        ops.append(_pipeline_op(f"pipeline:{stratum}:{row['i']}",
                                inputs.plane_instance(stratum, row["i"]), row["colors"]))
    ops.append(_pipeline_op("pipeline:octahedron", inputs.plane_instance("octahedron", 0),
                            pools["plane"]["octahedron"][0]["colors"]))
    return ops


# ---------------------------------------------------------------------------
# map_surgery: `plane trace|annihilate|claim1|claim2` on large maps
# ---------------------------------------------------------------------------

# The 20 Claim 1 and Claim 2 ops are the slowest fifth of a pass, and
# op_ms_p90 falls among the Claim 1 ops, whose maps are drawn from a
# recorded pool like the search instances.
SURGERY_MAPS, ANNIHILATE_PER_MAP = 20, 3
CLAIM1_OPS = 8
CLAIM2_TREES, CLAIM2_PATHS, CLAIM2_PIECES = 4, 2, 6


def _trace_op(name, m) -> Op:
    text = _map_text(m)

    def run(lib):
        mm = lib.load_map(text)
        fd = lib.trace_faces(mm)
        walks = [planemaps.boundary_walk_vertices(mm, c) for c in fd.faces]
        return mm, fd, walks

    def check(out):
        mm, fd, walks = out
        darts = sorted(d for c in fd.faces for d in c)
        probs = [] if darts == list(mm.darts) else ["faces do not partition the darts"]
        if mm.n - mm.m + len(fd.faces) != 2:
            probs.append("Euler identity fails")
        if [len(w) for w in walks] != [len(c) for c in fd.faces]:
            probs.append("walk lengths differ from face lengths")
        return probs

    return Op(name, run, lambda out: Summary(digest=(len(out[1].faces),)), check)


def _annihilate_op(name, m, v) -> Op:
    text = _map_text(m)

    def run(lib):
        mm = lib.load_map(text)
        return mm, lib.annihilate(mm, v)

    def check(out):
        before, after = out
        probs = annihilation_report(before, v, after)
        if after.n != before.n - 1:
            probs.append("vertex count did not drop by one")
        return probs

    return Op(name, run, lambda out: Summary(digest=(out[1].n, out[1].m)), check)


def _claim1_op(name, m) -> Op:
    phi = inputs.greedy_coloring(m.underlying)
    mtext, ctext = _map_text(m), _coloring_text(phi)

    def run(lib):
        mm = lib.load_map(mtext)
        cc = lib.load_coloring(ctext)
        return cc, lib.decompose_claim1(mm, cc)

    def check(out):
        cc, pieces = out
        if len(pieces) != cc.k:
            return [f"{len(pieces)} pieces for {cc.k} classes"]
        return [f"piece {i} is not its color class" for i, p in enumerate(pieces)
                if sorted(p.labels) != [v for v in range(len(cc)) if cc.colors[v] == i]]

    return Op(name, run,
              lambda out: Summary(digest=tuple((p.n, p.m) for p in out[1])), check)


def _claim2_op(name, m) -> Op:
    text = _map_text(m)

    def run(lib):
        mm = lib.load_map(text)
        return mm, lib.augment_claim2(mm)

    def check(out):
        before, after = out
        probs = [] if is_two_connected(after) else ["result is not 2-connected"]
        if after.n != before.n or not before.underlying.edges <= after.underlying.edges:
            probs.append("input vertices or edges not kept")
        return probs

    return Op(name, run, lambda out: Summary(digest=(out[1].m - out[0].m,)), check)


def _plane_tree(n, rng):
    t = randgen.random_tree(n, rng)
    return planemaps.from_neighbor_rotations([sorted(t.adj[v]) for v in range(n)])


def map_surgery(seed: int, pools: dict) -> list:
    rng = random.Random(seed)
    maps = [randgen.random_planar_map(n, rng)
            for n in stratified(200, 500, SURGERY_MAPS, rng)]
    ops = [_trace_op(f"trace:n{m.n}", m) for m in maps]
    for m in maps:
        for v in rng.sample([v for v in range(m.n) if m.degree(v) >= 2], ANNIHILATE_PER_MAP):
            ops.append(_annihilate_op(f"annihilate:n{m.n}:v{v}", m, v))
    claim1_maps = [inputs.plane_instance(stratum, row["i"])
                   for stratum, row in inputs.systematic_sample(
                       _pool(pools, "claim1", inputs.CLAIM1_STRATA), CLAIM1_OPS,
                       lambda it: False, lambda it: it[1]["s"], rng)]
    ops += [_claim1_op(f"claim1:n{m.n}", m) for m in claim1_maps]
    for n in stratified(100, 120, CLAIM2_TREES, rng):
        ops.append(_claim2_op(f"claim2:tree:n{n}", _plane_tree(n, rng)))
    for n in stratified(100, 120, CLAIM2_PATHS, rng):
        ops.append(_claim2_op(f"claim2:path:n{n}", planemaps.embed_path(n)))
    pieces = []
    for m in claim1_maps[:3]:
        pieces += [p for p in planemaps.decompose_claim1(m, inputs.greedy_coloring(m.underlying))
                   if p.n >= 3]
    # evenly spaced by size, so every seed gets the same spread of pieces
    pieces.sort(key=lambda p: (p.n, p.m))
    for j in range(CLAIM2_PIECES):
        p = pieces[(2 * j + 1) * len(pieces) // (2 * CLAIM2_PIECES)]
        ops.append(_claim2_op(f"claim2:piece:n{p.n}:m{p.m}", p))
    return ops


# ---------------------------------------------------------------------------
# construct_verify: `corpus --family tree|unicyclic`, `color`, `verify`
# ---------------------------------------------------------------------------

# The twelve trees of 4,000-6,000 vertices are the slowest tenth but one
# of a pass, so op_ms_p90 falls among them.
TREE_BANDS = ((1000, 2000, 8), (4000, 6000, 12), (14_000, 16_000, 1))
ODD_TREE_OPS, UNICYCLIC_OPS = 5, 8
# (lo, hi, multiples of 3, others).  The bands leave out the lengths near
# 1000 where the recursive cycle search fails or not depending on the
# caller's stack depth.
CYCLE_BANDS = ((3, 900, 8, 16), (1100, 5000, 6, 12))
PRODUCT_OPS = 10
# two sizes of each parity case of the closed form; fixed, as no seed
# changes a product of complete graphs
DIRECT_PAIRS = ((3, 5), (5, 7), (4, 5), (6, 7), (5, 4), (7, 6), (4, 6), (6, 8))
VERIFIERS = ("is_proper", "is_odd", "is_strong_odd", "is_square_coloring")


def _verify(lib, g, phi) -> tuple:
    """`verify`: all four predicates; a verdict is the violation count."""
    return tuple(len(getattr(lib, name)(g, phi)) for name in VERIFIERS)


def _verdict_problems(verdicts) -> list:
    # strong odd implies odd implies proper
    return [] if verdicts[:3] == (0, 0, 0) else [f"verdicts {verdicts[:3]} not all clean"]


def _construct_op(name, text, color, reference, at_most=False) -> Op:
    """Load a graph, color it with `color(lib, g)`, run the verifiers."""

    def run(lib):
        g = lib.load_graph(text)
        phi = color(lib, g)
        return phi, _verify(lib, g, phi)

    def summary(out):
        return Summary(colorings=[(out[0].k, reference)], digest=(out[0].k, out[1]))

    def check(out):
        phi, verdicts = out
        probs = _verdict_problems(verdicts)
        if phi.k > reference if at_most else phi.k != reference:
            probs.append(f"{phi.k} colors, expected {'at most ' if at_most else ''}{reference}")
        return probs

    return Op(name, run, summary, check)


def _random_unicyclic(n, rng) -> Graph:
    """A random tree plus one edge, drawn in linear time (randgen's
    version lists every non-edge)."""
    t = randgen.random_tree(n, rng)
    while True:
        u, v = rng.sample(range(n), 2)
        if not t.has_edge(u, v):
            return Graph(n, t.edges | {(min(u, v), max(u, v))})


def _cycle_colors(n) -> int:
    return 3 if n % 3 == 0 else 5 if n == 5 else 4


def _path_or_cycle_or_complete(rng):
    kind, n = rng.choice(("path", "cycle", "complete")), rng.randint(3, 5)
    if kind == "path":
        return make_path(n), 3
    if kind == "cycle":
        return make_cycle(n), _cycle_colors(n)
    return make_complete(n), n


def _product_op(name, left, k_left, right, k_right, kind) -> Op:
    """`color --method product`: solve both factors, compose, verify."""
    ltext, rtext = _graph_text(left), _graph_text(right)
    budget = _budget(inputs.SOLVE_NODES)
    reference = None if kind == "lexicographic" else k_left * k_right

    def run(lib):
        g, h = lib.load_graph(ltext), lib.load_graph(rtext)
        res_g = lib.chi_so_exact(g, budget)
        if kind == "lexicographic":
            res_h = lib.chi_so_exact(join(make_complete(1), h), budget)
            phi = lib.compose_lexicographic(g, res_g.witness, h, res_h.witness)
        else:
            res_h = lib.chi_so_exact(h, budget)
            phi = lib.compose_product_coloring(g, res_g.witness, h, res_h.witness, kind)
        gh = product(g, h, kind)
        return res_g, res_h, phi, _verify(lib, gh, phi)

    def summary(out):
        res_g, res_h, phi, verdicts = out
        s = Summary(solves=[(r.lo, r.hi, r.optimal) for r in (res_g, res_h)],
                    digest=(phi.k, verdicts),
                    nodes=res_g.nodes_explored + res_h.nodes_explored)
        if reference is not None:
            s.colorings.append((phi.k, reference))
        return s

    def check(out):
        res_g, res_h, phi, verdicts = out
        probs = _verdict_problems(verdicts)
        if res_g.value != k_left:
            probs.append(f"left factor solved to {res_g.value}, expected {k_left}")
        if kind != "lexicographic" and res_h.value != k_right:
            probs.append(f"right factor solved to {res_h.value}, expected {k_right}")
        return probs

    return Op(name, run, summary, check)


def _direct_colors(p, q) -> int:
    if p % 2 and q % 2:
        return p * q
    if p % 2 or q % 2:
        return p if p % 2 else q
    return min(p, q)


def _nordhaus_op(k, which) -> Op:
    m = 2 * k + 1
    reference = m if which == "H1" else m * m

    def run(lib):
        g, phi, phi_c = lib.nordhaus_gaddum(k, which)
        return phi, phi_c, _verify(lib, g, phi), _verify(lib, complement(g), phi_c)

    def summary(out):
        return Summary(colorings=[(out[0].k, reference), (out[1].k, reference)],
                       digest=(out[0].k, out[1].k, out[2], out[3]))

    def check(out):
        probs = _verdict_problems(out[2]) + _verdict_problems(out[3])
        if (out[0].k, out[1].k) != (reference, reference):
            probs.append(f"colors {out[0].k}/{out[1].k}, expected {reference}")
        return probs

    return Op(f"ng:{which}:k{k}", run, summary, check)


def construct_verify(seed: int, pools: dict) -> list:
    rng = random.Random(seed)
    ops = []
    for lo, hi, count in TREE_BANDS:
        for n in stratified(lo, hi, count, rng):
            t = randgen.random_tree(n, rng)
            odd = all(len(a) % 2 for a in t.adj)
            ops.append(_construct_op(f"tree:n{t.n}", _graph_text(t),
                                     lambda lib, g: lib.color_tree(g), 2 if odd else 3))
    for grows in stratified(500, 1000, ODD_TREE_OPS, rng):
        t = randgen.random_odd_tree(grows, rng)
        ops.append(_construct_op(f"oddtree:n{t.n}", _graph_text(t),
                                 lambda lib, g: lib.color_tree(g), 2))
    for n in stratified(1000, 2000, UNICYCLIC_OPS, rng):
        u = _random_unicyclic(n, rng)
        ops.append(_construct_op(f"unicyclic:n{u.n}", _graph_text(u),
                                 lambda lib, g: lib.color_unicyclic(g), 4, at_most=True))
    lengths = {5}
    for lo, hi, threes, others in CYCLE_BANDS:
        for want_three, count in ((True, threes), (False, others)):
            lengths.update(stratified(
                lo, hi, count, rng,
                lambda n: (n % 3 == 0) == want_three and n not in lengths))
    for n in sorted(lengths):
        ops.append(_construct_op(f"cycle:n{n}", _graph_text(make_cycle(n)),
                                 lambda lib, g: lib.color_cycle(g.n), _cycle_colors(n)))
    kinds = ("cartesian", "direct", "strong", "lexicographic")
    for j in range(PRODUCT_OPS):
        (g, kg), (h, kh) = _path_or_cycle_or_complete(rng), _path_or_cycle_or_complete(rng)
        kind = kinds[j % len(kinds)]
        ops.append(_product_op(f"product:{kind}:{j}", g, kg, h, kh, kind))
    for p, q in DIRECT_PAIRS:
        text = _graph_text(product(make_complete(p), make_complete(q), "direct"))
        ops.append(_construct_op(f"direct:{p}x{q}", text,
                                 lambda lib, g, p=p, q=q: lib.color_direct_complete(p, q),
                                 _direct_colors(p, q)))
    ops += [_nordhaus_op(k, which) for k in (1, 2, 3) for which in ("H1", "H2")]
    ops.append(_construct_op("c5box", _graph_text(inputs.torus_c5()),
                             lambda lib, g: lib.c5_box_c5_table(), 5))
    return ops


WORKLOADS = {
    "solve_mix": solve_mix,
    "plane_pipeline": plane_pipeline,
    "map_surgery": map_surgery,
    "construct_verify": construct_verify,
}
