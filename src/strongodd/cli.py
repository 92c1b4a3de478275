"""Command-line front end.

Subcommands: gen, verify, solve, color, product, plane, gallery, corpus.
Graphs, colorings and maps travel as JSON ({"n", "edges"}, {"colors"},
and the dart/rotation map format).  Every command is deterministic given
its inputs, seed and budget; the exit code is 0 iff all requested checks
pass.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field

from . import constructive, planemaps, randgen, solver
from .gallery import check_structural_constraints, gallery as gallery_entry, gallery_names
from .colorings import (
    coloring_to_json_dict,
    is_odd,
    is_proper,
    is_square_coloring,
    is_strong_odd,
    load_coloring,
)
from .graphs import (
    join,
    load_json,
    make_complete,
    make_complete_bipartite,
    make_complete_multipartite,
    make_cycle,
    make_path,
    make_star,
    product,
    to_json_dict,
)


def _emit(obj, fmt):
    if fmt == "json":
        print(json.dumps(obj, indent=2, default=list))
    else:
        _print_table(obj)


def _print_table(obj, indent=""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            if isinstance(val, (dict, list)) and val and not _is_flat(val):
                print(f"{indent}{key}:")
                _print_table(val, indent + "  ")
            else:
                print(f"{indent}{key}: {val}")
    elif isinstance(obj, list):
        for item in obj:
            _print_table(item, indent)
            print()
    else:
        print(f"{indent}{obj}")


def _is_flat(val):
    if isinstance(val, list):
        return all(not isinstance(x, (dict, list)) for x in val)
    return False


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.family == "path":
        g = make_path(args.n)
    elif args.family == "cycle":
        g = make_cycle(args.n)
    elif args.family == "complete":
        g = make_complete(args.n)
    elif args.family == "star":
        g = make_star(args.n)
    elif args.family == "complete-bipartite":
        m, n = (int(x) for x in args.parts.split(","))
        g = make_complete_bipartite(m, n)
    elif args.family == "complete-multipartite":
        g = make_complete_multipartite([int(x) for x in args.parts.split(",")])
    elif args.family == "gallery":
        g = gallery_entry(args.name).graph
    else:
        raise SystemExit(f"unknown family {args.family}")
    _emit(to_json_dict(g), args.format)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_PREDICATES = {
    "proper": is_proper,
    "odd": is_odd,
    "so": is_strong_odd,
    "square": is_square_coloring,
}


def cmd_verify(args) -> int:
    g = load_json(args.graph)
    phi = load_coloring(args.coloring)
    report = {}
    for name, pred in _PREDICATES.items():
        violations = pred(g, phi)
        report[name] = {
            "holds": not violations,
            "violations": [vars(v) for v in violations],
        }
    _emit({"k": phi.k, "verdicts": report}, args.format)
    return 0 if report[args.require]["holds"] else 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

_SOLVERS = {
    "chi": solver.chi_exact,
    "odd": solver.chi_odd_exact,
    "so": solver.chi_so_exact,
    "square": solver.chi_square_exact,
}


def cmd_solve(args) -> int:
    g = load_json(args.graph)
    budget = solver.Budget(max_nodes=args.max_nodes, max_time=args.max_time)
    if args.k is not None:
        if args.param != "so":
            raise SystemExit("decision mode (--k) is available for --param so")
        res = solver.is_k_strong_odd_colorable(g, args.k, budget)
        out = {
            "k": args.k,
            "status": res.status,
            "witness": list(res.witness.colors) if res.witness else None,
            "nodes": res.nodes_explored,
            "ms": round(res.elapsed * 1000, 3),
        }
        _emit(out, args.format)
        return 0 if res.status != "unknown" else 1
    res = _SOLVERS[args.param](g, budget)
    out = {
        "value": res.value,
        "optimal": res.optimal,
        "witness": list(res.witness.colors) if res.witness else None,
        "nodes": res.nodes_explored,
        "ms": round(res.elapsed * 1000, 3),
    }
    if res.value is None:
        out["bracket"] = [res.lo, res.hi]
    _emit(out, args.format)
    return 0 if res.value is not None else 1


# ---------------------------------------------------------------------------
# color
# ---------------------------------------------------------------------------

def cmd_color(args) -> int:
    log = constructive.ProvenanceLog()
    out = {}
    if args.method in ("tree", "unicyclic") and not args.graph:
        raise SystemExit(f"--method {args.method} requires --graph")
    if args.method == "product" and not (args.left and args.right):
        raise SystemExit("--method product requires --left and --right")
    if args.method == "tree":
        g = load_json(args.graph)
        phi = constructive.color_tree(g, log)
    elif args.method == "cycle":
        phi = constructive.color_cycle(args.n, log)
    elif args.method == "unicyclic":
        g = load_json(args.graph)
        phi = constructive.color_unicyclic(g, log)
    elif args.method == "c5box":
        phi = constructive.c5_box_c5_table()
        log.note("fixed 5-color grid assignment")
    elif args.method == "direct-complete":
        phi = constructive.color_direct_complete(args.p, args.q)
        log.note(f"direct product of complete graphs on {args.p} and {args.q}")
    elif args.method == "product":
        left = load_json(args.left)
        right = load_json(args.right)
        budget = solver.Budget(max_time=args.max_time)
        phi_l = solver.chi_so_exact(left, budget).witness
        if args.kind == "lexicographic":
            apex = solver.chi_so_exact(
                join(make_complete(1), right), budget
            ).witness
            phi = constructive.compose_lexicographic(left, phi_l, right, apex)
        else:
            phi_r = solver.chi_so_exact(right, budget).witness
            phi = constructive.compose_product_coloring(
                left, phi_l, right, phi_r, args.kind
            )
        log.note(f"composed optimal factor colorings for the {args.kind} product")
        out["graph"] = to_json_dict(product(left, right, args.kind))
    elif args.method == "ng":
        g, phi, phi_c = constructive.nordhaus_gaddum(args.k, args.which)
        log.note(f"complementary-pair construction {args.which} at k={args.k}")
        out["graph"] = to_json_dict(g)
        out["complement_colors"] = list(phi_c.colors)
    else:
        raise SystemExit(f"unknown method {args.method}")
    out.update(coloring_to_json_dict(phi))
    out["provenance"] = log.events
    _emit(out, args.format)
    return 0


# ---------------------------------------------------------------------------
# product
# ---------------------------------------------------------------------------

def cmd_product(args) -> int:
    g = load_json(args.left)
    h = load_json(args.right)
    _emit(to_json_dict(product(g, h, args.kind)), args.format)
    return 0


# ---------------------------------------------------------------------------
# plane
# ---------------------------------------------------------------------------

def cmd_plane(args) -> int:
    m = planemaps.load_map(args.map)
    if args.action == "trace":
        fd = planemaps.trace_faces(m)
        out = {
            "faces": [list(c) for c in fd.faces],
            "boundary_vertices": [sorted(s) for s in fd.boundary_vertices],
            "walks": [planemaps.boundary_walk_vertices(m, c) for c in fd.faces],
        }
    elif args.action == "annihilate":
        out = planemaps.map_to_json_dict(planemaps.annihilate(m, args.vertex))
    elif args.action == "claim1":
        phi = load_coloring(args.coloring)
        pieces = planemaps.decompose_claim1(m, phi)
        out = [
            {"labels": list(p.labels), **planemaps.map_to_json_dict(p)}
            for p in pieces
        ]
    elif args.action == "claim2":
        out = planemaps.map_to_json_dict(planemaps.augment_claim2(m))
    elif args.action == "pipeline":
        phi = load_coloring(args.coloring)
        budget = solver.Budget(max_time=args.max_time)
        res = planemaps.strong_odd_via_planar_detailed(m, phi, budget)
        out = {
            "colors": list(res.coloring.colors),
            "piece_orders": list(res.piece_orders),
            "piece_color_counts": list(res.piece_color_counts),
        }
    else:
        raise SystemExit(f"unknown plane action {args.action}")
    _emit(out, args.format)
    return 0


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

@dataclass
class GalleryReport:
    rows: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r["pass"] for r in self.rows)


def run_gallery(budget: solver.Budget) -> GalleryReport:
    """Certify every gallery entry and the two small reference rows."""
    report = GalleryReport()
    for name in gallery_names():
        entry = gallery_entry(name)
        row = {"name": name, "expected": dict(entry.expected)}
        t0 = time.monotonic()
        problems = check_structural_constraints(entry)
        computed = {}
        res = solver.chi_so_exact(entry.graph, budget)
        computed["chi_so"] = res.value
        row["optimal"] = res.optimal
        if entry.graph.n <= 12:
            computed["chi"] = solver.chi_exact(entry.graph, budget).value
            computed["chi_odd"] = solver.chi_odd_exact(entry.graph, budget).value
            computed["chi_square"] = solver.chi_square_exact(entry.graph, budget).value
        row["computed"] = computed
        row["runtime_s"] = round(time.monotonic() - t0, 3)
        row["pass"] = not problems and all(
            computed.get(k) == v for k, v in entry.expected.items()
        )
        if problems:
            row["constraint_violations"] = problems
        report.rows.append(row)
    # reference rows: the five-cycle and the (2,3) complete bipartite graph
    c5 = make_cycle(5)
    row = {
        "name": "C5",
        "expected": {"chi_odd": 5, "chi_so": 5},
        "computed": {
            "chi_odd": solver.chi_odd_exact(c5, budget).value,
            "chi_so": solver.chi_so_exact(c5, budget).value,
        },
    }
    row["pass"] = row["computed"] == row["expected"]
    report.rows.append(row)
    k23 = make_complete_bipartite(2, 3)
    so = solver.chi_so_exact(k23, budget).value
    sq = solver.chi_square_exact(k23, budget).value
    report.rows.append({
        "name": "K_{2,3}",
        "expected": {"chi_so": "<= 4", "chi_square": 5},
        "computed": {"chi_so": so, "chi_square": sq},
        "pass": so <= 4 and sq == 5,
    })
    return report


def cmd_gallery(args) -> int:
    budget = solver.Budget(max_nodes=args.max_nodes, max_time=args.max_time)
    if args.extended:
        budget = solver.Budget(max_nodes=10**9, max_time=1800.0)
    report = run_gallery(budget)
    _emit({"rows": report.rows, "pass": report.passed}, args.format)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def cmd_corpus(args) -> int:
    rng = random.Random(args.seed)
    failures = []
    items = []
    for i in range(args.count):
        if args.family == "tree":
            g = randgen.random_tree(rng.randint(2, args.size), rng)
            phi = constructive.color_tree(g)
            ok = not is_strong_odd(g, phi) and (
                (phi.k == 2) == constructive.is_odd_tree(g)
            )
            items.append((g, phi, ok))
        elif args.family == "unicyclic":
            g = randgen.random_unicyclic(rng.randint(3, args.size), rng)
            phi = constructive.color_unicyclic(g)
            dec = constructive.decompose_unicyclic(g)
            cap = 5 if (len(dec.cycle) == 5 and not dec.pendant_roots) else 4
            ok = not is_strong_odd(g, phi) and phi.k <= cap
            items.append((g, phi, ok))
        elif args.family == "general":
            n = rng.randint(1, min(args.size, 8))
            g = randgen.random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng)
            ok = solver.chi_so_exact(g).value == solver.brute_force_chi_so(g)
            items.append((g, None, ok))
        elif args.family == "planar_embedded":
            n = rng.randint(4, min(args.size, 14))
            pm = randgen.random_planar_map(n, rng)
            phi = solver.chi_exact(pm.underlying).witness
            res = planemaps.strong_odd_via_planar_detailed(pm, phi)
            ok = res.coloring.k <= phi.k * max(res.piece_color_counts)
            items.append((pm.underlying, res.coloring, ok))
        else:
            raise SystemExit(f"unknown family {args.family}")
        if not items[-1][2]:
            failures.append(i)
    if args.out:
        import pathlib

        outdir = pathlib.Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, (g, phi, _) in enumerate(items):
            with open(outdir / f"{args.family}_{i:04d}.json", "w") as fh:
                data = to_json_dict(g)
                if phi is not None:
                    data["colors"] = list(phi.colors)
                json.dump(data, fh)
                fh.write("\n")
    _emit(
        {
            "family": args.family,
            "seed": args.seed,
            "count": args.count,
            "failures": failures,
            "pass": not failures,
        },
        args.format,
    )
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="strongodd")
    sub = top.add_subparsers(dest="command", required=True)

    def add_fmt(p):
        p.add_argument("--format", choices=["json", "table"], default="json")

    p = sub.add_parser("gen", help="generate a named graph family")
    p.add_argument("--family", required=True,
                   choices=["path", "cycle", "complete", "star",
                            "complete-bipartite", "complete-multipartite",
                            "gallery"])
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--parts", default="")
    p.add_argument("--name", default="")
    add_fmt(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run all four coloring verifiers")
    p.add_argument("--graph", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--require", choices=list(_PREDICATES), default="proper")
    add_fmt(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="exact chromatic-style parameters")
    p.add_argument("--graph", required=True)
    p.add_argument("--param", choices=list(_SOLVERS), default="so")
    p.add_argument("--k", type=int, default=None,
                   help="decide a single k instead of minimizing")
    p.add_argument("--max-nodes", type=int, default=10**8)
    p.add_argument("--max-time", type=float, default=60.0)
    add_fmt(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("color", help="constructive colorings")
    p.add_argument("--method", required=True,
                   choices=["tree", "cycle", "unicyclic", "product",
                            "direct-complete", "c5box", "ng"])
    p.add_argument("--graph")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--which", choices=["H1", "H2"], default="H1")
    p.add_argument("--kind", choices=["cartesian", "direct", "strong",
                                      "lexicographic"], default="cartesian")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--max-time", type=float, default=60.0)
    add_fmt(p)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("product", help="build one of the four graph products")
    p.add_argument("--kind", required=True,
                   choices=["cartesian", "direct", "strong", "lexicographic"])
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    add_fmt(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("plane", help="combinatorial map operations")
    p.add_argument("action", choices=["trace", "annihilate", "claim1",
                                      "claim2", "pipeline"])
    p.add_argument("--map", required=True)
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--coloring")
    p.add_argument("--max-time", type=float, default=60.0)
    add_fmt(p)
    p.set_defaults(func=cmd_plane)

    p = sub.add_parser("gallery", help="certify the named extremal graphs")
    p.add_argument("--max-nodes", type=int, default=10**8)
    p.add_argument("--max-time", type=float, default=60.0)
    p.add_argument("--extended", action="store_true",
                   help="use the long certification budget (30 minutes)")
    add_fmt(p)
    p.set_defaults(func=cmd_gallery)

    p = sub.add_parser("corpus", help="seeded random corpora with checks")
    p.add_argument("--family", required=True,
                   choices=["tree", "unicyclic", "planar_embedded", "general"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--size", type=int, default=40)
    p.add_argument("--out", default=None)
    add_fmt(p)
    p.set_defaults(func=cmd_corpus)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
