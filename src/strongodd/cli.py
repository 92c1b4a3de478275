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
import os
import random
import sys
import time

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
    _write_json,
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
                print(f"{indent}{key}: {_spell(val)}")
    elif isinstance(obj, list) and all(map(_is_flat, obj)):  # one flat list per line
        for item in obj:
            print(f"{indent}{_spell(item)}")
    elif isinstance(obj, list):
        for item in obj:
            _print_table(item, indent)
            print()
    else:
        print(f"{indent}{_spell(obj)}")


def _spell(val):
    """A scalar or flat list as the JSON output spells it (null, false,
    ["a"]); a string stays bare."""
    return val if isinstance(val, str) else json.dumps(val, default=list)


def _is_flat(val):
    if isinstance(val, list):
        return all(not isinstance(x, (dict, list)) for x in val)
    return False


# The most vertices plus edges that a command builds from its size flags
# (a coloring alone counts its vertices): ten times the largest size in
# the README, tests and CI, gen --family path --n 50000.  K_450, at a
# tenth of it, takes about 0.7 s and 62 MB.
MAX_SIZE = 1_000_000


def _check_size(flags: str, size: int) -> None:
    """Refuse more than MAX_SIZE before anything is built.  Callers size
    a negative flag as 0, so that its builder refuses it."""
    if size > MAX_SIZE:
        raise ValueError(f"{flags} too large: {size:,} vertices and edges, "
                         f"above the limit of {MAX_SIZE:,}")


def _product_size(g, h, kind: str) -> int:
    cartesian, direct = g.n * h.m + g.m * h.n, 2 * g.m * h.m
    return g.n * h.n + {"cartesian": cartesian, "direct": direct, "strong": cartesian + direct,
                        "lexicographic": g.n * h.m + g.m * h.n * h.n}[kind]


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

# family -> (builder, vertices plus edges) for the families sized by --n
_GEN_BY_N = {
    "path": (make_path, lambda n: 2 * n - 1),
    "cycle": (make_cycle, lambda n: 2 * n),
    "complete": (make_complete, lambda n: n + n * (n - 1) // 2),
    "star": (make_star, lambda n: 2 * n + 1),
}


def cmd_gen(args) -> int:
    if args.family == "gallery":
        try:
            g = gallery_entry(args.name).graph
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    elif args.family in _GEN_BY_N:
        build, size = _GEN_BY_N[args.family]
        _check_size("--n", size(max(args.n, 0)))
        g = build(args.n)
    else:  # complete-bipartite or complete-multipartite
        need = "2" if args.family == "complete-bipartite" else "1 or more"
        try:
            parts = [int(x) for x in args.parts.split(",")]
        except ValueError:
            parts = [0]
        if min(parts) < 1 or (need == "2" and len(parts) != 2):
            raise ValueError(f"--parts must be {need} positive sizes, separated by commas")
        n = sum(parts)
        _check_size("--parts", n + (n * n - sum(p * p for p in parts)) // 2)
        g = make_complete_multipartite(parts)
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
            "violations": [v._asdict() for v in violations],
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
    if args.k is not None:
        if args.param != "so":
            raise ValueError("decision mode (--k) is available for --param so")
        res = solver.is_k_strong_odd_colorable(g, args.k, args.budget)
        out = {
            "k": args.k,
            "status": res.status,
            "witness": list(res.witness.colors) if res.witness is not None else None,
            "nodes": res.nodes_explored,
            "ms": round(res.elapsed * 1000, 3),
        }
        _emit(out, args.format)
        return 0 if res.status != "unknown" else 1
    res = _SOLVERS[args.param](g, args.budget)
    out = {
        "value": res.value,
        "optimal": res.optimal,
        "witness": list(res.witness.colors),
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

def _optimal_factor_coloring(name, g, budget):
    """An optimal strong odd coloring of a product factor, or None after
    an error line when the budget runs out first."""
    res = solver.chi_so_exact(g, budget)
    if res.optimal:
        return res.witness
    print(f"error: {name} factor: budget exhausted with chi_so in "
          f"[{res.lo}, {res.hi}]", file=sys.stderr)
    return None


def cmd_color(args) -> int:
    log = []
    out = {}
    if args.method in ("tree", "unicyclic") and not args.graph:
        raise ValueError(f"--method {args.method} requires --graph")
    if args.method == "product" and not (args.left and args.right):
        raise ValueError("--method product requires --left and --right")
    if args.method == "tree":
        g = load_json(args.graph)
        phi = constructive.color_tree(g, log)
    elif args.method == "cycle":
        _check_size("--n", args.n)
        phi = constructive.color_cycle(args.n, log)
    elif args.method == "unicyclic":
        g = load_json(args.graph)
        phi = constructive.color_unicyclic(g, log)
    elif args.method == "c5box":
        phi = constructive.c5_box_c5_table()
        log.append("fixed 5-color grid assignment")
    elif args.method == "direct-complete":
        _check_size("--p and --q", max(args.p, 0) * max(args.q, 0))
        phi = constructive.color_direct_complete(args.p, args.q)
        log.append(f"direct product of complete graphs on {args.p} and {args.q}")
    elif args.method == "product":
        left = load_json(args.left)
        right = load_json(args.right)
        _check_size("--left and --right", _product_size(left, right, args.kind))
        phi_l = _optimal_factor_coloring("left", left, args.budget)
        if phi_l is None:
            return 1
        if args.kind == "lexicographic":
            apex = _optimal_factor_coloring(
                "right (with apex)", join(make_complete(1), right), args.budget
            )
            if apex is None:
                return 1
            phi = constructive.compose_lexicographic(left, phi_l, right, apex)
        else:
            phi_r = _optimal_factor_coloring("right", right, args.budget)
            if phi_r is None:
                return 1
            phi = constructive.compose_product_coloring(
                left, phi_l, right, phi_r, args.kind
            )
        log.append(f"composed optimal factor colorings for the {args.kind} product")
        out["graph"] = to_json_dict(product(left, right, args.kind))
    else:  # ng
        m = 2 * max(args.k, 0) + 1  # H1 is m copies of K_m, H2 is K_m box K_m
        _check_size("--k", m * m + m * m * (m - 1) // (2 if args.which == "H1" else 1))
        g, phi, phi_c = constructive.nordhaus_gaddum(args.k, args.which)
        log.append(f"complementary-pair construction {args.which} at k={args.k}")
        out["graph"] = to_json_dict(g)
        out["complement_colors"] = list(phi_c.colors)
    out.update(coloring_to_json_dict(phi))
    out["provenance"] = log
    _emit(out, args.format)
    return 0


# ---------------------------------------------------------------------------
# product
# ---------------------------------------------------------------------------

def cmd_product(args) -> int:
    g = load_json(args.left)
    h = load_json(args.right)
    _check_size("--left and --right", _product_size(g, h, args.kind))
    _emit(to_json_dict(product(g, h, args.kind)), args.format)
    return 0


# ---------------------------------------------------------------------------
# plane
# ---------------------------------------------------------------------------

def cmd_plane(args) -> int:
    if args.action in ("claim1", "pipeline") and args.coloring is None:
        raise ValueError(f"plane {args.action} needs --coloring")
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
    else:  # pipeline
        phi = load_coloring(args.coloring)
        res = planemaps.strong_odd_via_planar_detailed(m, phi, args.budget)
        out = {
            "colors": list(res.coloring.colors),
            "piece_orders": list(res.piece_orders),
            "piece_color_counts": list(res.piece_color_counts),
        }
    _emit(out, args.format)
    return 0


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

def run_gallery(budget: solver.Budget) -> list[dict]:
    """Certify every gallery entry and the two small reference rows; one
    row each."""
    rows = []
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
        rows.append(row)
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
    rows.append(row)
    k23 = make_complete_bipartite(2, 3)
    so = solver.chi_so_exact(k23, budget).value
    sq = solver.chi_square_exact(k23, budget).value
    rows.append({
        "name": "K_{2,3}",
        "expected": {"chi_so": "<= 4", "chi_square": 5},
        "computed": {"chi_so": so, "chi_square": sq},
        "pass": so is not None and so <= 4 and sq == 5,
    })
    return rows


def cmd_gallery(args) -> int:
    rows = run_gallery(args.budget)
    passed = all(r["pass"] for r in rows)
    _emit({"rows": rows, "pass": passed}, args.format)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

_CORPUS_MIN_SIZE = {"tree": 2, "unicyclic": 3, "planar_embedded": 4, "general": 1}


def cmd_corpus(args) -> int:
    low = _CORPUS_MIN_SIZE[args.family]
    if args.size < low:
        raise ValueError(f"--size must be at least {low} for --family {args.family}")
    if args.count < 0:
        raise ValueError("--count must be at least 0")
    rng = random.Random(args.seed)
    failures = []
    items = []
    for i in range(args.count):
        if args.family == "tree":
            g = randgen.random_tree(rng.randint(low, args.size), rng)
            phi = constructive.color_tree(g)
            ok = not is_strong_odd(g, phi) and (
                (phi.k == 2) == constructive.is_odd_tree(g)
            )
            items.append((g, phi, ok))
        elif args.family == "unicyclic":
            g = randgen.random_unicyclic(rng.randint(low, args.size), rng)
            phi = constructive.color_unicyclic(g)
            dec = constructive.decompose_unicyclic(g)
            cap = 5 if (len(dec.cycle) == 5 and not dec.pendant_roots) else 4
            ok = not is_strong_odd(g, phi) and phi.k <= cap
            items.append((g, phi, ok))
        elif args.family == "general":
            n = rng.randint(low, min(args.size, 8))
            g = randgen.random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng)
            ok = solver.chi_so_exact(g).value == solver.brute_force_chi_so(g)
            items.append((g, None, ok))
        elif args.family == "planar_embedded":
            n = rng.randint(low, min(args.size, 14))
            pm = randgen.random_planar_map(n, rng)
            phi = solver.chi_exact(pm.underlying).witness
            res = planemaps.strong_odd_via_planar_detailed(pm, phi)
            ok = res.coloring.k <= phi.k * max(res.piece_color_counts)
            items.append((pm.underlying, res.coloring, ok))
        if not items[-1][2]:
            failures.append(i)
    if args.out:
        import pathlib

        outdir = pathlib.Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, (g, phi, _) in enumerate(items):
            data = to_json_dict(g)
            if phi is not None:
                data["colors"] = list(phi.colors)
            _write_json(outdir / f"{args.family}_{i:04d}.json", data)
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

    def add_budget(p, nodes=True):
        if nodes:
            p.add_argument("--max-nodes", type=int, default=solver.Budget.max_nodes)
        p.add_argument("--max-time", type=float, default=solver.Budget.max_time)

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
    add_budget(p)
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
    add_budget(p, nodes=False)
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
    add_budget(p, nodes=False)
    add_fmt(p)
    p.set_defaults(func=cmd_plane)

    p = sub.add_parser("gallery", help="certify the named extremal graphs")
    add_budget(p)
    add_fmt(p)
    p.set_defaults(func=cmd_gallery)

    p = sub.add_parser("corpus", help="seeded random corpora with checks")
    p.add_argument("--family", required=True,
                   choices=["tree", "unicyclic", "planar_embedded", "general"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--size", type=int, default=40,
                   help="largest order drawn; general stops at 8 and planar_embedded at 14")
    p.add_argument("--out", default=None)
    add_fmt(p)
    p.set_defaults(func=cmd_corpus)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the subcommand's budget options, checked by Budget itself
        args.budget = solver.Budget(**{
            name: getattr(args, name) for name in ("max_nodes", "max_time") if name in vars(args)
        })
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout, so nothing is left to report: point
        # stdout at devnull for the interpreter's last flush, and exit as
        # a shell reports a writer killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
