"""Polynomial-time strong odd coloring constructions.

Covers trees (2 or 3 colors), cycles, connected unicyclic graphs (at
most 4 colors except the bare five-cycle), coloring compositions for the
four graph products, optimal colorings of direct products of complete
graphs, the five-color grid coloring of the five-cycle Cartesian square,
and the complementary-pair witnesses.  Trees and unicyclic graphs share
one parity rule: breadth-first, the uncolored neighbors of a colored
vertex v copy one color x, and the smallest takes another color y
exactly when x's count in N(v) would otherwise be even.  The tree, cycle
and unicyclic constructions append their case decisions to log, a plain
list of strings, when one is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .colorings import Coloring, is_strong_odd
from .graphs import Graph, disjoint_union, join, make_complete, product


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class RootedTreePlan:
    root: int
    parent: tuple[int, ...]  # -1 for the root
    bfs_order: tuple[int, ...]


def plan_rooted_tree(t: Graph) -> RootedTreePlan:
    """The breadth-first walk from vertex 0 (Graph.bfs).  It is also the
    tree check: n - 1 edges and every vertex reached."""
    if t.m != t.n - 1:
        raise ConstructionError("input is not a tree")
    order, parent = t.bfs([0])
    if len(order) != t.n:
        raise ConstructionError("input is not a tree")
    return RootedTreePlan(0, tuple(parent), tuple(order))


def is_odd_tree(t: Graph) -> bool:
    """True iff every vertex degree is odd."""
    plan_rooted_tree(t)  # raises ConstructionError unless t is a tree
    return all(t.degree(v) % 2 == 1 for v in range(t.n))


def _color_children(
    adj, parent: Sequence[int], order: Sequence[int], colors, avoid: Sequence[int]
) -> None:
    """Color the vertices of order, each a child of a colored vertex v,
    in one pass, by the parity rule: v's children all take a color x,
    and the smallest takes y exactly when x's count in N(v) would
    otherwise be even.  order is breadth-first with neighbors in
    increasing order, so v's children are consecutive, smallest first.
    The palette at v is 0..3 without avoid[v].  When v's parent has a
    palette color, x is that color, counted once, and y is the palette
    color missing from v and its parent.  At a root (no parent, or one
    outside the palette) x < y are the two palette colors other than
    v's.  Either way y is 6 - avoid[v] - colors[v] - x."""
    prev = -1
    for u in order:
        v = parent[u]
        if v != prev:
            prev = v
            p, a = parent[v], avoid[v]
            x = colors[p] if p >= 0 else a
            count = len(adj[v])  # x's count in N(v) once every child takes x
            if x == a:  # a root: no parent, or one outside the palette
                x = min({0, 1, 2, 3} - {a, colors[v]})
                count -= p >= 0  # such a parent's color is not x
            if not count & 1:
                colors[u] = 6 - a - colors[v] - x
                continue
        colors[u] = x


def color_tree(t: Graph, log: Optional[list[str]] = None) -> Coloring:
    """Strong odd coloring of a tree with 2 colors if it is odd, else 3.

    The root takes 0 and the palette is 0..2.  Breadth-first, each
    vertex's children copy one color x, and the smallest takes the third
    color when x's count in the vertex's neighborhood would be even: x is
    the parent's color, and 1 at the root.
    """
    log = [] if log is None else log
    plan = plan_rooted_tree(t)
    colors = [-1] * t.n
    colors[plan.root] = 0
    degree = len(t.adj[plan.root])
    if degree % 2:
        log.append(f"root {plan.root}: odd degree, monochromatic neighborhood")
    elif degree:
        log.append(f"root {plan.root}: even degree, one neighbor recolored")
    _color_children(t.adj, plan.parent, plan.bfs_order[1:], colors, (3,) * t.n)
    return Coloring(tuple(colors))


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------

def cycle_pattern(n: int) -> tuple[int, ...]:
    """Color sequence along a cycle: (012)* when 3 divides n, the rainbow
    01234 for n = 5, otherwise (012)* ending in 0123 (n = 1 mod 3) or in
    03123 (n = 2 mod 3).  Any three cyclically consecutive colors differ,
    so every neighborhood is rainbow."""
    if n < 3:
        raise ConstructionError("cycle needs at least three vertices")
    if n == 5:
        return (0, 1, 2, 3, 4)
    tail = ((), (0, 1, 2, 3), (0, 3, 1, 2, 3))[n % 3]
    return (0, 1, 2) * ((n - len(tail)) // 3) + tail


def color_cycle(n: int, log: Optional[list[str]] = None) -> Coloring:
    """Strong odd coloring of the cycle on vertices 0..n-1 in cycle order."""
    log = [] if log is None else log
    pat = cycle_pattern(n)
    log.append(f"cycle {n}: {max(pat) + 1} colors")
    return Coloring(pat)


# ---------------------------------------------------------------------------
# Unicyclic graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnicycleDecomposition:
    cycle: tuple[int, ...]
    pendant_roots: dict[int, tuple[int, ...]]  # cycle vertex -> off-cycle nbrs
    parent: tuple[int, ...]  # neighbor toward the cycle; -1 on the cycle
    forest_order: tuple[int, ...]  # off-cycle vertices breadth-first, roots first


def decompose_unicyclic(g: Graph) -> UnicycleDecomposition:
    """Locate the unique cycle by leaf stripping, then walk the pendant
    forest breadth-first from the cycle (Graph.bfs).  With m = n, every
    vertex left after stripping must keep two neighbors: that refuses a
    vertex on two cycles or an isolated one, keeps the walk around the
    cycle from looping, and leaves one cycle per component, so the walk
    from the cycle reaches every vertex iff the input is connected."""
    n = g.n
    if not n or g.m != n:
        raise ConstructionError("input is not a connected unicyclic graph")
    adj = g.adj
    deg = [len(a) for a in adj]
    alive = [True] * n
    queue = [v for v in range(n) if deg[v] == 1]
    for v in queue:  # the list is the queue: it grows while it is read
        alive[v] = False
        for u in adj[v]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] == 1:
                    queue.append(u)
    if any(d != 2 for d, a in zip(deg, alive) if a):  # d: neighbors left
        raise ConstructionError("input is not a connected unicyclic graph")
    # around the cycle from its least vertex, toward its smaller neighbor
    start = alive.index(True)
    seq = [start, min(u for u in adj[start] if alive[u])]
    while (nxt := next(u for u in adj[seq[-1]] if alive[u] and u != seq[-2])) != start:
        seq.append(nxt)
    order, parent = g.bfs(seq)
    if len(order) != n:
        raise ConstructionError("input is not a connected unicyclic graph")
    pendant_roots = {x: tuple(sorted(u for u in adj[x] if not alive[u]))
                     for x in seq if len(adj[x]) > 2}
    return UnicycleDecomposition(
        tuple(seq), pendant_roots, tuple(parent), tuple(order[len(seq):]))


def color_unicyclic(g: Graph, log: Optional[list[str]] = None) -> Coloring:
    """Strong odd coloring of a connected unicyclic graph.

    Uses at most 4 colors, except the bare five-cycle which needs 5.  The
    cycle gets its optimal pattern first.  Everything else follows one
    rule, breadth-first: the uncolored neighbors of a colored vertex v
    copy one color x, and the smallest takes y when x's count in N(v)
    would otherwise be even.  At a cycle vertex x is its successor's
    color, and y the color of 0..3 missing from the vertex and its two
    cycle neighbors.  Each pendant tree then follows color_tree's rule on
    the palette 0..3 without its cycle vertex's color.
    """
    log = [] if log is None else log
    dec = decompose_unicyclic(g)
    cyc = dec.cycle
    nc = len(cyc)
    colors = [-1] * g.n
    if nc == 5 and dec.pendant_roots:
        # start at the first cycle vertex with pendants (the anchor): a
        # rainbow on four colors whose last vertex repeats the anchor's
        # successor color, so that color is twice in the anchor's N
        i = next(i for i, v in enumerate(cyc) if v in dec.pendant_roots)
        ring, pat = cyc[i:] + cyc[:i], (0, 1, 2, 3, 1)
    else:
        ring, pat = cyc, cycle_pattern(nc)
    for v, c in zip(ring, pat):
        colors[v] = c
    if not dec.pendant_roots:
        log.append(f"bare cycle of length {nc}")
        return Coloring(tuple(colors))

    for i, a in enumerate(ring):
        roots = dec.pendant_roots.get(a)
        if roots:
            x, pred = colors[ring[i + 1 - nc]], colors[ring[i - 1]]
            for r in roots:
                colors[r] = x
            # x is at the successor, and at the predecessor too at the
            # five-cycle anchor
            fresh = not (len(roots) + 1 + (pred == x)) & 1
            if fresh:
                colors[roots[0]] = min({0, 1, 2, 3} - {colors[a], x, pred})
            log.append(f"cycle vertex {a}: {len(roots)} pendant root(s), "
                       f"{'one' if fresh else 'none'} in a fresh color")

    parent = dec.parent
    avoid = [-1] * g.n
    for v in dec.forest_order:
        p = parent[v]
        avoid[v] = colors[p] if avoid[p] < 0 else avoid[p]
    # the roots open forest_order; their children and the rest follow
    nroots = sum(len(roots) for roots in dec.pendant_roots.values())
    _color_children(g.adj, parent, dec.forest_order[nroots:], colors, avoid)
    return Coloring(tuple(colors))


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def _require_strong_odd(g: Graph, phi: Coloring, what: str) -> None:
    bad = is_strong_odd(g, phi)
    if bad:
        raise ConstructionError(f"{what} is not a strong odd coloring: {bad[0]}")


def compose_product_coloring(
    g: Graph, phi_g: Coloring, h: Graph, phi_h: Coloring, kind: str
) -> Coloring:
    """Pair the factor colors: vertex (a, b) gets (phi_g(a), phi_h(b)),
    flattened.  Valid for the Cartesian, direct and strong products."""
    if kind not in ("cartesian", "direct", "strong"):
        raise ConstructionError(f"composition does not apply to kind {kind!r}")
    _require_strong_odd(g, phi_g, "left factor coloring")
    _require_strong_odd(h, phi_h, "right factor coloring")
    kh = phi_h.k
    out = [
        phi_g.colors[a] * kh + phi_h.colors[b]
        for a in range(g.n)
        for b in range(h.n)
    ]
    return Coloring(tuple(out))


def compose_lexicographic(
    g: Graph, phi_g: Coloring, h: Graph, apex_coloring: Coloring
) -> Coloring:
    """Composition for the lexicographic product.

    apex_coloring must be a strong odd coloring of join(K1, h) with the
    apex as vertex 0; its restriction to h drops the apex color, and the
    restricted colors pair with phi_g as in the other products.
    """
    _require_strong_odd(g, phi_g, "left factor coloring")
    apex_graph = join(make_complete(1), h)
    _require_strong_odd(apex_graph, apex_coloring, "apex coloring")
    restricted = apex_coloring.colors[1:]
    relabel = {c: i for i, c in enumerate(sorted(set(restricted)))}
    kh = len(relabel)
    out = [
        phi_g.colors[a] * kh + relabel[restricted[b]]
        for a in range(g.n)
        for b in range(h.n)
    ]
    return Coloring(tuple(out))


def color_direct_complete(p: int, q: int) -> Coloring:
    """Optimal strong odd coloring of the direct product of K_p and K_q.

    Both factors odd: rainbow.  Otherwise, when q is even and p is odd or
    at most q, vertex (a, b) takes a: its neighborhood meets each other
    column in q - 1 vertices, an odd number.  Else it takes b, likewise.
    """
    if p < 2 or q < 2:
        raise ConstructionError("factors must have at least two vertices")
    if p % 2 and q % 2:
        return Coloring(tuple(range(p * q)))
    if q % 2 == 0 and (p % 2 or p <= q):
        return Coloring(tuple(a for a in range(p) for _ in range(q)))
    return Coloring(tuple(b for _ in range(p) for b in range(q)))


def c5_box_c5_table() -> Coloring:
    """The published 5-color assignment on the Cartesian square of a
    five-cycle, in closed form: vertex (i, j), id 5*i + j, takes
    (3*i + j) mod 5.  The closed neighborhood of (i, j) takes that color
    plus 0, +-1 and +-3, so it holds each color exactly once."""
    return Coloring(tuple((3 * i + j) % 5 for i in range(5) for j in range(5)))


def nordhaus_gaddum(k: int, which: str) -> tuple[Graph, Coloring, Coloring]:
    """Complementary-pair witnesses on n = (2k+1)^2 vertices.

    H1 is a disjoint union of 2k+1 complete graphs (both it and its
    complement color with sqrt(n) colors); H2 is the Cartesian product of
    two complete graphs (both sides need all n colors)."""
    if k < 1:
        raise ConstructionError("k must be at least 1")
    m = 2 * k + 1
    if which == "H1":
        g = disjoint_union(*[make_complete(m) for _ in range(m)])
        phi = Coloring(tuple(v % m for v in range(g.n)))
        phi_c = Coloring(tuple(v // m for v in range(g.n)))
        return g, phi, phi_c
    if which == "H2":
        g = product(make_complete(m), make_complete(m), "cartesian")
        rainbow = Coloring(tuple(range(g.n)))
        return g, rainbow, rainbow
    raise ConstructionError(f"unknown construction {which!r}")
