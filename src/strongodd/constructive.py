"""Polynomial-time strong odd coloring constructions.

Covers trees (2 or 3 colors), cycles, connected unicyclic graphs (at
most 4 colors except the bare five-cycle), coloring compositions for the
four graph products, optimal colorings of direct products of complete
graphs, the five-color grid coloring of the five-cycle Cartesian square,
and the complementary-pair witnesses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .colorings import Coloring, is_strong_odd
from .graphs import Graph, disjoint_union, join, make_complete, product


class ConstructionError(ValueError):
    pass


@dataclass
class ProvenanceLog:
    """Case decisions plus an elementary-operation counter."""

    events: list[str] = field(default_factory=list)
    steps: int = 0

    def note(self, msg: str) -> None:
        self.events.append(msg)

    def tick(self, n: int = 1) -> None:
        self.steps += n


@dataclass(frozen=True)
class RootedTreePlan:
    root: int
    parent: tuple[int, ...]  # -1 for the root
    bfs_order: tuple[int, ...]


def _require_tree(t: Graph) -> None:
    if t.m != t.n - 1 or not t.is_connected():
        raise ConstructionError("input is not a tree")


def plan_rooted_tree(t: Graph, root: int = 0) -> RootedTreePlan:
    _require_tree(t)
    parent = [-1] * t.n
    order = []
    seen = [False] * t.n
    queue = deque([root])
    seen[root] = True
    while queue:
        v = queue.popleft()
        order.append(v)
        for u in sorted(t.adj[v]):
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                queue.append(u)
    return RootedTreePlan(root, tuple(parent), tuple(order))


def is_odd_tree(t: Graph) -> bool:
    """True iff every vertex degree is odd."""
    _require_tree(t)
    return all(t.degree(v) % 2 == 1 for v in range(t.n))


def _color_below_root_children(
    t: Graph, plan: RootedTreePlan, colors, palette: Sequence[int], log: ProvenanceLog
) -> None:
    """Fill in colors below the root's children, breadth-first: an even
    set of children copies the parent's color, an odd set sends one child
    to the palette color missing from vertex and parent."""
    palette = set(palette)
    for v in plan.bfs_order:
        if v == plan.root:
            continue
        children = [u for u in sorted(t.adj[v]) if plan.parent[u] == v]
        log.tick()
        if not children:
            continue
        pc = colors[plan.parent[v]]
        if len(children) % 2 == 0:
            for u in children:
                colors[u] = pc
        else:
            colors[children[0]] = (palette - {colors[v], pc}).pop()
            for u in children[1:]:
                colors[u] = pc
        log.tick(len(children))


def color_tree(t: Graph, log: Optional[ProvenanceLog] = None) -> Coloring:
    """Strong odd coloring of a tree with 2 colors if it is odd, else 3.

    Breadth-first: the root's neighborhood is made monochromatic when the
    root degree is odd, otherwise one neighbor takes the third color.  At
    every other vertex an even set of children copies the parent's color
    and an odd set sends one child to the color missing from vertex and
    parent.
    """
    log = log if log is not None else ProvenanceLog()
    plan = plan_rooted_tree(t)
    colors = [-1] * t.n
    colors[plan.root] = 0
    log.tick()
    root_nbrs = sorted(t.adj[plan.root])
    if len(root_nbrs) % 2 == 1:
        for u in root_nbrs:
            colors[u] = 1
            log.tick()
        log.note(f"root {plan.root}: odd degree, monochromatic neighborhood")
    elif root_nbrs:
        colors[root_nbrs[0]] = 2
        for u in root_nbrs[1:]:
            colors[u] = 1
        log.tick(len(root_nbrs))
        log.note(f"root {plan.root}: even degree, one neighbor recolored")
    _color_below_root_children(t, plan, colors, (0, 1, 2), log)
    return Coloring(tuple(colors))


def color_tree_constrained(
    t: Graph,
    root: int,
    root_color: int,
    forbidden_color: int,
    palette: Sequence[int],
    log: Optional[ProvenanceLog] = None,
) -> dict[int, int]:
    """Color a pendant tree whose root hangs off an already colored vertex.

    The virtual parent of the root carries forbidden_color (one occurrence
    in the root's neighborhood that cannot be matched), so an even set of
    root children is split into two odd monochromatic groups on the two
    palette colors other than root_color; an odd set is monochromatic.
    Returns vertex -> color over the tree only.
    """
    log = log if log is not None else ProvenanceLog()
    palette = tuple(palette)
    if len(set(palette)) != 3:
        raise ConstructionError("palette must contain three distinct colors")
    if root_color not in palette:
        raise ConstructionError("root color must belong to the palette")
    if forbidden_color in palette:
        raise ConstructionError("forbidden color must lie outside the palette")
    plan = plan_rooted_tree(t, root)
    colors = {root: root_color}
    others = [c for c in palette if c != root_color]
    root_children = [u for u in sorted(t.adj[root])]
    log.tick(1 + len(root_children))
    if root_children:
        if len(root_children) % 2 == 0:
            for u in root_children[:-1]:
                colors[u] = others[0]
            colors[root_children[-1]] = others[1]
        else:
            for u in root_children:
                colors[u] = others[0]
    _color_below_root_children(t, plan, colors, palette, log)
    return colors


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


def color_cycle(n: int, log: Optional[ProvenanceLog] = None) -> Coloring:
    """Strong odd coloring of the cycle on vertices 0..n-1 in cycle order."""
    log = log if log is not None else ProvenanceLog()
    pat = cycle_pattern(n)
    log.tick(n)
    log.note(f"cycle {n}: {max(pat) + 1} colors")
    return Coloring(pat)


# ---------------------------------------------------------------------------
# Unicyclic graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UnicycleDecomposition:
    cycle: tuple[int, ...]
    pendant_roots: dict[int, tuple[int, ...]]  # cycle vertex -> off-cycle nbrs
    tree_vertices: dict[int, tuple[int, ...]]  # root -> its subtree (incl. root)


def decompose_unicyclic(g: Graph) -> UnicycleDecomposition:
    """Locate the unique cycle by leaf stripping and group pendant trees."""
    if g.m != g.n or not g.is_connected():
        raise ConstructionError("input is not a connected unicyclic graph")
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    queue = deque(v for v in range(g.n) if deg[v] == 1)
    while queue:
        v = queue.popleft()
        alive[v] = False
        for u in g.adj[v]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] == 1:
                    queue.append(u)
    cyc_set = {v for v in range(g.n) if alive[v]}
    start = min(cyc_set)
    seq = [start]
    prev = -1
    while True:
        nxt = min(u for u in g.adj[seq[-1]] if u in cyc_set and u != prev)
        if nxt == start:
            break
        prev = seq[-1]
        seq.append(nxt)
    pendant_roots = {}
    tree_vertices = {}
    for a in seq:
        roots = tuple(sorted(u for u in g.adj[a] if u not in cyc_set))
        if roots:
            pendant_roots[a] = roots
            for r in roots:
                comp = [r]
                stack = [r]
                seen = {a, r}
                while stack:
                    x = stack.pop()
                    for y in g.adj[x]:
                        if y not in seen:
                            seen.add(y)
                            comp.append(y)
                            stack.append(y)
                tree_vertices[r] = tuple(sorted(comp))
    return UnicycleDecomposition(tuple(seq), pendant_roots, tree_vertices)


def _subtree_graph(g: Graph, verts: Sequence[int]) -> tuple[Graph, dict[int, int]]:
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges
        if u in index and v in index
    ]
    return Graph.from_edges(len(verts), edges), index


def color_unicyclic(g: Graph, log: Optional[ProvenanceLog] = None) -> Coloring:
    """Strong odd coloring of a connected unicyclic graph.

    Uses at most 4 colors, except the bare five-cycle which needs 5.  The
    cycle gets its optimal pattern first; each cycle vertex colors its
    off-cycle neighbors monochromatically (one split case around the
    five-cycle anchor), and pendant trees are finished with the 3-color
    palette that avoids their attachment vertex.
    """
    log = log if log is not None else ProvenanceLog()
    dec = decompose_unicyclic(g)
    cyc = dec.cycle
    nc = len(cyc)
    colors = [-1] * g.n
    if not dec.pendant_roots:
        log.note(f"bare cycle of length {nc}")
        pat = cycle_pattern(nc)
        for v, c in zip(cyc, pat):
            colors[v] = c
        log.tick(nc)
        return Coloring(tuple(colors))

    if nc == 5:
        # rainbow with a temporary color, then recolor the anchor's other
        # cycle neighbor down to the successor color
        anchor_pos = next(i for i, v in enumerate(cyc) if v in dec.pendant_roots)
        ring = [cyc[(anchor_pos + i) % nc] for i in range(nc)]
        a, b, c5c, d, e = ring
        for v, col in zip(ring, (0, 1, 2, 3, 4)):
            colors[v] = col
        roots = dec.pendant_roots[a]
        if len(roots) % 2 == 0:
            for r in roots[:-1]:
                colors[r] = 1
            colors[roots[-1]] = 2
            log.note(f"five-cycle anchor {a}: even pendant set split {len(roots) - 1}+1")
        else:
            for r in roots:
                colors[r] = 1
            log.note(f"five-cycle anchor {a}: odd pendant set monochromatic")
        colors[e] = 1
        log.tick(nc + len(roots))
        remaining = [v for v in ring[1:] if v in dec.pendant_roots]
    else:
        pat = cycle_pattern(nc)
        for v, c in zip(cyc, pat):
            colors[v] = c
        log.tick(nc)
        remaining = [v for v in cyc if v in dec.pendant_roots]

    for a in remaining:
        pos = cyc.index(a)
        succ = cyc[(pos + 1) % nc]
        pred = cyc[(pos - 1) % nc]
        roots = dec.pendant_roots[a]
        if len(roots) % 2 == 0:
            for r in roots:
                colors[r] = colors[succ]
            log.note(f"cycle vertex {a}: even pendant set copies a cycle neighbor")
        else:
            fourth = min({0, 1, 2, 3} - {colors[a], colors[succ], colors[pred]})
            for r in roots:
                colors[r] = fourth
            log.note(f"cycle vertex {a}: odd pendant set in a fresh color")
        log.tick(len(roots))

    for a, roots in dec.pendant_roots.items():
        palette = tuple(sorted({0, 1, 2, 3} - {colors[a]}))
        for r in roots:
            sub, index = _subtree_graph(g, dec.tree_vertices[r])
            local = color_tree_constrained(
                sub, index[r], colors[r], colors[a], palette, log
            )
            for v, i in index.items():
                colors[v] = local[i]
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

    Both factors odd: rainbow.  Exactly one even: the odd side's index is
    copied across it (rows or columns monochromatic).  Both even: the
    smaller side's index.
    """
    if p < 2 or q < 2:
        raise ConstructionError("factors must have at least two vertices")
    if p % 2 == 1 and q % 2 == 1:
        return Coloring(tuple(range(p * q)))
    if p % 2 == 0 and q % 2 == 1:
        return Coloring(tuple(h for _ in range(p) for h in range(q)))
    if p % 2 == 1 and q % 2 == 0:
        return Coloring(tuple(a for a in range(p) for _ in range(q)))
    if p <= q:
        return Coloring(tuple(a for a in range(p) for _ in range(q)))
    return Coloring(tuple(h for _ in range(p) for h in range(q)))


_GRID5 = (
    (0, 1, 2, 3, 4),
    (3, 4, 0, 1, 2),
    (1, 2, 3, 4, 0),
    (4, 0, 1, 2, 3),
    (2, 3, 4, 0, 1),
)


def c5_box_c5_table() -> Coloring:
    """The fixed 5-color assignment on the Cartesian square of a
    five-cycle (vertex (i, j) is id 5*i + j); every closed neighborhood
    holds each color exactly once."""
    return Coloring(tuple(_GRID5[i][j] for i in range(5) for j in range(5)))


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
