"""Simple undirected graphs: representation, generators, products, serialization.

Vertices are the integers 0..n-1.  Edges are unordered pairs stored in
normalized (min, max) form.  Graphs are immutable after construction and
safe to share between workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations
from typing import Iterable, Sequence

PRODUCT_KINDS = ("cartesian", "direct", "strong", "lexicographic")


class GraphError(ValueError):
    """Raised for malformed graph data (bad endpoints, loops, duplicates)."""


@dataclass(frozen=True)
class Graph:
    """A finite loopless undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {self.n}")
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph in one pass over the edges, rejecting entries
        that are not two ints, loops, out-of-range ids and duplicates."""
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        seen = set()
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphError(f"malformed edge entry {e!r}") from None
            if type(u) is not int or type(v) is not int:
                raise GraphError(f"malformed edge entry {e!r}")
            if u > v:
                u, v = v, u
            elif u == v:
                raise GraphError(f"loop at vertex {u}")
            if u < 0 or v >= n:
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge {(u, v)}")
            seen.add((u, v))
        return _trusted_graph(n, frozenset(seen))

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        nbrs = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(frozenset, nbrs))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def bfs(self, sources: Sequence[int]) -> tuple[list[int], list[int]]:
        """Breadth-first walk from the sources, which open the order.
        Each vertex's unseen neighbors follow in increasing order, so
        its children are consecutive and ascending.  parent is -1 for
        the sources and for the vertices the walk does not reach."""
        adj = self.adj
        parent = [-1] * self.n
        seen = [False] * self.n
        for s in sources:
            seen[s] = True
        order = list(sources)
        for v in order:  # the list is the queue: it grows while it is read
            nbrs = adj[v]
            for u in sorted(nbrs) if len(nbrs) > 1 else nbrs:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    order.append(u)
        return order, parent

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.bfs([0])[0]) == self.n

    def diameter(self) -> int:
        """Diameter of a connected graph (0 for a single vertex); v's
        eccentricity is the depth of the last vertex of its walk."""
        best = 0
        for v in range(self.n):
            order, parent = self.bfs([v])
            if len(order) < self.n:
                raise GraphError("diameter undefined for disconnected graph")
            depth, x = 0, order[-1]
            while x != v:
                depth, x = depth + 1, parent[x]
            best = max(best, depth)
        return best


def _trusted_graph(n: int, edges: frozenset[tuple[int, int]]) -> Graph:
    """A Graph built without __post_init__'s checks, the twin of
    planemaps._trusted_map: only for edges that Graph.from_edges has
    checked or that a builder below makes with 0 <= u < v < n."""
    g = object.__new__(Graph)
    g.__dict__.update(n=n, edges=edges)
    return g


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def make_path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs at least one vertex")
    return _trusted_graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least three vertices")
    return _trusted_graph(n, frozenset((i, i + 1) if i < n - 1 else (0, i) for i in range(n)))


def make_complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs at least one vertex")
    return _trusted_graph(n, frozenset(combinations(range(n), 2)))


def make_complete_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph; part i occupies a contiguous id block."""
    if not parts or any(p < 1 for p in parts):
        raise GraphError("parts must be a nonempty list of positive sizes")
    bounds = list(accumulate(parts, initial=0))
    edges = {(u, v) for i, j in combinations(range(len(parts)), 2)
             for u in range(bounds[i], bounds[i + 1]) for v in range(bounds[j], bounds[j + 1])}
    return _trusted_graph(bounds[-1], frozenset(edges))


def make_complete_bipartite(m: int, n: int) -> Graph:
    return make_complete_multipartite([m, n])


def make_star(leaves: int) -> Graph:
    """Star K_{1,leaves} with the center at vertex 0."""
    if leaves < 1:
        raise GraphError("star needs at least one leaf")
    return make_complete_bipartite(1, leaves)


# ---------------------------------------------------------------------------
# Unary and binary operations
# ---------------------------------------------------------------------------

def disjoint_union(*graphs: Graph) -> Graph:
    if not graphs:
        raise GraphError("disjoint_union needs at least one operand")
    edges = set()
    offset = 0
    for g in graphs:
        edges.update((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return _trusted_graph(offset, frozenset(edges))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides (g first)."""
    cross = {(u, g.n + v) for u in range(g.n) for v in range(h.n)}
    return _trusted_graph(g.n + h.n, disjoint_union(g, h).edges | frozenset(cross))


def complement(g: Graph) -> Graph:
    all_pairs = frozenset(combinations(range(g.n), 2))
    return _trusted_graph(g.n, all_pairs - g.edges)


def square(g: Graph) -> Graph:
    """Add an edge between every pair of vertices at distance exactly 2."""
    extra = set()
    for v in range(g.n):
        for a in g.adj[v]:
            for b in g.adj[v]:
                if a < b and not g.has_edge(a, b):
                    extra.add((a, b))
    return _trusted_graph(g.n, g.edges | frozenset(extra))


def product(g: Graph, h: Graph, kind: str) -> Graph:
    """One of the four standard graph products.

    Vertex (a, b) of the product is the id a * h.n + b, so rows (fixed
    second coordinate) and columns (fixed first coordinate) can be
    recovered from ids.  Ids order pairs by a first, and factor edges
    are (min, max) pairs, so every edge is built already normalized.
    """
    if kind not in PRODUCT_KINDS:
        raise GraphError(f"unknown product kind {kind!r}")
    if g.n == 0 or h.n == 0:
        raise GraphError("product factors must be nonempty")
    nh = h.n
    edges = set()
    if kind != "direct":  # a copy of h on each column
        edges.update((a + x, a + y) for a in range(0, g.n * nh, nh) for x, y in h.edges)
    for x, y in g.edges:
        x, y = x * nh, y * nh
        if kind == "lexicographic":
            edges.update((x + a, y + b) for a in range(nh) for b in range(nh))
        if kind in ("cartesian", "strong"):
            edges.update((x + b, y + b) for b in range(nh))
        if kind in ("direct", "strong"):
            for a, b in h.edges:
                edges.add((x + a, y + b))
                edges.add((x + b, y + a))
    return _trusted_graph(g.n * nh, frozenset(edges))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def from_json_dict(data: dict) -> Graph:
    try:
        n = data["n"]
        raw = data["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    if type(n) is not int:  # bool is an int subclass; JSON true is no count
        raise GraphError("n must be an integer")
    if not isinstance(raw, list):
        raise GraphError("edges must be a list")
    return Graph.from_edges(n, raw)


def _write_json(path, data) -> None:
    """data as one JSON line, for save_json, save_map and corpus --out."""
    with open(path, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")


def save_json(g: Graph, path) -> None:
    _write_json(path, to_json_dict(g))


def _read_json(path, error: type[ValueError]):
    """The JSON value in a file, for the graph, coloring and map loaders;
    malformed JSON raises error("malformed JSON: ...")."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"malformed JSON: {exc}") from exc


def load_json(path) -> Graph:
    """The graph in a JSON file; GraphError if it is malformed."""
    return from_json_dict(_read_json(path, GraphError))


def _check_coloring_length(g: Graph, phi) -> None:
    """Refuse a coloring (anything with a length) that does not give one
    color per vertex of g."""
    if len(phi) != g.n:
        raise GraphError(f"coloring length {len(phi)} does not match n={g.n}")


def export_dot(g: Graph, coloring=None) -> str:
    """GraphViz text; vertices carry a color=<id> attribute if given."""
    if coloring is not None:
        _check_coloring_length(g, coloring)
    lines = ["graph G {"]
    for v in range(g.n):
        if coloring is not None:
            lines.append(f'  {v} [color={coloring.colors[v]}];')
        else:
            lines.append(f"  {v};")
    for u, v in g.sorted_edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)
