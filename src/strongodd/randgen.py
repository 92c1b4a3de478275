"""Seeded random instances: trees, unicyclic graphs, general graphs,
and embedded planar graphs (stacked triangulations with optional edge
deletions).  Everything is deterministic given the seed."""

from __future__ import annotations

import random
from .graphs import Graph
from .planemaps import PlaneMultigraph, _find, from_neighbor_rotations


def random_tree(n: int, rng: random.Random) -> Graph:
    """Random recursive tree: each vertex attaches to an earlier one."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def random_odd_tree(n_grows: int, rng: random.Random) -> Graph:
    """Tree with all degrees odd: start from an edge and repeatedly hang
    two leaves on a random vertex (which keeps every degree odd)."""
    edges = [(0, 1)]
    n = 2
    for _ in range(n_grows):
        v = rng.randrange(n)
        edges.append((v, n))
        edges.append((v, n + 1))
        n += 2
    return Graph.from_edges(n, edges)


def random_unicyclic(n: int, rng: random.Random) -> Graph:
    """Random tree plus one extra edge (connected, exactly one cycle).
    The edge is uniform among the tree's non-edges, drawn as rng.choice
    on their lexicographic list would draw it; it is found row by row in
    linear time, without the list."""
    if n < 3:
        raise ValueError("need at least three vertices")
    t = random_tree(n, rng)
    up = [0] * n  # up[u]: tree neighbors above u, each skipped in row u
    for u, _ in t.edges:
        up[u] += 1
    i = rng.randrange((n - 1) * (n - 2) // 2)
    u = 0
    while i >= n - 1 - u - up[u]:
        i -= n - 1 - u - up[u]
        u += 1
    v = u + 1 + i  # then step over the tree neighbors at or below v
    for w in sorted(w for a, w in t.edges if a == u):
        if w > v:
            break
        v += 1
    return Graph(n, t.edges | {(u, v)})


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_triangulation(n: int, rng: random.Random) -> PlaneMultigraph:
    """Stacked triangulation: grow from a triangle by planting each new
    vertex inside a random triangular face, joined to its three corners."""
    return from_neighbor_rotations(_triangulation_rotations(n, rng)[0])


def _triangulation_rotations(n: int, rng: random.Random) -> tuple[list, list]:
    """The clockwise neighbor lists of random_triangulation(n, rng), and
    its 2n - 4 faces as corner triples (a, b, c) in walk order: the face
    holds the darts a->b, b->c and c->a, so the two darts of an edge name
    the faces on its two sides."""
    if n < 3:
        raise ValueError("triangulation needs at least three vertices")
    rot = [[2, 1], [0, 2], [1, 0]]
    faces = [(0, 1, 2), (0, 2, 1)]
    for w in range(3, n):
        fi = rng.randrange(len(faces))
        a, b, c = faces.pop(fi)
        # new darts hug the removed corners: after the reversal of the
        # face dart arriving at each corner
        rot[b].insert(rot[b].index(a) + 1, w)
        rot[c].insert(rot[c].index(b) + 1, w)
        rot[a].insert(rot[a].index(c) + 1, w)
        rot.append([a, c, b])
        faces.extend([(a, b, w), (b, c, w), (c, a, w)])
    return rot, faces


def random_planar_map(
    n: int, rng: random.Random, delete_fraction: float = 0.25
) -> PlaneMultigraph:
    """Connected embedded planar graph: random_triangulation(n, rng) less
    int(delete_fraction * m) edges, tried in a shuffled order.  An edge is
    kept if it is a bridge of the map left so far, that is, if one face
    lies on both its sides; removing any other edge merges its two faces,
    so faces are classes of a union-find over the triangulation's faces
    (Tarjan 1975).  A removal takes the edge out of both neighbor lists in
    place: each rotation is the triangulation's less the deleted edges."""
    nbrs, faces = _triangulation_rotations(n, rng)
    # the triangulation's edges in the order its map lists them
    edges = sorted((u, v) for u in range(n) for v in nbrs[u] if u < v)
    rng.shuffle(edges)
    side = {}  # dart -> the face on its walk
    for f, (a, b, c) in enumerate(faces):
        side[a, b] = side[b, c] = side[c, a] = f
    parent = list(range(len(faces)))
    target = int(delete_fraction * len(edges))
    removed = 0
    for u, v in edges:
        if removed >= target:
            break
        f, g = _find(parent, side[u, v]), _find(parent, side[v, u])
        if f != g:
            parent[f] = g
            nbrs[u].remove(v)
            nbrs[v].remove(u)
            removed += 1
    return from_neighbor_rotations(nbrs)
