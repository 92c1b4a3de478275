"""Named extremal graphs with their recorded structural facts.

The two 12-vertex planar graphs are fixed by a list of adjacency facts
(edges, non-edges, two exact neighborhoods, order and diameter) strong
enough to determine them up to the last few pairs at vertex 12.  Each
planar entry is stored once, as a clockwise rotation system, and its
graph is the embedding's underlying graph; for the two 12-vertex graphs
that graph is the unique minimal planar completion (see
scripts/derive_extremal_graphs.py, which rederives and certifies it).
Vertex names v1..v12 in the notes refer to ids 0..11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, make_cycle, product
from .planemaps import PlaneMultigraph, from_neighbor_rotations


@dataclass(frozen=True)
class Constraint:
    kind: str  # order | diameter | edge | non_edge | neighborhood | regular_degree
    data: tuple
    note: str = ""


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    graph: Graph
    embedding: Optional[PlaneMultigraph]
    expected: dict[str, int]
    structural_constraints: tuple[Constraint, ...]


def _edges(pairs, note=""):
    return [Constraint("edge", p, note) for p in pairs]


def _non_edges(pairs, note=""):
    return [Constraint("non_edge", p, note) for p in pairs]


# -- first 12-vertex graph ---------------------------------------------------

G12A_ROTATION = (
    (1, 5, 4, 3, 2),
    (0, 2, 6, 5),
    (1, 0, 3, 4, 9, 8, 7, 6),
    (2, 0, 4),
    (3, 0, 5, 11, 10, 8, 9, 2),
    (4, 0, 1, 6, 11),
    (5, 1, 2, 7, 8, 10, 11),
    (6, 2, 8),
    (7, 2, 9, 4, 10, 6),
    (8, 2, 4),
    (8, 4, 6),
    (6, 4, 5),
)

G12A_CONSTRAINTS = tuple(
    [
        Constraint("order", (12,)),
        Constraint("diameter", (2,)),
        Constraint("neighborhood", (0, frozenset({1, 2, 3, 4, 5})),
                    "v1 is adjacent to exactly v2..v6"),
        Constraint("neighborhood", (2, frozenset({0, 1, 3, 4, 6, 7, 8, 9})),
                    "v3 is adjacent to exactly v1,v2,v4,v5,v7,v8,v9,v10"),
    ]
    + _edges([(0, 1), (0, 2), (1, 2)], "v1,v2,v3 induce a triangle")
    + _edges([(0, 3), (2, 3)], "v4 is adjacent to v1 and v3")
    + _non_edges([(1, 3)], "v4 is not adjacent to v2")
    + _edges([(3, 4)], "v5 is adjacent to v4")
    + _edges([(0, 4), (2, 4)], "v5 is adjacent to v1 and v3")
    + _non_edges([(1, 4)], "v5 is not adjacent to v2")
    + _edges([(1, 5), (4, 5), (0, 5)], "v6 is adjacent to v1, v2, v5")
    + _non_edges([(2, 5), (3, 5)], "v6 is not adjacent to v3 or v4")
    + _edges([(1, 6), (2, 6), (5, 6)], "v7 is adjacent to v2, v3, v6")
    + _non_edges([(3, 6), (4, 6)], "v7 is not adjacent to v4 or v5")
    + _edges([(6, 7), (6, 8), (6, 10), (6, 11)],
             "v8, v9, v11, v12 are all adjacent to v7")
    + _non_edges([(1, 7), (3, 7), (4, 7), (5, 7)],
                 "v8 is not adjacent to v2, v4, v5, v6")
    + _edges([(4, 8), (7, 8)], "v9 is adjacent to v5 and v8")
    + _non_edges([(1, 8), (3, 8), (5, 8)], "v9 is not adjacent to v2, v4, v6")
    + _edges([(8, 9)], "v9 and v10 are adjacent")
    + _edges([(4, 9)], "v5 and v10 are adjacent")
    + _non_edges([(1, 9), (3, 9), (5, 9), (6, 9), (7, 9)],
                 "v10 is not adjacent to v2, v4, v6, v7, v8")
    + _edges([(4, 10), (8, 10)], "v11 is adjacent to v5 and v9")
    + _non_edges([(1, 10), (2, 10), (3, 10), (5, 10), (7, 10), (9, 10)],
                 "v11 is adjacent to exactly v5, v7, v9")
    + _edges([(4, 11), (5, 11)], "v12 is adjacent to v5 and v6")
    + _non_edges([(2, 11), (8, 11)], "v12 is not adjacent to v3 or v9")
)

# -- second 12-vertex graph --------------------------------------------------

G12B_ROTATION = (
    (1, 5, 4, 3, 2),
    (0, 2, 10, 5),
    (1, 0, 3, 7, 6, 9, 10),
    (2, 0, 4, 6, 7),
    (3, 0, 5, 6),
    (4, 0, 1, 10, 8, 11, 6),
    (5, 11, 8, 9, 2, 7, 3, 4),
    (6, 2, 3),
    (6, 11, 5, 9),
    (8, 2, 6),
    (5, 1, 2),
    (8, 6, 5),
)

G12B_CONSTRAINTS = tuple(
    [
        Constraint("order", (12,)),
        Constraint("diameter", (2,)),
        Constraint("neighborhood", (0, frozenset({1, 2, 3, 4, 5})),
                    "v1 is adjacent to exactly v2..v6"),
        Constraint("neighborhood", (3, frozenset({0, 2, 4, 6, 7})),
                    "v4 is adjacent to exactly v1, v3, v5, v7, v8"),
    ]
    + _edges([(0, 1), (0, 2), (1, 2)], "v1,v2,v3 induce a triangle")
    + _edges([(0, 3), (2, 3)], "v4 is adjacent to v1 and v3")
    + _non_edges([(1, 3)], "v4 is not adjacent to v2")
    + _edges([(3, 4), (1, 5)], "v5 is adjacent to v4; v6 is adjacent to v2")
    + _edges([(0, 4)], "v5 is adjacent to v1")
    + _non_edges([(1, 4), (2, 4)], "v5 is not adjacent to v2 or v3")
    + _edges([(4, 5), (0, 5)], "v6 is adjacent to v5 and v1")
    + _non_edges([(2, 5), (3, 5)], "v6 is not adjacent to v3 or v4")
    + _edges([(2, 6), (3, 6), (4, 6), (5, 6)], "v7 is adjacent to v3, v4, v5, v6")
    + _non_edges([(1, 6)], "v7 is not adjacent to v2")
    + _edges([(1, 10)], "v2 and v11 are adjacent")
    + _edges([(2, 7), (6, 7)], "v8 is adjacent to v3 and v7")
    + _non_edges([(5, 7), (4, 7), (1, 7)], "v8 is not adjacent to v6, v5, v2")
    + _edges([(5, 11), (8, 11)], "v12 is adjacent to v6 and v9")
    + _edges([(5, 8), (6, 8)], "v9 is adjacent to v6 and v7")
    + _non_edges([(4, 8), (7, 8), (2, 8), (1, 8)],
                 "v9 is not adjacent to v5, v8, v3, v2")
    + _edges([(8, 9)], "v9 and v10 are adjacent")
    + _edges([(2, 9), (6, 9)], "v10 is adjacent to v3 and v7")
    + _non_edges([(7, 9), (5, 9), (4, 9), (1, 9)],
                 "v10 is not adjacent to v8, v6, v5, v2")
    + _edges([(2, 10), (5, 10)], "v11 is adjacent to v3 and v6")
    + _non_edges([(6, 10), (7, 10), (9, 10), (4, 10), (8, 10)],
                 "v11 is not adjacent to v7, v8, v10, v5, v9")
    + _edges([(6, 11)], "v12 is adjacent to v7")
    + _non_edges([(2, 11), (4, 11)], "v12 is not adjacent to v3 or v5")
)


def _g7():
    # the apex 0 joined to the path 1..6
    rot = ((1, 6, 5, 4, 3, 2), (0, 2), (1, 0, 3), (2, 0, 4), (3, 0, 5), (4, 0, 6), (5, 0))
    emb = from_neighbor_rotations(rot)
    cons = (
        Constraint("order", (7,)),
        Constraint("neighborhood", (0, frozenset(range(1, 7))),
                   "the apex is adjacent to the whole path"),
        Constraint("degree", (1, 2), "path end"),
        Constraint("degree", (6, 2), "path end"),
    ) + tuple(Constraint("edge", (i, i + 1), "path edge") for i in range(1, 6))
    return GalleryEntry("G7", emb.underlying, emb, {"chi_so": 7}, cons)


def _g12(name, rotation, constraints):
    emb = from_neighbor_rotations(rotation)
    return GalleryEntry(name, emb.underlying, emb, {"chi_so": 12}, constraints)


def _c5box():
    g = product(make_cycle(5), make_cycle(5), "cartesian")
    cons = (
        Constraint("order", (25,)),
        Constraint("regular_degree", (4,), "Cartesian square of a five-cycle"),
    )
    return GalleryEntry("C5boxC5", g, None, {"chi_so": 5}, cons)


_BUILDERS = {
    "G12a": lambda: _g12("G12a", G12A_ROTATION, G12A_CONSTRAINTS),
    "G12b": lambda: _g12("G12b", G12B_ROTATION, G12B_CONSTRAINTS),
    "G7": _g7,
    "C5boxC5": _c5box,
}


def gallery_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def gallery(name: str) -> GalleryEntry:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown gallery entry {name!r}; "
                       f"known: {', '.join(gallery_names())}") from None
    return builder()


def check_structural_constraints(entry: GalleryEntry) -> list[str]:
    """Evaluate every recorded fact against the entry's graph, and check
    that the supplied embedding (plane, as every map is) matches the
    graph.  Returns violation descriptions; empty means all hold."""
    g = entry.graph
    problems = []
    for c in entry.structural_constraints:
        tag = f"{c.kind}{c.data}" + (f" ({c.note})" if c.note else "")
        if c.kind == "order":
            ok = g.n == c.data[0]
        elif c.kind == "diameter":
            ok = g.is_connected() and g.diameter() == c.data[0]
        elif c.kind == "edge":
            ok = g.has_edge(*c.data)
        elif c.kind == "non_edge":
            ok = not g.has_edge(*c.data)
        elif c.kind == "neighborhood":
            v, expected = c.data
            ok = g.adj[v] == expected
        elif c.kind == "degree":
            v, d = c.data
            ok = g.degree(v) == d
        elif c.kind == "regular_degree":
            ok = all(g.degree(v) == c.data[0] for v in range(g.n))
        else:
            problems.append(f"unknown constraint kind {c.kind!r}")
            continue
        if not ok:
            problems.append(f"violated: {tag}")
    if entry.embedding is not None:
        emb = entry.embedding
        if emb.underlying.edges != g.edges or emb.n != g.n:
            problems.append("embedding does not match the graph")
    return problems
