#!/usr/bin/env python3
"""Rederive the two shipped 12-vertex extremal graphs from their
recorded structural constraints.

The constraint lists pin down every vertex pair except a handful at
vertex 12.  This script enumerates the remaining completions, keeps the
ones that are planar (networkx), have diameter 2, and whose strong odd
chromatic number certifies as 12, then picks the minimal completion
(fewest edges, then lexicographically smallest) and prints its edge set
and a clockwise rotation system.  It finally asserts that the shipped
gallery graph, the underlying graph of the shipped rotation system, is
that completion.

Requires networkx (used only here, for planarity and an embedding).
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import networkx as nx

from strongodd.gallery import (
    G12A_CONSTRAINTS,
    G12A_ROTATION,
    G12B_CONSTRAINTS,
    G12B_ROTATION,
    gallery,
)
from strongodd.graphs import Graph
from strongodd.solver import Budget, chi_so_exact


def known_pairs(constraints, n=12):
    edges = set()
    non_edges = set()
    for c in constraints:
        if c.kind == "edge":
            edges.add(tuple(sorted(c.data)))
        elif c.kind == "non_edge":
            non_edges.add(tuple(sorted(c.data)))
        elif c.kind == "neighborhood":
            v, hood = c.data
            for u in range(n):
                if u == v:
                    continue
                (edges if u in hood else non_edges).add(tuple(sorted((u, v))))
    assert not edges & non_edges, "contradictory constraints"
    free = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges and (u, v) not in non_edges
    ]
    return sorted(edges), free


def completions(name, constraints):
    base, free = known_pairs(constraints)
    print(f"{name}: {len(base)} forced edges, undetermined pairs: {free}")
    winners = []
    for r in range(len(free) + 1):
        for extra in itertools.combinations(free, r):
            edges = base + list(extra)
            if len(edges) > 30:  # planar bound 3n - 6
                continue
            G = nx.Graph()
            G.add_nodes_from(range(12))
            G.add_edges_from(edges)
            if not nx.check_planarity(G)[0]:
                continue
            if not nx.is_connected(G) or nx.diameter(G) != 2:
                continue
            g = Graph.from_edges(12, edges)
            res = chi_so_exact(g, Budget(max_nodes=10**9, max_time=1800))
            if res.value == 12 and res.optimal:
                winners.append(sorted(edges))
                print(f"  candidate +{list(extra)}: planar, diameter 2, "
                      f"chi_so = 12 certified ({res.nodes_explored} nodes)")
    winners.sort(key=lambda e: (len(e), e))
    return winners[0]


def rotation_of(edges):
    G = nx.Graph()
    G.add_nodes_from(range(12))
    G.add_edges_from(edges)
    data = nx.check_planarity(G)[1].get_data()
    return tuple(tuple(data[v]) for v in range(12))


def main():
    for name, constraints, entry, shipped_rot in [
        ("first 12-vertex graph", G12A_CONSTRAINTS, "G12a", G12A_ROTATION),
        ("second 12-vertex graph", G12B_CONSTRAINTS, "G12b", G12B_ROTATION),
    ]:
        chosen = completions(name, constraints)
        print(f"  selected edges: {chosen}")
        assert chosen == gallery(entry).graph.sorted_edges(), "shipped edge set differs!"
        rot = rotation_of(chosen)
        print(f"  rotation system: {rot}")
        if rot != shipped_rot:
            print("  note: shipped rotation differs (any valid embedding works; "
                  "the gallery checker validates via the Euler identity)")
    print("shipped gallery data confirmed")


if __name__ == "__main__":
    main()
