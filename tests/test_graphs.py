import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongodd.colorings import Coloring
from strongodd.graphs import (
    PRODUCT_KINDS,
    Graph,
    GraphError,
    complement,
    disjoint_union,
    export_dot,
    from_json_dict,
    join,
    make_complete,
    make_complete_bipartite,
    make_complete_multipartite,
    make_cycle,
    make_path,
    make_star,
    product,
    square,
    to_json_dict,
)
from strongodd.randgen import random_graph


def random_graph_strategy():
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        return Graph(n, frozenset(edges))

    return build()


def test_generators_basic():
    c5 = make_cycle(5)
    assert c5.n == 5 and c5.m == 5
    assert all(c5.degree(v) == 2 for v in range(5))
    assert make_complete(4).m == 6
    assert make_path(1).m == 0
    assert make_star(3).degree(0) == 3


def test_complete_multipartite_is_complement_of_cliques():
    k333 = make_complete_multipartite([3, 3, 3])
    assert k333.m == 27
    triple = disjoint_union(make_complete(3), make_complete(3), make_complete(3))
    assert complement(triple).edges == k333.edges


def test_generator_guards():
    with pytest.raises(GraphError):
        make_cycle(2)
    with pytest.raises(GraphError):
        make_path(0)
    with pytest.raises(GraphError):
        make_complete_multipartite([])
    with pytest.raises(GraphError):
        make_complete_multipartite([2, 0])


def test_square_examples():
    assert square(make_path(3)).edges == make_complete(3).edges
    # K_{2,3} squared is complete on five vertices
    assert square(make_complete_bipartite(2, 3)).edges == make_complete(5).edges
    g = make_cycle(6)
    assert g.edges <= square(g).edges


def test_join_counts():
    g7 = join(make_complete(1), make_path(6))
    assert g7.n == 7 and g7.m == 11
    assert g7.degree(0) == 6


def test_product_small_cases():
    c4 = product(make_complete(2), make_complete(2), "cartesian")
    assert c4.n == 4 and c4.m == 4
    assert all(c4.degree(v) == 2 for v in range(4)) and c4.is_connected()
    k4 = product(make_complete(2), make_complete(2), "lexicographic")
    assert k4.edges == make_complete(4).edges
    # the direct product of K2 and K3 is the 6-cycle (bipartite double cover)
    d = product(make_complete(2), make_complete(3), "direct")
    assert d.n == 6 and d.m == 6
    assert all(d.degree(v) == 2 for v in range(6))
    assert d.is_connected()


def test_strong_is_disjoint_union_of_cartesian_and_direct():
    rng = random.Random(0)
    for _ in range(25):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        g = Graph(n1, frozenset(
            (u, v) for u in range(n1) for v in range(u + 1, n1)
            if rng.random() < 0.5
        ))
        h = Graph(n2, frozenset(
            (u, v) for u in range(n2) for v in range(u + 1, n2)
            if rng.random() < 0.5
        ))
        cart = product(g, h, "cartesian").edges
        direct = product(g, h, "direct").edges
        strong = product(g, h, "strong").edges
        assert strong == cart | direct
        assert not (cart & direct)


def test_products_match_their_adjacency_rules():
    # (a, b) ~ (x, y) by each product's rule, over every pair of ids
    rules = {
        "cartesian": lambda ag, bh, same_a, same_b: (same_a and bh) or (same_b and ag),
        "direct": lambda ag, bh, same_a, same_b: ag and bh,
        "strong": lambda ag, bh, same_a, same_b: (same_a or ag) and (same_b or bh),
        "lexicographic": lambda ag, bh, same_a, same_b: ag or (same_a and bh),
    }
    rng = random.Random(30)
    factors = [random_graph(rng.randint(1, 5), rng.random(), rng) for _ in range(30)]
    assert {f.n for f in factors} == {1, 2, 3, 4, 5} and any(f.m == 0 for f in factors)
    for g, h in zip(factors, factors[1:] + factors[:1]):
        for kind, rule in rules.items():
            expected = {
                (u, v) for u in range(g.n * h.n) for v in range(u + 1, g.n * h.n)
                if rule(g.has_edge(u // h.n, v // h.n), h.has_edge(u % h.n, v % h.n),
                        u // h.n == v // h.n, u % h.n == v % h.n)
            }
            p = product(g, h, kind)
            assert (p.n, p.edges) == (g.n * h.n, expected), (kind, g, h)


def test_builders_make_graphs_that_the_constructor_accepts():
    # the builders skip Graph's edge checks, so their outputs get them here
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng.randint(0, 6), rng.random(), rng)
        h = random_graph(rng.randint(1, 6), rng.random(), rng)
        built = [
            make_path(rng.randint(1, 9)), make_cycle(rng.randint(3, 9)),
            make_complete(rng.randint(1, 7)),
            make_complete_multipartite([rng.randint(1, 3) for _ in range(rng.randint(1, 4))]),
            disjoint_union(g, h), join(g, h), complement(g), square(g),
        ]
        if g.n:
            built += [product(g, h, kind) for kind in PRODUCT_KINDS]
        for b in built:
            assert type(b.edges) is frozenset
            assert Graph(b.n, b.edges) == b


def test_lexicographic_complete_products_are_complete():
    for p, q in [(2, 3), (3, 2), (2, 2), (3, 3)]:
        g = product(make_complete(p), make_complete(q), "lexicographic")
        assert g.m == p * q * (p * q - 1) // 2


@settings(max_examples=60)
@given(random_graph_strategy())
def test_complement_is_involutive(g):
    assert complement(complement(g)).edges == g.edges


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(3, frozenset({(0, 0)}))
    with pytest.raises(GraphError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def test_json_round_trip(tmp_path):
    g = from_json_dict({"n": 3, "edges": [[0, 1], [2, 1], [0, 2]]})
    assert g == make_complete(3) and g.adj == make_complete(3).adj
    data = to_json_dict(g)
    assert data == {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}
    # canonical form is stable under reload
    assert to_json_dict(from_json_dict(data)) == data


def test_json_rejects_malformed():
    for n, edges, message in [
        (2, [[0, 2]], "edge (0,2) out of range for n=2"),
        (2, [[0, 0]], "loop at vertex 0"),
        (2, [[0, 1], [1, 0]], "duplicate edge (0, 1)"),
        (-1, [], "vertex count must be nonnegative, got -1"),
        (3, [[2, -1]], "edge (-1,2) out of range for n=3"),
        (3, [[0, True]], "malformed edge entry [0, True]"),
        (3, [[0, 1.0]], "malformed edge entry [0, 1.0]"),
        (3, [[0, 1, 2]], "malformed edge entry [0, 1, 2]"),
        (3, [5], "malformed edge entry 5"),
        (3, ["01"], "malformed edge entry '01'"),
    ]:
        with pytest.raises(GraphError) as exc:
            from_json_dict({"n": n, "edges": edges})
        assert str(exc.value) == message
    with pytest.raises(GraphError):
        from_json_dict({"edges": []})


def test_export_dot_with_colors():
    g = make_path(2)
    text = export_dot(g, Coloring((0, 1)))
    assert "0 [color=0];" in text
    assert "1 [color=1];" in text
    assert "0 -- 1;" in text


@pytest.mark.parametrize("colors", [(0, 1), (0, 1, 0, 1)])
def test_export_dot_refuses_a_coloring_of_the_wrong_length(colors):
    with pytest.raises(GraphError) as exc:
        export_dot(make_path(3), Coloring(colors))
    assert str(exc.value) == f"coloring length {len(colors)} does not match n=3"


def test_diameter_and_connectivity():
    assert make_path(4).diameter() == 3
    assert Graph(0, frozenset()).is_connected()
    assert make_path(1).is_connected() and make_path(5).is_connected()
    g = disjoint_union(make_complete(2), make_complete(2))
    assert not g.is_connected()
    with pytest.raises(GraphError):
        g.diameter()


def _all_pairs_distances(g):
    """Floyd-Warshall; None for unreachable pairs."""
    inf = g.n
    d = [[0 if u == v else inf for v in range(g.n)] for u in range(g.n)]
    for u, v in g.edges:
        d[u][v] = d[v][u] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return [[x if x < inf else None for x in row] for row in d]


def test_bfs_walk_and_the_checks_built_on_it():
    rng = random.Random(28)
    connected = 0
    for _ in range(300):
        n = rng.randint(0, 12)
        g = random_graph(n, rng.choice((0.1, 0.25, 0.5)), rng)
        sources = rng.sample(range(n), rng.randint(min(n, 1), min(n, 3)))
        order, parent = g.bfs(sources)
        d = _all_pairs_distances(g)
        assert order[:len(sources)] == sources
        assert len(set(order)) == len(order) and len(parent) == n
        # the walk reaches exactly the vertices at a finite distance
        dist = [min((d[s][v] for s in sources if d[s][v] is not None), default=None)
                for v in range(n)]
        assert sorted(order) == [v for v in range(n) if dist[v] is not None]
        assert all(parent[v] == -1 for v in range(n) if dist[v] in (None, 0))
        pos = {v: i for i, v in enumerate(order)}
        children = {}
        for v in order[len(sources):]:
            assert g.has_edge(v, parent[v]) and pos[parent[v]] < pos[v]
            assert dist[v] == dist[parent[v]] + 1
            children.setdefault(parent[v], []).append(v)
        for x, kids in children.items():
            first = pos[kids[0]]
            assert [pos[k] for k in kids] == list(range(first, first + len(kids)))
            assert kids == sorted(kids)
        # is_connected and diameter against the all-pairs reference
        flat = [x for row in d for x in row]
        assert g.is_connected() == (None not in flat)
        if None in flat:
            with pytest.raises(GraphError, match="disconnected"):
                g.diameter()
        else:
            connected += 1
            assert g.diameter() == max(flat, default=0)
    assert 50 < connected < 250
