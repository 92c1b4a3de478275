import hashlib
import random

import pytest

from strongodd.colorings import Coloring, is_strong_odd, neighborhood_histogram
from strongodd.constructive import (
    ConstructionError,
    c5_box_c5_table,
    color_cycle,
    color_direct_complete,
    color_tree,
    color_unicyclic,
    compose_lexicographic,
    compose_product_coloring,
    cycle_pattern,
    decompose_unicyclic,
    is_odd_tree,
    nordhaus_gaddum,
    plan_rooted_tree,
)
from strongodd.graphs import (
    Graph,
    complement,
    disjoint_union,
    join,
    make_complete,
    make_cycle,
    make_path,
    make_star,
    product,
)
from strongodd.randgen import random_odd_tree, random_tree, random_unicyclic
from strongodd.solver import brute_force_chi_so, chi_so_exact


def test_is_odd_tree():
    assert is_odd_tree(make_star(3))
    assert not is_odd_tree(make_path(4))
    assert is_odd_tree(make_complete(2))


def test_rooted_plan_orders_parents_first():
    t = random_tree(30, random.Random(8))
    plan = plan_rooted_tree(t)
    pos = {v: i for i, v in enumerate(plan.bfs_order)}
    for v in range(t.n):
        if plan.parent[v] >= 0:
            assert pos[plan.parent[v]] < pos[v]


def test_color_tree_examples():
    assert color_tree(make_star(3)).k == 2
    phi = color_tree(make_path(4))
    assert phi.k == 3
    assert is_strong_odd(make_path(4), phi) == []


def test_tree_dichotomy_on_random_corpus():
    rng = random.Random(41)
    for i in range(150):
        t = random_tree(rng.randint(2, 60), rng)
        phi = color_tree(t)
        assert is_strong_odd(t, phi) == []
        assert (phi.k == 2) == is_odd_tree(t)
    for i in range(40):
        t = random_odd_tree(rng.randint(0, 25), rng)
        assert is_odd_tree(t)
        phi = color_tree(t)
        assert is_strong_odd(t, phi) == [] and phi.k == 2


def test_color_tree_rejects_non_tree():
    with pytest.raises(ConstructionError):
        color_tree(make_cycle(4))


def test_cycle_patterns_match_formula_and_oracle():
    for n in range(3, 10):
        phi = color_cycle(n)
        expected = 3 if n % 3 == 0 else (5 if n == 5 else 4)
        assert phi.k == expected
        assert is_strong_odd(make_cycle(n), phi) == []
        assert brute_force_chi_so(make_cycle(n)) == expected
    assert cycle_pattern(9) == (0, 1, 2, 0, 1, 2, 0, 1, 2)
    assert cycle_pattern(5) == (0, 1, 2, 3, 4)


def test_cycle_pattern_is_square_proper():
    for n in [*range(3, 30), 1000, 1001, 1002, 4999]:
        pat = cycle_pattern(n)
        for i in range(n):
            assert pat[i] != pat[(i + 1) % n]
            assert pat[i] != pat[(i + 2) % n]
        assert color_cycle(n).k == (3 if n % 3 == 0 else (5 if n == 5 else 4))


def test_decompose_unicyclic():
    # five-cycle with one pendant vertex
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 5)])
    dec = decompose_unicyclic(g)
    assert len(dec.cycle) == 5
    assert dec.pendant_roots == {2: (5,)}
    # bare cycle
    dec = decompose_unicyclic(make_cycle(6))
    assert dec.pendant_roots == {}
    # tadpole: six-cycle plus a path of three
    g = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                             (3, 6), (6, 7), (7, 8)])
    dec = decompose_unicyclic(g)
    assert len(dec.cycle) == 6
    assert dec.pendant_roots == {3: (6,)}
    assert dec.forest_order == (6, 7, 8)
    assert [dec.parent[v] for v in dec.forest_order] == [3, 6, 7]
    with pytest.raises(ConstructionError):
        decompose_unicyclic(make_path(4))


def test_unicyclic_refuses_the_empty_graph():
    # n = m = 0 and a graph of at most one vertex counts as connected
    for f in (decompose_unicyclic, color_unicyclic):
        with pytest.raises(ConstructionError, match=r"^input is not a connected unicyclic graph$"):
            f(Graph(0, frozenset()))


# a dumbbell (two triangles joined by a path) plus a disjoint edge: m = n,
# but vertex 5 lies on a triangle and on the path toward the other one
DUMBBELL_PLUS_EDGE = Graph.from_edges(11, [(0, 7), (5, 7), (1, 5), (2, 5), (1, 2), (0, 8),
                                           (6, 8), (3, 6), (4, 6), (3, 4), (9, 10)])


@pytest.mark.parametrize("g", [
    DUMBBELL_PLUS_EDGE,
    disjoint_union(make_cycle(3), make_cycle(3)),
    disjoint_union(make_complete(4), Graph(2, frozenset())),
], ids=["dumbbell_plus_edge", "two_triangles", "k4_plus_two_isolated"])
def test_unicyclic_refuses_disconnected_inputs_with_as_many_edges_as_vertices(g):
    # without the core-degree check before the cycle walk, the walk on
    # the dumbbell goes 0, 7, 5, 1, 2, 5, 1, 2, ... and never ends
    assert g.m == g.n
    for f in (decompose_unicyclic, color_unicyclic):
        with pytest.raises(ConstructionError, match=r"^input is not a connected unicyclic graph$"):
            f(g)


def test_random_unicyclic_draws_as_the_listing_version():
    def listing(n, rng):
        t = random_tree(n, rng)
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not t.has_edge(u, v)]
        return Graph(n, t.edges | {rng.choice(non_edges)})

    for seed in range(2000):
        n = 3 + seed % 40
        rng, ref = random.Random(seed), random.Random(seed)
        assert random_unicyclic(n, rng) == listing(n, ref)
        assert rng.getstate() == ref.getstate()
    # the random stream stays aligned over successive draws
    rng, ref = random.Random(1), random.Random(1)
    for _ in range(200):
        n = rng.randint(3, 40)
        assert n == ref.randint(3, 40)
        assert random_unicyclic(n, rng) == listing(n, ref)


def test_color_unicyclic_examples():
    assert color_unicyclic(make_cycle(5)).k == 5
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 5)])
    phi = color_unicyclic(g)
    assert is_strong_odd(g, phi) == [] and phi.k == 4
    # a long cycle with one pendant vertex
    g = Graph.from_edges(1002, [*make_cycle(1001).edges, (0, 1001)])
    phi = color_unicyclic(g)
    assert is_strong_odd(g, phi) == [] and phi.k <= 4
    # a leaf on every vertex of a long cycle
    g = _leaf_per_vertex(4000)
    phi = color_unicyclic(g)
    assert is_strong_odd(g, phi) == [] and phi.k <= 4


def _cycle_with_trees(c, n, rng):
    """A c-cycle with random pendant trees on n vertices in all, under a
    random relabeling."""
    edges = [*make_cycle(c).edges, *((rng.randrange(v), v) for v in range(c, n))]
    return _relabeled(Graph.from_edges(n, edges), rng)


def _relabeled(t, rng):
    """t under a random relabeling."""
    perm = list(range(t.n))
    rng.shuffle(perm)
    return Graph.from_edges(t.n, [(perm[u], perm[v]) for u, v in t.edges])


def _leaf_per_vertex(c):
    """A c-cycle with one pendant leaf on each cycle vertex."""
    return Graph.from_edges(2 * c, [*make_cycle(c).edges, *((v, c + v) for v in range(c))])


def test_color_unicyclic_output_is_pinned():
    # re-recorded when every vertex's uncolored neighbors came to follow
    # one parity rule: the smallest of them switches, where the pendant
    # roots of a tree root used to switch the largest, and an odd pendant
    # set at a cycle vertex used to take the fresh color all together
    def corpus():
        rng = random.Random(5)
        for _ in range(300):
            yield random_unicyclic(rng.randint(3, 80), rng)
        rng = random.Random(6)
        for _ in range(100):
            yield _cycle_with_trees(5, rng.randint(6, 40), rng)
        for _ in range(100):
            c = rng.randint(3, 12)
            yield _cycle_with_trees(c, rng.randint(c, 60), rng)
        for c in [*range(3, 13), 1000, 1001, 1002]:
            yield _leaf_per_vertex(c)

    h = hashlib.sha256()
    for g in corpus():
        h.update(repr(color_unicyclic(g).colors).encode())
    assert h.hexdigest()[:16] == "c8fceef408bbe6a2"


def test_decompose_unicyclic_output_is_pinned():
    # the corpus of test_color_unicyclic_output_is_pinned; recorded from
    # the earlier decomposition that checked connectivity with a separate
    # traversal and walked the pendant forest with its own queue
    def corpus():
        rng = random.Random(5)
        for _ in range(300):
            yield random_unicyclic(rng.randint(3, 80), rng)
        rng = random.Random(6)
        for _ in range(100):
            yield _cycle_with_trees(5, rng.randint(6, 40), rng)
        for _ in range(100):
            c = rng.randint(3, 12)
            yield _cycle_with_trees(c, rng.randint(c, 60), rng)
        for c in [*range(3, 13), 1000, 1001, 1002]:
            yield _leaf_per_vertex(c)

    h = hashlib.sha256()
    for g in corpus():
        dec = decompose_unicyclic(g)
        h.update(repr((dec.cycle, sorted(dec.pendant_roots.items()),
                       dec.parent, dec.forest_order)).encode())
    assert h.hexdigest()[:16] == "700e9a1482961d89"


def test_color_unicyclic_random_corpus():
    rng = random.Random(77)
    for _ in range(150):
        g = random_unicyclic(rng.randint(3, 60), rng)
        phi = color_unicyclic(g)
        assert is_strong_odd(g, phi) == []
        dec = decompose_unicyclic(g)
        cap = 5 if (len(dec.cycle) == 5 and not dec.pendant_roots) else 4
        assert phi.k <= cap


def _assert_parity_rule(g, phi, parent, cycle=()):
    """Each colored vertex v colors its neighbors u with parent[u] == v:
    they share one color x, except possibly the smallest.  When v has a
    colored neighbor in its own palette (a tree parent, or a cycle
    neighbor of a cycle vertex), x is that neighbor's color."""
    c, on_cycle = phi.colors, set(cycle)
    kids = [[] for _ in range(g.n)]
    for u in range(g.n):
        if parent[u] >= 0:
            kids[parent[u]].append(u)
    for v, ks in enumerate(kids):
        if len(ks) < 2:
            continue
        x = c[ks[-1]]
        assert {c[u] for u in ks[1:]} == {x}, (v, [c[u] for u in ks])
        p = parent[v]
        if v in on_cycle:
            assert x in {c[w] for w in g.adj[v] if w in on_cycle}, v
        elif p >= 0 and p not in on_cycle:
            assert x == c[p], v


def test_every_vertex_colors_its_neighbors_by_one_parity_rule():
    rng = random.Random(32)
    trees = [_relabeled(random_tree(rng.randint(3, 150), rng), rng) for _ in range(200)]
    trees += [_relabeled(random_odd_tree(rng.randint(1, 50), rng), rng) for _ in range(100)]
    for t in trees:
        phi = color_tree(t)
        assert is_strong_odd(t, phi) == []
        assert phi.k == (2 if is_odd_tree(t) else 3)
        _assert_parity_rule(t, phi, plan_rooted_tree(t).parent)
    graphs = [_cycle_with_trees(5, rng.randint(6, 60), rng) for _ in range(150)]
    graphs += [_leaf_per_vertex(c) for c in range(3, 13)]
    graphs += [_cycle_with_trees(c, rng.randint(c, 80), rng)
               for c in range(3, 13) for _ in range(15)]
    graphs += [make_cycle(c) for c in range(3, 13)]
    for g in graphs:
        phi = color_unicyclic(g)
        dec = decompose_unicyclic(g)
        assert is_strong_odd(g, phi) == []
        assert phi.k <= (5 if len(dec.cycle) == 5 and not dec.pendant_roots else 4)
        _assert_parity_rule(g, phi, dec.parent, dec.cycle)


def test_compose_product_coloring_bounds():
    g, h = make_cycle(6), make_cycle(6)
    phi = color_cycle(6)
    for kind in ("cartesian", "direct", "strong"):
        composed = compose_product_coloring(g, phi, h, phi, kind)
        assert is_strong_odd(product(g, h, kind), composed) == []
        assert composed.k <= phi.k * phi.k
    with pytest.raises(ConstructionError):
        compose_product_coloring(g, Coloring((0,) * 6), h, phi, "cartesian")
    with pytest.raises(ConstructionError):
        compose_product_coloring(g, phi, h, phi, "lexicographic")


def test_compose_lexicographic():
    # trivial left factor: the restricted coloring itself must verify
    k1 = make_complete(1)
    h = make_path(6)
    apex = chi_so_exact(join(make_complete(1), h)).witness
    phi = compose_lexicographic(k1, Coloring((0,)), h, apex)
    assert is_strong_odd(product(k1, h, "lexicographic"), phi) == []
    # bound chi_so(G) * (chi_so(H + K1) - 1)
    g = make_cycle(6)
    phi_g = color_cycle(6)
    h = make_complete(2)
    apex = chi_so_exact(join(make_complete(1), h)).witness
    composed = compose_lexicographic(g, phi_g, h, apex)
    assert is_strong_odd(product(g, h, "lexicographic"), composed) == []
    assert composed.k <= phi_g.k * (apex.k - 1) == 6


def test_direct_complete_values():
    cases = {(3, 3): 9, (4, 3): 3, (4, 6): 4, (2, 2): 2, (5, 5): 25, (3, 4): 3}
    for (p, q), expected in cases.items():
        phi = color_direct_complete(p, q)
        d = product(make_complete(p), make_complete(q), "direct")
        assert is_strong_odd(d, phi) == []
        assert phi.k == expected
    with pytest.raises(ConstructionError):
        color_direct_complete(1, 3)


def test_c5_grid_table():
    phi = c5_box_c5_table()
    # spot-check three fixed cells of the published table
    assert phi.colors[0] == 0
    assert phi.colors[5] == 3
    assert phi.colors[24] == 1
    f = product(make_cycle(5), make_cycle(5), "cartesian")
    assert is_strong_odd(f, phi) == [] and phi.k == 5
    for v in range(25):
        hist = neighborhood_histogram(f, phi, v)
        assert all(c == 1 for c in hist.values())


def test_direct_complete_follows_the_case_table():
    # the five cases of the published construction, 2 <= p, q <= 9
    def expected(p, q):
        if p % 2 and q % 2:
            return tuple(range(p * q))  # rainbow
        column = tuple(a for a in range(p) for _ in range(q))
        row = tuple(b for _ in range(p) for b in range(q))
        if p % 2 == 0 and q % 2:
            return row
        if p % 2 and q % 2 == 0:
            return column
        return column if p <= q else row

    for p in range(2, 10):
        for q in range(2, 10):
            phi = color_direct_complete(p, q)
            assert phi.colors == expected(p, q), (p, q)
            assert is_strong_odd(product(make_complete(p), make_complete(q), "direct"), phi) == []


# the published 5-color table of the Cartesian square of a five-cycle,
# row i holding the colors of vertices (i, 0..4)
_GRID5 = (
    (0, 1, 2, 3, 4),
    (3, 4, 0, 1, 2),
    (1, 2, 3, 4, 0),
    (4, 0, 1, 2, 3),
    (2, 3, 4, 0, 1),
)


def test_c5_grid_table_is_the_published_table():
    assert c5_box_c5_table().colors == tuple(c for row in _GRID5 for c in row)


def _all_strong_odd_colorings(g):
    """Exhaustive canonical enumeration (properness-pruned restricted
    growth), independent of the search engine."""
    assignment = [0] * g.n
    out = []

    def rec(v, used):
        if v == g.n:
            phi = Coloring(tuple(assignment))
            if not is_strong_odd(g, phi):
                out.append(phi)
            return
        for c in range(used + 1):
            if any(assignment[u] == c for u in g.adj[v] if u < v):
                continue
            assignment[v] = c
            rec(v + 1, max(used, c + 1))

    rec(0, 0)
    return out


def test_direct_complete_odd_side_never_repeats_in_column():
    # with an odd second factor, no column (fixed first coordinate) of
    # the direct product can use a color twice, in any strong odd coloring
    for p, q in [(2, 3), (3, 3), (4, 3)]:
        d = product(make_complete(p), make_complete(q), "direct")
        colorings = _all_strong_odd_colorings(d)
        assert colorings
        for phi in colorings:
            for g_idx in range(p):
                column = [phi.colors[g_idx * q + h] for h in range(q)]
                assert len(set(column)) == len(column), (p, q, phi.colors)


def test_nordhaus_gaddum_witnesses():
    for which, expected in (("H1", 3), ("H2", 9)):
        g, phi, phi_c = nordhaus_gaddum(1, which)
        assert g.n == 9
        assert is_strong_odd(g, phi) == [] and phi.k == expected
        assert is_strong_odd(complement(g), phi_c) == [] and phi_c.k == expected
    with pytest.raises(ConstructionError):
        nordhaus_gaddum(0, "H1")


def test_color_tree_output_is_pinned():
    # recorded from the earlier construction that checked connectivity
    # with a separate traversal and re-sorted every adjacency while
    # coloring; the one-BFS plan must match it
    def corpus():
        rng = random.Random(11)
        for _ in range(300):
            yield _relabeled(random_tree(rng.randint(1, 120), rng), rng)
        for _ in range(100):
            yield _relabeled(random_odd_tree(rng.randint(0, 40), rng), rng)
        for k in [*range(1, 12), 100, 101]:
            yield make_star(k)
            yield _relabeled(make_star(k), rng)
        for n in [*range(1, 12), 500, 501]:
            yield make_path(n)
            yield _relabeled(make_path(n), rng)

    h = hashlib.sha256()
    for t in corpus():
        plan = plan_rooted_tree(t)
        h.update(repr((plan.root, plan.parent, plan.bfs_order)).encode())
        h.update(repr(color_tree(t).colors).encode())
    assert h.hexdigest()[:16] == "e212917ea300f07f"
