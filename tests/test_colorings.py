import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongodd.colorings import (
    DISTANCE2_CLASH,
    EVEN_COLOR,
    NO_ODD_COLOR,
    NOT_PROPER,
    Coloring,
    Violation,
    is_odd,
    is_proper,
    is_square_coloring,
    is_strong_odd,
    neighborhood_histogram,
)
from strongodd.constructive import c5_box_c5_table, color_tree
from strongodd.graphs import (
    Graph,
    make_complete_bipartite,
    make_cycle,
    make_path,
    make_star,
    product,
    square,
)
from strongodd.planemaps import FaceViolation
from strongodd.randgen import random_graph, random_odd_tree, random_tree


def test_proper_examples():
    c3 = make_cycle(3)
    assert is_proper(c3, Coloring((0, 1, 2))) == []
    bad = is_proper(c3, Coloring((0, 0, 1)))
    assert {v.vertex for v in bad} == {0, 1}
    assert all(v.kind == NOT_PROPER for v in bad)
    k23 = make_complete_bipartite(2, 3)
    assert is_proper(k23, Coloring((0, 0, 1, 1, 1))) == []


def test_strong_odd_examples():
    assert is_strong_odd(make_cycle(6), Coloring((0, 1, 2, 0, 1, 2))) == []
    bad = is_strong_odd(make_cycle(4), Coloring((0, 1, 0, 1)))
    assert any(v.kind == EVEN_COLOR and v.vertex == 0 and v.color == 1 and v.count == 2
               for v in bad)


def test_rainbow_is_strong_odd():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 8)
        edges = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
        g = Graph(n, edges)
        assert is_strong_odd(g, Coloring(tuple(range(n)))) == []


def test_odd_coloring_examples():
    assert is_odd(make_cycle(5), Coloring((0, 1, 2, 3, 4))) == []
    bad = is_odd(make_cycle(4), Coloring((0, 1, 0, 1)))
    assert {v.vertex for v in bad if v.kind == NO_ODD_COLOR} == {0, 1, 2, 3}


def test_square_coloring_examples():
    p3 = make_path(3)
    bad = is_square_coloring(p3, Coloring((0, 1, 0)))
    assert any(v.kind == DISTANCE2_CLASH for v in bad)
    assert is_square_coloring(p3, Coloring((0, 1, 2))) == []


def test_histogram():
    star = make_star(3)
    assert neighborhood_histogram(star, Coloring((0, 1, 1, 1)), 0) == {1: 3}
    lonely = Graph(1, frozenset())
    assert neighborhood_histogram(lonely, Coloring((0,)), 0) == {}


def test_c5_grid_closed_neighborhoods_are_rainbow():
    f = product(make_cycle(5), make_cycle(5), "cartesian")
    phi = c5_box_c5_table()
    for v in range(25):
        hist = neighborhood_histogram(f, phi, v)
        assert set(hist.values()) == {1} and len(hist) == 4
        assert phi.colors[v] not in hist


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        is_proper(make_path(3), Coloring((0, 1)))


def _random_colored_instance(draw_n, draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    colors = draw(st.tuples(*[st.integers(0, n - 1) for _ in range(n)]))
    return Graph(n, frozenset(edges)), Coloring(colors)


@st.composite
def colored_instances(draw):
    return _random_colored_instance(None, draw)


@settings(max_examples=150)
@given(colored_instances())
def test_implication_chain(gc):
    g, phi = gc
    if not is_square_coloring(g, phi):
        assert not is_strong_odd(g, phi)
    if not is_strong_odd(g, phi):
        assert not is_odd(g, phi)
    if not is_odd(g, phi):
        assert not is_proper(g, phi)


@settings(max_examples=100)
@given(colored_instances(), st.randoms(use_true_random=False))
def test_strong_odd_invariant_under_color_permutation(gc, rnd):
    g, phi = gc
    ids = sorted(set(phi.colors))
    shuffled = list(ids)
    rnd.shuffle(shuffled)
    perm = dict(zip(ids, shuffled))
    assert bool(is_strong_odd(g, phi)) == bool(is_strong_odd(g, phi.permuted(perm)))


def _line_graph(g: Graph) -> Graph:
    edges = g.sorted_edges()
    lg_edges = [
        (i, j)
        for i, j in combinations(range(len(edges)), 2)
        if set(edges[i]) & set(edges[j])
    ]
    return Graph.from_edges(len(edges), lg_edges)


def test_claw_free_strong_odd_equals_square_verdict():
    # line graphs are claw-free; on them the two strongest verdicts agree
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        n = rng.randint(3, 5)
        base = Graph(n, frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6
        ))
        lg = _line_graph(base)
        if not 1 <= lg.n <= 9:
            continue
        phi = Coloring(tuple(rng.randrange(max(2, lg.n // 2)) for _ in range(lg.n)))
        assert bool(is_strong_odd(lg, phi)) == bool(is_square_coloring(lg, phi))
        checked += 1


def _reference_violations(g: Graph, phi: Coloring) -> dict:
    """The four predicates straight from their definitions: a Counter
    histogram per open neighborhood, and distance-2 clashes read off the
    square graph."""
    c = phi.colors
    hist = [Counter(c[u] for u in g.adj[v]) for v in range(g.n)]
    proper = [Violation(NOT_PROPER, v, c[v], hist[v][c[v]])
              for v in range(g.n) if hist[v][c[v]]]
    even = [Violation(EVEN_COLOR, v, col, cnt)
            for v in range(g.n) for col, cnt in sorted(hist[v].items()) if cnt % 2 == 0]
    no_odd = [Violation(NO_ODD_COLOR, v) for v in range(g.n)
              if g.adj[v] and all(cnt % 2 == 0 for cnt in hist[v].values())]
    g2 = square(g)
    clash = []
    for v in range(g.n):
        cnt = sum(1 for u in g2.adj[v] if c[u] == c[v] and not g.has_edge(u, v))
        if cnt:
            clash.append(Violation(DISTANCE2_CLASH, v, c[v], cnt))
    return {
        is_proper: proper,
        is_strong_odd: proper + even,
        is_odd: proper + no_odd,
        is_square_coloring: proper + clash,
    }


@st.composite
def few_color_instances(draw):
    n = draw(st.integers(min_value=0, max_value=14))
    p = draw(st.sampled_from([0.15, 0.3, 0.6]))
    rnd = draw(st.randoms(use_true_random=False))
    edges = frozenset(
        (u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < p
    )
    ids = draw(st.sampled_from([(0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 7, 10**9)]))
    colors = draw(st.tuples(*[st.sampled_from(ids) for _ in range(n)]))
    return Graph(n, edges), Coloring(colors)


@settings(max_examples=200)
@given(few_color_instances())
def test_verifiers_match_reference_definitions(gc):
    g, phi = gc
    for verifier, expected in _reference_violations(g, phi).items():
        assert verifier(g, phi) == expected


def _differential_corpus(rng):
    """Seeded instances past the hypothesis sizes: dense random graphs
    on few colors (same-colored groups overlap through triangles), trees
    colored by color_tree, complete bipartite K_{2,n} and grids (groups
    overlap through 4-cycles), some with a few vertices recolored."""
    for _ in range(150):
        g = random_graph(rng.randint(0, 40), rng.choice([0.1, 0.3, 0.5, 0.7]), rng)
        k = rng.randint(1, 4)
        yield g, Coloring(tuple(rng.randrange(k) for _ in range(g.n)))
    for _ in range(40):
        t = random_tree(rng.randint(1, 40), rng)
        colors = list(color_tree(t).colors)
        for _ in range(rng.randint(0, 2)):
            colors[rng.randrange(t.n)] = rng.randrange(3)
        yield t, Coloring(tuple(colors))
    for n in range(1, 12):
        g = make_complete_bipartite(2, n)
        for k in (1, 2, 3):
            yield g, Coloring(tuple(rng.randrange(k) for _ in range(g.n)))
    for a in range(2, 6):
        for b in range(a, 7):
            g = product(make_path(a), make_path(b), "cartesian")
            for k in (2, 3, 4):
                yield g, Coloring(tuple(rng.randrange(k) for _ in range(g.n)))


def test_verifiers_match_reference_on_seeded_corpus():
    rng = random.Random(2024)
    for g, phi in _differential_corpus(rng):
        for verifier, expected in _reference_violations(g, phi).items():
            assert verifier(g, phi) == expected, (verifier.__name__, g, phi)


def _clash_counts(g, phi):
    return Counter(v.count for v in is_square_coloring(g, phi) if v.kind == DISTANCE2_CLASH)


def test_square_clashes_on_stars():
    for n in (2001, 2000):
        star = make_star(n)
        phi = color_tree(star)
        assert [f(star, phi) for f in (is_proper, is_odd, is_strong_odd)] == [[], [], []]
        # odd n: every leaf has color 1; even n: leaf 1 has color 2
        same_leaves = n if n % 2 else n - 1
        assert _clash_counts(star, phi) == {same_leaves - 1: same_leaves}
    # one leaf on the center's color: an improper edge, and the center
    # sees its n - 1 other leaves an even number of times
    n = 2001
    star = make_star(n)
    phi = Coloring((0, 0) + (1,) * (n - 1))
    assert is_proper(star, phi) == [Violation(NOT_PROPER, 0, 0, 1), Violation(NOT_PROPER, 1, 0, 1)]
    assert len(is_odd(star, phi)) == 2
    assert is_strong_odd(star, phi)[2:] == [Violation(EVEN_COLOR, 0, 1, n - 1)]
    assert _clash_counts(star, phi) == {n - 2: n - 1}
    # two leaves on the center's color: each has a same-colored neighbor
    # and the other at distance two
    phi = Coloring((0, 0, 0) + (1,) * (n - 2))
    assert _clash_counts(star, phi) == {1: 2, n - 3: n - 2}
    # an edge between leaves 1 and 2 of one color: each is at distance
    # two from the n - 2 leaves other than itself and its neighbor
    fan = Graph(n + 1, star.edges | {(1, 2)})
    phi = Coloring((0,) + (1,) * n)
    clashes = {v.vertex: v.count for v in is_square_coloring(fan, phi) if v.kind == DISTANCE2_CLASH}
    assert clashes[1] == clashes[2] == n - 2
    assert set(clashes.values()) == {n - 2, n - 1} and len(clashes) == n
    small = Graph(8, make_star(7).edges | {(1, 2)})
    for colors in [(0,) + (1,) * 7, (0, 0, 0) + (1,) * 5, (0, 0) + (1,) * 6]:
        phi = Coloring(colors)
        for verifier, expected in _reference_violations(small, phi).items():
            assert verifier(small, phi) == expected


def test_square_clashes_on_k2n():
    # both centers see all n leaves, so every leaf lies in two identical
    # color groups; it clashes with the n - 1 other leaves
    for n in (2, 3, 50, 4000):
        g = make_complete_bipartite(2, n)
        assert _clash_counts(g, Coloring((0, 1) + (2,) * n)) == {n - 1: n}
        # the centers share a color too: each clashes with the other
        assert _clash_counts(g, Coloring((0, 0) + (1,) * n)) == Counter({1: 2}) + Counter({n - 1: n})
    g = make_complete_bipartite(2, 7)
    for colors in [(0, 1) + (2,) * 7, (0, 0) + (1,) * 7, (0, 1, 0) + (2,) * 6]:
        phi = Coloring(colors)
        for verifier, expected in _reference_violations(g, phi).items():
            assert verifier(g, phi) == expected


def test_square_clashes_on_trees_match_path_counts():
    # In a forest two vertices share at most one neighbor and no
    # neighbor of v is at distance 2, so v clashes with the w != v of
    # v's color in N(x), counted once per x in N(v).  The square graph
    # of _reference_violations cannot reach these sizes.
    rng = random.Random(27)
    for i in range(16):
        n = rng.randint(1000, 4000)
        t = random_odd_tree(n // 2, rng) if i % 4 == 3 else random_tree(n, rng)
        c = list(color_tree(t).colors)
        for _ in range(rng.choice((0, 0, 5, 50))):
            c[rng.randrange(t.n)] = rng.randrange(3)
        phi = Coloring(tuple(c))
        around = [Counter(c[w] for w in nbrs) for nbrs in t.adj]
        clash = []
        for v, nbrs in enumerate(t.adj):
            cnt = sum(around[x][c[v]] - 1 for x in nbrs)
            if cnt:
                clash.append(Violation(DISTANCE2_CLASH, v, c[v], cnt))
        assert is_square_coloring(t, phi) == is_proper(t, phi) + clash


@pytest.mark.parametrize("make", [lambda: Violation(NO_ODD_COLOR, 3),
                                  lambda: FaceViolation("not_proper", -1, 2)])
def test_violation_records_are_hashable_and_immutable(make):
    record = make()
    assert record.count is None and len({record, make()}) == 1
    with pytest.raises(AttributeError):
        record.color = 0


def test_coloring_names_the_first_negative_id():
    with pytest.raises(ValueError, match=r"^negative color id -3$"):
        Coloring((0, 2, -3, 1, -7))
    assert Coloring(()).k == 0


def test_huge_color_ids_allocate_nothing_per_id():
    # counts are keyed by color id, never indexed or shifted by it
    g = make_cycle(4)
    phi = Coloring((0, 10**9, 0, 10**9))
    tracemalloc.start()
    try:
        results = [f(g, phi) for f in (is_proper, is_odd, is_strong_odd, is_square_coloring)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert results[0] == []
    assert [v.color for v in results[2]] == [10**9, 0, 10**9, 0]
    assert len(results[1]) == 4 and len(results[3]) == 4
