import random

import pytest

from strongodd.colorings import is_odd, is_proper, is_strong_odd
from strongodd.gallery import gallery
from strongodd.graphs import (
    Graph,
    make_complete_bipartite,
    make_cycle,
    make_path,
    make_star,
    product,
    square,
)
from strongodd.solver import (
    Budget,
    brute_force_chi_so,
    chi_exact,
    chi_odd_exact,
    chi_so_exact,
    chi_square_exact,
    is_k_strong_odd_colorable,
)


def test_decision_examples():
    c5 = make_cycle(5)
    assert is_k_strong_odd_colorable(c5, 4).status == "no"
    res = is_k_strong_odd_colorable(c5, 5)
    assert res.status == "yes"
    assert is_strong_odd(c5, res.witness) == []
    assert is_k_strong_odd_colorable(make_complete_bipartite(2, 3), 4).status == "yes"


def test_chi_so_examples():
    assert chi_so_exact(make_path(4)).value == 3
    assert chi_so_exact(make_star(3)).value == 2
    assert chi_so_exact(gallery("G7").graph).value == 7


def test_other_parameters():
    c5 = make_cycle(5)
    assert chi_exact(c5).value == 3
    assert chi_odd_exact(c5).value == 5
    assert chi_square_exact(make_complete_bipartite(2, 3)).value == 5


def _random_graph(rng, max_n=8):
    n = rng.randint(1, max_n)
    edges = frozenset(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < rng.choice([0.2, 0.4, 0.6])
    )
    return Graph(n, edges)


def test_oracle_agreement():
    rng = random.Random(2024)
    for _ in range(120):
        g = _random_graph(rng)
        assert chi_so_exact(g).value == brute_force_chi_so(g)


def test_parameter_chain_on_random_graphs():
    rng = random.Random(99)
    for _ in range(60):
        g = _random_graph(rng)
        chi = chi_exact(g)
        odd = chi_odd_exact(g)
        so = chi_so_exact(g)
        sq = chi_square_exact(g)
        assert chi.value <= odd.value <= so.value <= sq.value
        assert sq.value <= g.max_degree() ** 2 + 1 or g.max_degree() == 0
        # every witness satisfies its own predicate with exactly the
        # reported number of colors
        assert is_proper(g, chi.witness) == [] and chi.witness.k == chi.value
        assert is_odd(g, odd.witness) == [] and odd.witness.k == odd.value
        assert is_strong_odd(g, so.witness) == [] and so.witness.k == so.value
        assert is_proper(square(g), sq.witness) == [] and sq.witness.k == sq.value


def test_determinism():
    rng = random.Random(5)
    for _ in range(20):
        g = _random_graph(rng, max_n=7)
        a = chi_so_exact(g)
        b = chi_so_exact(g)
        assert a.value == b.value
        assert a.witness == b.witness
        assert a.nodes_explored == b.nodes_explored


@pytest.mark.parametrize("name,nodes", [("G12a", 824), ("G12b", 884), ("G7", 66)])
def test_gallery_node_counts_pinned(name, nodes):
    res = chi_so_exact(gallery(name).graph)
    assert res.optimal and res.nodes_explored == nodes


@pytest.mark.parametrize("solve,value,nodes", [
    (chi_exact, 2, 20),
    (chi_odd_exact, 4, 240),
    (chi_so_exact, 5, 1637),
    (chi_square_exact, 5, 26),
])
def test_grid_node_counts_pinned(solve, value, nodes):
    # the search is deterministic, so node counts are exact regression pins
    res = solve(product(make_path(4), make_path(5), "cartesian"))
    assert (res.value, res.nodes_explored) == (value, nodes)


def test_budget_exhaustion_reports_unknown():
    g = gallery("G12a").graph
    res = is_k_strong_odd_colorable(g, 11, Budget(max_nodes=5))
    assert res.status == "unknown"
    solve = chi_so_exact(g, Budget(max_nodes=5))
    assert solve.value is None and not solve.optimal
    assert solve.lo >= 1 and solve.hi == g.n


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_chi_so(Graph(10, frozenset()))


def test_decision_k_validation():
    with pytest.raises(ValueError):
        is_k_strong_odd_colorable(make_cycle(3), 0)
