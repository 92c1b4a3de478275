import hashlib
import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest

from strongodd.colorings import Coloring, is_odd, is_proper, is_strong_odd
from strongodd.gallery import gallery
from strongodd.graphs import (
    Graph,
    disjoint_union,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_path,
    make_star,
    product,
    square,
)
from strongodd import solver
from strongodd.planemaps import augment_claim2, chi_pfo_exact, decompose_claim1
from strongodd.solver import (
    ALL_ODD,
    EXISTS_ODD,
    Budget,
    _ParitySearch,
    _greedy_clique,
    _members,
    _strong_odd_scopes,
    brute_force_chi_so,
    chi_exact,
    chi_odd_exact,
    chi_so_exact,
    chi_square_exact,
    is_k_strong_odd_colorable,
    solve_parity_system,
)
from strongodd.randgen import random_graph, random_planar_map
from test_oracle import _claim2_pieces as _oracle_claim2_pieces


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


@pytest.mark.parametrize("name,nodes", [("G12a", 236), ("G12b", 12), ("G7", 7)])
def test_gallery_node_counts_pinned(name, nodes):
    res = chi_so_exact(gallery(name).graph)
    assert res.optimal and res.nodes_explored == nodes


@pytest.mark.parametrize("solve,value,nodes", [
    (chi_exact, 2, 20),
    (chi_odd_exact, 4, 240),
    (chi_so_exact, 5, 436),
    (chi_square_exact, 5, 26),
])
def test_grid_node_counts_pinned(solve, value, nodes):
    # the search is deterministic, so node counts are exact regression pins
    res = solve(product(make_path(4), make_path(5), "cartesian"))
    assert (res.value, res.nodes_explored) == (value, nodes)


# (n, p, value, optimal, lo, nodes) of chi_so under a 10,000-node budget
# on G(n, p) drawn from random.Random(f"{n}:{p}"); every solve certifies.
_GNP_PINS = [
    (12, 0.2, 3, True, 3, 12), (12, 0.3, 6, True, 6, 19),
    (12, 0.5, 12, True, 12, 12), (14, 0.2, 5, True, 5, 17),
    (14, 0.3, 6, True, 6, 44), (14, 0.5, 14, True, 14, 263),
    (16, 0.2, 5, True, 5, 86), (16, 0.3, 10, True, 10, 154),
    (16, 0.5, 13, True, 13, 250), (18, 0.2, 6, True, 6, 48),
    (18, 0.3, 7, True, 7, 130), (18, 0.5, 18, True, 18, 748),
    (20, 0.2, 9, True, 9, 4603), (20, 0.3, 13, True, 13, 2110),
    (20, 0.5, 20, True, 20, 944), (22, 0.2, 9, True, 9, 2830),
    (22, 0.3, 12, True, 12, 4757), (22, 0.5, 22, True, 22, 844),
]


def test_random_graph_node_counts_pinned():
    got = []
    for n, p, *_ in _GNP_PINS:
        g = random_graph(n, p, random.Random(f"{n}:{p}"))
        r = chi_so_exact(g, Budget(max_nodes=10_000))
        got.append((n, p, r.value, r.optimal, r.lo, r.nodes_explored))
    assert got == _GNP_PINS


def test_forced_colors_certify_the_former_give_ups():
    # rule (c) alone gave up on all four at 10,001 nodes; a scope with one
    # fixer left for an even color now colors that fixer.  The exact
    # node counts are pinned above
    for n, p, value in ((20, 0.2, 9), (20, 0.3, 13), (22, 0.2, 9), (22, 0.3, 12)):
        g = random_graph(n, p, random.Random(f"{n}:{p}"))
        r = chi_so_exact(g, Budget(max_nodes=10_000))
        assert (r.value, r.optimal) == (value, True) and r.nodes_explored < 10_000
        assert is_strong_odd(g, r.witness) == [] and r.witness.k == value


def test_chi_odd_node_count_pinned():
    g = random_graph(16, 0.3, random.Random("odd:16:0.3"))
    r = chi_odd_exact(g, Budget(max_nodes=10_000))
    assert (r.value, r.optimal, r.lo, r.nodes_explored) == (4, True, 4, 412)


def _engine_instances():
    """(n, adj, scopes, mode) of the four parameters on seeded G(n, p),
    grids and the gallery rows, and of chi_pfo on Claim 2 pieces."""
    graphs = [random_graph(n, p, random.Random(f"engine:{n}:{p}"))
              for n in (8, 12, 16, 20, 22) for p in (0.2, 0.3, 0.5)]
    graphs += [product(make_path(a), make_path(b), "cartesian")
               for a, b in ((2, 3), (3, 3), (3, 4), (4, 5))]
    graphs += [gallery(name).graph for name in ("G7", "G12a", "G12b", "C5boxC5")]
    for g in graphs:
        yield g.n, g.adj, _strong_odd_scopes(g), ALL_ODD
        yield g.n, g.adj, [], ALL_ODD
        yield g.n, g.adj, [sorted(g.adj[v]) for v in range(g.n) if g.adj[v]], EXISTS_ODD
        sq = square(g)
        yield sq.n, sq.adj, [], ALL_ODD
    yield from _claim2_pieces()


def _claim2_pieces():
    """(n, adj, faces, ALL_ODD) of chi_pfo on the Claim 2 pieces of three
    seeded planar maps."""
    for n in (20, 30, 40):
        pm = random_planar_map(n, random.Random(f"engine:pfo:{n}"))
        for piece in decompose_claim1(pm, chi_exact(pm.underlying).witness):
            if piece.n >= 3:
                aug = augment_claim2(piece)
                faces = [sorted(f) for f in aug.face_vertex_sets()]
                yield aug.n, aug.underlying.adj, faces, ALL_ODD


def test_engine_decisions_are_pinned():
    # every decision from the input graph's clique bound up to the first
    # YES (or the first give-up at 5,000 nodes) and one k above it, each
    # also cut short at 1, 37 and 1,000 nodes, keeps its status, node
    # count and witness
    h = hashlib.sha256()
    for n, adj, scopes, mode in _engine_instances():
        # the whole instance as one part, components and all
        search = _ParitySearch(n, adj, scopes, mode)
        whole, color = search.order, [0] * n
        k = _greedy_clique(search.given, whole)
        last = n
        while k <= last:
            for cap in (1, 37, 1000, 5000):
                status, nodes = search.run(k, whole, color, cap, math.inf)
                colors = tuple(color) if status == "yes" else None
                h.update(repr((k, cap, status, nodes, colors)).encode())
            if status != "no":
                last = min(last, k + 1)
            k += 1
    assert h.hexdigest()[:16] == "4af7bfa017ec8a87"


def test_rainbow_is_the_fixpoint_of_the_scope_rule():
    # replayed without the engine: every scope with no independent triple
    # gets its missing pairs, until no scope adds one.  The rule only adds
    # edges, and more edges never create an independent triple, so the
    # fixpoint is unique and equality with it is the whole property
    instances = [i for i in _engine_instances() if i[3] == ALL_ODD and i[2]]
    g = random_planar_map(40, random.Random(40)).underlying
    instances.append((g.n, g.adj, _strong_odd_scopes(g), ALL_ODD))
    grown = 0
    for n, adj, scopes, mode in instances:
        have = {(u, v) for u in range(n) for v in adj[u] if u < v}
        given = len(have)
        changed = True
        while changed:
            changed = False
            for scope in scopes:
                scope = sorted(set(scope))
                if any(not have.intersection(itertools.combinations(t, 2))
                       for t in itertools.combinations(scope, 3)):
                    continue
                missing = set(itertools.combinations(scope, 2)) - have
                have |= missing
                changed |= bool(missing)
        search = _ParitySearch(n, adj, scopes, mode)
        assert search.nbr == [
            sum(1 << u for u in range(n) if (min(u, v), max(u, v)) in have)
            for v in range(n)
        ]
        assert (search.nbr is search.given) == (len(have) == given)
        grown += len(have) > given
    assert grown > len(instances) // 2


def test_rainbow_derivation_implies_nothing_outside_all_odd_scopes():
    g = gallery("G7").graph
    for scopes, mode in (([], ALL_ODD), (_strong_odd_scopes(g), EXISTS_ODD)):
        search = _ParitySearch(g.n, g.adj, scopes, mode)
        assert search.nbr is search.given
        whole = search.order
        assert search.lower_bound(whole) == _greedy_clique(search.nbr, whole) == 3


def test_implied_bound_is_below_the_oracle():
    rng = random.Random(16)
    raised = 0
    for _ in range(200):
        g = _random_graph(rng, max_n=9)
        search = _ParitySearch(g.n, g.adj, _strong_odd_scopes(g), ALL_ODD)
        parts = search.parts()
        bound = max((search.lower_bound(part) for part in parts), default=0)
        assert bound <= brute_force_chi_so(g)
        raised += bound > max((_greedy_clique(search.given, part) for part in parts), default=0)
    assert raised > 50


def test_implied_bound_is_below_the_facially_odd_value():
    # the value is found by run() from the clique bound up, as before the
    # implied bound existed, so a bound above it would show here
    tight = 0
    for n, adj, faces, mode in _claim2_pieces():
        search = _ParitySearch(n, adj, faces, mode)
        whole, color = search.order, [0] * n
        k = _greedy_clique(search.given, whole)
        while search.run(k, whole, color, 10**6, math.inf)[0] == "no":
            k += 1
        bound = search.lower_bound(whole)
        assert bound <= k
        tight += bound == k
    assert tight >= 10


def _plain_greedy_clique(nbr, part):
    # the greedy clique of _greedy_clique, grown to the end from each of
    # the first 16 vertices of part
    best = 1
    for s in part[:16]:
        size, cand = 1, nbr[s]
        while cand:
            pick = max(_members(cand), key=lambda x: ((nbr[x] & cand).bit_count(), -x))
            size += 1
            cand &= nbr[pick]
        best = max(best, size)
    return best


def test_the_lower_bound_stops_early_without_losing_a_clique():
    # a growth that stops once it cannot beat the best so far gives the
    # bound of every growth run to the end, on the input graph and on the
    # implied graph: seeded G(n, p), grids and the gallery rows, and the
    # Claim 2 pieces of both test modules
    instances = [(n, adj, scopes) for n, adj, scopes, mode in _engine_instances() if mode == ALL_ODD]
    instances += [(aug.n, aug.underlying.adj, [sorted(f) for f in aug.face_vertex_sets()])
                  for aug in _oracle_claim2_pieces()]
    implied = 0
    for n, adj, scopes in instances:
        search = _ParitySearch(n, adj, scopes, ALL_ODD)
        implied += search.nbr is not search.given
        for part in search.parts() + [search.order]:
            want = _plain_greedy_clique(search.given, part)
            if search.nbr is not search.given:
                want = max(want, _plain_greedy_clique(search.nbr, part))
            assert search.lower_bound(part) == want
    assert implied >= 20


def _implied_pairs(search):
    return [(u, v) for u in range(search.n)
            for v in _members(search.nbr[u] & ~search.given[u]) if u < v]


def test_implied_edges_hold_in_every_solution():
    # every coloring is a relabeling of one with color(v) <= v, and an
    # implied pair's two colors differ under any relabeling, so testing
    # those colorings covers every strong odd coloring
    rng = random.Random(20)
    fired = solutions = 0
    for _ in range(150):
        g = _random_graph(rng, max_n=7)
        search = _ParitySearch(g.n, g.adj, _strong_odd_scopes(g), ALL_ODD)
        pairs = _implied_pairs(search)
        if not pairs:
            continue
        fired += 1
        for colors in itertools.product(*(range(v + 1) for v in range(g.n))):
            if is_strong_odd(g, Coloring(colors)) == []:
                solutions += 1
                assert all(colors[u] != colors[v] for u, v in pairs)
    assert fired > 50 and solutions > 1000


def _meets_all_odd(adj_bits, scopes, color) -> bool:
    """Proper on the adjacency, and every color odd or absent in every
    scope."""
    return (all(color[u] != color[v] for u, a in enumerate(adj_bits) for v in _members(a))
            and all(c % 2 for s in scopes for c in Counter(color[v] for v in s).values()))


def test_yes_witnesses_are_proper_on_the_implied_graph():
    witnesses = 0
    for n, adj, scopes, mode in _engine_instances():
        if mode != ALL_ODD:
            continue
        search = _ParitySearch(n, adj, scopes, mode)
        whole, color = search.order, [0] * n
        k = search.lower_bound(whole)
        while (status := search.run(k, whole, color, 5000, math.inf)[0]) == "no":
            k += 1
        if status == "yes":
            witnesses += 1
            # nbr holds the input edges, so the witness is a solution
            assert all(g & ~a == 0 for g, a in zip(search.given, search.nbr))
            assert _meets_all_odd(search.nbr, scopes, color)
    assert witnesses > 60


def _reference_run(search, k, scopes, kinds=None) -> tuple:
    """run() on the whole instance, with rule (c) and the forced rule
    tested in full after every assignment: every color of every scope,
    closed ones included.  A fixer of color e in scope s is an uncolored
    member of s with no neighbor colored e.  When e has a positive even
    count in s, no fixer fails the child, and exactly one must take e:
    the forced vertex with the smallest id is colored, as one node, and
    the test repeats until nothing is forced.  Then the next uncolored
    vertex in the order branches.  Same order, canonical colors and
    adjacency, and one node per color tried, so (status, nodes) must
    equal run()'s.  kinds, if given, gets "branch" or "forced" per node."""
    kinds = [] if kinds is None else kinds
    order, n = search.order, search.n
    nbrs = [list(_members(a)) for a in search.nbr]
    color = [None] * n
    nodes = 0

    def propagate(forced):
        """Color forced vertices, appending them to forced, until none is
        left (True) or some even color has no fixer (False)."""
        nonlocal nodes
        while True:
            single = {}
            for s in scopes:
                count = Counter(color[v] for v in s)
                for e in range(k):
                    if count[e] and count[e] % 2 == 0:
                        fixers = [u for u in s if color[u] is None
                                  and all(color[w] != e for w in nbrs[u])]
                        if not fixers:
                            return False
                        if len(fixers) == 1:
                            single[fixers[0]] = min(e, single.get(fixers[0], e))
            if not single:
                return True
            w = min(single)
            nodes += 1
            kinds.append("forced")
            color[w] = single[w]
            forced.append(w)

    def extend(pos, top):
        nonlocal nodes
        while pos < n and color[order[pos]] is not None:
            pos += 1
        if pos == n:
            return True
        v = order[pos]
        for c in range(min(top + 2, k)):
            if any(color[w] == c for w in nbrs[v]):
                continue
            nodes += 1
            kinds.append("branch")
            color[v] = c
            forced = []
            if propagate(forced) and extend(pos + 1, max(top, c)):
                return True
            for w in forced:
                color[w] = None
        color[v] = None
        return False

    return ("yes" if extend(0, -1) else "no"), nodes


def test_incremental_rule_c_prunes_what_the_full_test_prunes():
    # the reference reads the search's order and its one adjacency, nbr,
    # so run() must make exactly its nodes; a search whose blocked masks
    # still read the input graph makes more, and fails here.  So do
    # forced vertices taken largest first, and entry singles dropped,
    # which the instances of at most 12 vertices did not show
    instances = [i for i in _engine_instances() if i[0] <= 20 and i[3] == ALL_ODD and i[2]]
    compared = 0
    for n, adj, scopes, mode in instances:
        search = _ParitySearch(n, adj, scopes, mode)
        whole, color = search.order, [0] * n
        k = _greedy_clique(search.given, whole)
        while True:
            status, nodes = search.run(k, whole, color, math.inf, math.inf)
            assert (status, nodes) == _reference_run(search, min(k, n), scopes)
            compared += 1
            if status == "yes":
                break
            k += 1
    assert compared > 40


def _plain_reference_run(search, k, scopes, pruned) -> tuple:
    """run() on the whole instance for the searches without forced
    colors (EXISTS_ODD, and ALL_ODD with no scopes): rule (a), and rule
    (b) by rescanning every scope that the child's vertex closes for a
    color of odd count.  Same order, canonical colors and adjacency, and
    one node per legal color tried, so (status, nodes) must equal
    run()'s.  pruned gets one entry per child that rule (b) fails."""
    order, n = search.order, search.n
    nbrs = [list(_members(a)) for a in search.nbr]
    rank = {v: i for i, v in enumerate(order)}
    closing = [[] for _ in range(n)]
    for s in scopes:
        if s:
            closing[max(s, key=rank.get)].append(s)
    color = [None] * n
    nodes = 0

    def extend(pos, top):
        nonlocal nodes
        if pos == n:
            return True
        v = order[pos]
        for c in range(min(top + 2, k)):
            if any(color[w] == c for w in nbrs[v]):
                continue
            nodes += 1
            color[v] = c
            if not all(any(m % 2 for m in Counter(color[u] for u in s).values())
                       for s in closing[v]):
                pruned.append(v)
                continue
            if extend(pos + 1, max(top, c)):
                return True
        color[v] = None
        return False

    return ("yes" if extend(0, -1) else "no"), nodes


def test_the_searches_without_forced_colors_match_the_plain_reference():
    # rule (b) under EXISTS_ODD is tested per child, and nothing else
    # prunes; a test that misses a closed scope, or prunes a child with
    # another odd color, makes other nodes
    instances = [i for i in _engine_instances()
                 if i[0] <= 20 and (i[3] == EXISTS_ODD or not i[2])]
    compared, pruned = 0, []
    for n, adj, scopes, mode in instances:
        search = _ParitySearch(n, adj, scopes, mode)
        whole, color = search.order, [0] * n
        k = _greedy_clique(search.given, whole)
        while True:
            status, nodes = search.run(k, whole, color, math.inf, math.inf)
            assert (status, nodes) == _plain_reference_run(search, min(k, n), scopes, pruned)
            compared += 1
            if status == "yes":
                break
            k += 1
    assert compared > 60 and pruned


def test_the_planar_map_that_gave_up_is_certified():
    # searched on the input graph, k = 7 stayed open after 2M nodes
    g = random_planar_map(40, random.Random(40)).underlying
    res = chi_so_exact(g, Budget(max_nodes=500_000))
    assert (res.value, res.optimal, res.nodes_explored) == (7, True, 23_751)
    assert is_strong_odd(g, res.witness) == []


def test_rule_c_reads_the_implied_graph_in_the_other_scopes():
    # others[v], the scopes touching N(v) that rule (c) and the forced
    # rule test for v's color, must come from the implied adjacency: v's
    # color blocks its implied neighbors too.  Built from the input graph
    # it misses scopes: with rule (c) alone the first map "certified" 7
    # with a witness that is not strong odd.  With forced colors the
    # two maps no longer show it, and the G(30, 0.15) draw needs 15,425
    # nodes instead of 8,759
    g = random_planar_map(23, random.Random(2)).underlying
    res = chi_so_exact(g, Budget(max_nodes=100_000))
    assert (res.value, res.optimal, res.nodes_explored) == (7, True, 40)
    assert is_strong_odd(g, res.witness) == []
    g = random_planar_map(37, random.Random(1)).underlying
    res = chi_so_exact(g, Budget(max_nodes=100_000))
    assert (res.value, res.optimal, res.nodes_explored) == (6, True, 1_272)
    assert is_strong_odd(g, res.witness) == []
    g = random_graph(30, 0.15, random.Random("others:30:13"))
    res = chi_so_exact(g, Budget(max_nodes=100_000))
    assert (res.value, res.optimal, res.nodes_explored) == (6, True, 8_759)
    assert is_strong_odd(g, res.witness) == []


def test_the_implied_bound_decides_at_once():
    # the rainbow neighborhoods imply a 7-clique; searched from the
    # clique bound 4, k = 6 gave up after 806,913 nodes in 2 s
    g = random_planar_map(40, random.Random(40)).underlying
    res = is_k_strong_odd_colorable(g, 6, Budget(max_time=2))
    assert (res.status, res.witness, res.nodes_explored) == ("no", None, 0)
    res = chi_so_exact(g, Budget(max_nodes=1))
    assert (res.lo, res.nodes_explored) == (7, 2)
    assert is_strong_odd(g, res.witness) == []
    # G12b: the search refutes k = 11 in 194 nodes; k = 12 still searches
    g = gallery("G12b").graph
    res = is_k_strong_odd_colorable(g, 11)
    assert (res.status, res.nodes_explored) == ("no", 0)
    res = is_k_strong_odd_colorable(g, 12)
    assert res.status == "yes" and is_strong_odd(g, res.witness) == []


def test_budget_exhaustion_reports_unknown():
    g = gallery("G12a").graph
    res = is_k_strong_odd_colorable(g, 11, Budget(max_nodes=5))
    assert res.status == "unknown"
    solve = chi_so_exact(g, Budget(max_nodes=5))
    assert solve.value is None and not solve.optimal
    assert solve.lo >= 1 and solve.hi == g.n


@pytest.mark.parametrize("solve,verify", [
    (chi_so_exact, is_strong_odd),
    (chi_exact, is_proper),
    (chi_odd_exact, is_odd),
    (chi_square_exact, lambda g, phi: is_proper(square(g), phi)),
])
def test_budget_exhaustion_brackets_with_a_valid_witness(solve, verify):
    rng = random.Random(31)
    graphs = [random_graph(n, 0.3, rng) for n in (12, 16, 20, 24)]
    # unions: the first component searched gives up, or (the triangle)
    # certifies in 3 nodes and the path after it gives up
    graphs += [disjoint_union(random_graph(a, 0.3, rng), random_graph(b, 0.3, rng))
               for a, b in ((10, 11), (12, 12), (6, 14))]
    graphs += [disjoint_union(make_complete(3), make_path(6), Graph(2, frozenset()))]
    for g in graphs:
        res = solve(g, Budget(max_nodes=3))
        assert verify(g, res.witness) == []
        assert res.witness.k == res.hi and res.lo <= res.hi < g.n
        assert res.optimal == (res.value is not None) == (res.hi == res.lo)
        # one node count runs across the components: a give-up stops at
        # the first node past the budget, and no component is searched
        # after it
        assert res.nodes_explored <= 4


def _capped_instances():
    """(name, search, k) of decisions that prune by rule (c) and force
    colors (NO and YES), by rule (b) under EXISTS_ODD, by rule (a) alone,
    and on faces."""
    # G(20, 0.3) at 12 and 13 takes 890 and 376 nodes
    g = random_graph(20, 0.3, random.Random("20:0.3"))
    so = _ParitySearch(g.n, g.adj, _strong_odd_scopes(g), ALL_ODD)
    yield "chi_so no", so, 12
    yield "chi_so yes", so, 13
    g = random_graph(16, 0.3, random.Random("odd:16:0.3"))
    scopes = [sorted(g.adj[v]) for v in range(g.n) if g.adj[v]]
    yield "chi_odd no", _ParitySearch(g.n, g.adj, scopes, EXISTS_ODD), 3
    g = random_graph(30, 0.5, random.Random("30:0.5"))
    yield "chi no", _ParitySearch(g.n, g.adj, [], ALL_ODD), 6
    pm = random_planar_map(50, random.Random("cap:pfo:50"))
    aug = max((augment_claim2(p) for p in decompose_claim1(pm, chi_exact(pm.underlying).witness)),
              key=lambda m: m.n)
    faces = [sorted(f) for f in aug.face_vertex_sets()]
    yield "chi_pfo no", _ParitySearch(aug.n, aug.underlying.adj, faces, ALL_ODD), 5


@pytest.mark.parametrize("name,search,k", list(_capped_instances()))
def test_the_node_cap_is_exact(name, search, k):
    # every child is one node, counted before its test, pruned or not;
    # a cap stops at the first node past it
    whole = search.order
    color = [0] * search.n
    status, nodes = search.run(k, whole, color, math.inf, math.inf)
    colors = tuple(color)
    assert nodes > 80
    for cap in [*range(min(nodes, 300) + 1), nodes - 1, nodes, nodes + 1, 10 * nodes]:
        got = search.run(k, whole, color, cap, math.inf)
        if cap < nodes:
            assert got == ("unknown", cap + 1), (name, cap)
            # a cap between two nodes stops at the first node past it
            assert search.run(k, whole, color, cap + 0.5, math.inf) == got, (name, cap)
        else:
            assert got == (status, nodes), (name, cap)
            assert status != "yes" or tuple(color) == colors


def test_the_node_cap_is_exact_inside_a_forced_chain():
    # a forced assignment is one node, so a cap whose next node is forced
    # stops there, in the middle of the chain; the reference names the
    # kind of every node
    inside = 0
    for n, adj, scopes, mode in _engine_instances():
        if n > 12 or mode != ALL_ODD or not scopes:
            continue
        search = _ParitySearch(n, adj, scopes, mode)
        whole, color = search.order, [0] * n
        for k in range(_greedy_clique(search.given, whole), n + 1):
            kinds = []
            status, nodes = _reference_run(search, min(k, n), scopes, kinds)
            for cap in range(1, nodes):
                if kinds[cap - 1] == kinds[cap] == "forced":
                    assert search.run(k, whole, color, cap, math.inf) == ("unknown", cap + 1)
                    inside += 1
            if status == "yes":
                break
    assert inside > 20


@pytest.mark.parametrize("j", [1, 2, 3])
def test_the_clock_is_read_at_node_1_and_every_4096_nodes(monkeypatch, j):
    # the Budget docstring's promise: a run stops at the first probe at
    # or past its deadline, and probes only there.  The G(30, 0.3) draw
    # at 18, one above its give-up k, runs past node 8,193
    g = random_graph(30, 0.3, random.Random(1))
    search = _ParitySearch(g.n, g.adj, _strong_odd_scopes(g), ALL_ODD)
    whole, color = search.order, [0] * g.n
    assert search.run(18, whole, color, 8193, math.inf) == ("unknown", 8194)
    reads = itertools.count(1)
    # the j-th read is the first at the deadline
    monkeypatch.setattr(solver.time, "monotonic", lambda: float(next(reads) >= j))
    assert search.run(18, whole, color, math.inf, 1.0) == ("unknown", 4096 * (j - 1) + 1)
    assert next(reads) == j + 1


@pytest.mark.parametrize("field", ["max_nodes", "max_time"])
@pytest.mark.parametrize("value", [-1, float("nan")])
def test_budget_rejects_negative_and_nan(field, value):
    with pytest.raises(ValueError, match=f"{field} must be nonnegative"):
        Budget(**{field: value})


# the clock is read at the first node of every run, so a search, a
# component or a piece started at or after the deadline stops there


def test_a_zero_time_solve_stops_at_the_first_node():
    g = random_graph(30, 0.3, random.Random(1))
    res = chi_so_exact(g, Budget(max_time=0))
    assert res.nodes_explored == 1 and res.lo <= res.hi
    assert res.value is None and is_strong_odd(g, res.witness) == []


def test_a_zero_time_decision_stops_at_the_first_node():
    g = random_graph(30, 0.3, random.Random(1))
    res = is_k_strong_odd_colorable(g, 20, Budget(max_time=0))
    assert (res.status, res.nodes_explored) == ("unknown", 1)


def test_a_zero_time_facially_odd_search_stops_at_the_first_node():
    pm = random_planar_map(20, random.Random("engine:pfo:20"))
    pieces = decompose_claim1(pm, chi_exact(pm.underlying).witness)
    aug = augment_claim2(max(pieces, key=lambda q: q.n))
    assert chi_pfo_exact(aug, Budget(max_time=0)).nodes_explored == 1


def test_a_huge_k_allocates_for_the_part_not_for_k():
    g = make_cycle(7)
    tracemalloc.start()
    try:
        res = is_k_strong_odd_colorable(g, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert res.status == "yes"
    assert res.witness == is_k_strong_odd_colorable(g, 7).witness


def test_greedy_witness_at_the_lower_bound_is_optimal():
    # the search at k = 2 gives up, and first-fit 2-colors the path
    res = chi_exact(make_path(12), Budget(max_nodes=1))
    assert (res.value, res.optimal, res.lo, res.hi) == (2, True, 2, 2)
    assert is_proper(make_path(12), res.witness) == []


def test_deep_inputs_do_not_hit_the_recursion_limit():
    path = make_path(1500)
    assert chi_so_exact(path).value == 3
    assert chi_exact(path).value == 2
    assert is_k_strong_odd_colorable(path, 2).status == "no"
    res = is_k_strong_odd_colorable(path, 3)
    assert res.status == "yes" and is_strong_odd(path, res.witness) == []


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_chi_so(Graph(10, frozenset()))


def test_decision_k_validation():
    with pytest.raises(ValueError):
        is_k_strong_odd_colorable(make_cycle(3), 0)


def test_decision_refuses_a_k_that_is_not_an_int():
    # refused before any arithmetic on k, so no internal error shows
    for k in (3.0, 2.5, "3"):
        with pytest.raises(ValueError, match="k must be an int"):
            is_k_strong_odd_colorable(make_cycle(7), k)


def _union_3():
    # "union:3" of the benchmark's solve pool, built as
    # perfbench/inputs.solve_instance builds it
    rng = random.Random("union:3")
    parts = [(10, 0.3), (11, 0.3), (12, 0.3)]
    (n1, p1), (n2, p2) = rng.choice(parts), rng.choice(parts)
    return disjoint_union(random_graph(n1, p1, rng), random_graph(n2, p2, rng))


def test_disjoint_union_certifies_per_component():
    # searched as one instance it takes 77 nodes (without forced colors
    # it gave up at 7..9 after 10,001)
    g = _union_3()
    res = chi_so_exact(g, Budget(max_nodes=2_000))
    assert (res.value, res.optimal, res.lo, res.hi) == (9, True, 9, 9)
    assert res.nodes_explored == 55
    assert is_strong_odd(g, res.witness) == [] and res.witness.k == 9
    # K4 has the larger clique bound, so it is searched first and P4
    # starts at k = 4: 4 + 4 nodes, with nothing to refute
    g = disjoint_union(make_path(4), make_complete(4))
    res = chi_so_exact(g)
    assert (res.value, res.nodes_explored) == (4, 8)
    assert is_strong_odd(g, res.witness) == [] and res.witness.k == 4


@pytest.mark.parametrize("solve,verify", [
    (chi_so_exact, is_strong_odd),
    (chi_exact, is_proper),
    (chi_odd_exact, is_odd),
    (chi_square_exact, lambda g, phi: is_proper(square(g), phi)),
])
def test_parameters_of_a_union_are_the_max_over_its_parts(solve, verify):
    rng = random.Random(12)
    for _ in range(20):
        parts = [_random_graph(rng) for _ in range(rng.randint(2, 3))]
        g = disjoint_union(*parts)
        res = solve(g)
        want = max(solve(part).value for part in parts)
        if solve is chi_so_exact:
            assert want == max(brute_force_chi_so(part) for part in parts)
        assert res.optimal and res.value == want
        assert verify(g, res.witness) == [] and res.witness.k == res.value


def test_a_scope_joins_its_members_into_one_part():
    # two isolated vertices, one scope: the scope must see two colors
    res = solve_parity_system(2, [[], []], [[0, 1]])
    assert (res.value, res.optimal) == (2, True)
    assert sorted(res.witness.colors) == [0, 1]
    # the scope joins two edges into one part; each edge alone needs 2
    res = solve_parity_system(4, [[1], [0], [3], [2]], [[0, 2]])
    assert res.value == 2
    assert res.witness.colors[0] != res.witness.colors[2]


def _conflict_components(search):
    # the components of the conflict lists, by a plain depth-first search
    seen, out = set(), []
    for s in range(search.n):
        if s in seen:
            continue
        seen.add(s)
        stack, comp = [s], {s}
        while stack:
            for u in _members(search.conflict[stack.pop()]):
                if u not in seen:
                    seen.add(u)
                    comp.add(u)
                    stack.append(u)
        out.append([v for v in search.order if v in comp])
    return out


def test_parts_are_the_components_of_the_conflict_lists():
    for n, adj, scopes, mode in _engine_instances():
        search = _ParitySearch(n, adj, scopes, mode)
        assert search.parts() == _conflict_components(search)
    # two edges joined by one scope, whose pair is also an implied edge
    search = _ParitySearch(4, [[1], [0], [3], [2]], [[1, 2]], ALL_ODD)
    assert search.parts() == [[0, 1, 2, 3]]
    # three edges joined by a scope alone: an independent triple implies
    # no edge
    search = _ParitySearch(6, [[1], [0], [3], [2], [5], [4]], [[1, 3, 5]], ALL_ODD)
    assert search.nbr is search.given
    assert search.parts() == [[0, 1, 2, 3, 4, 5]]


def test_a_solve_that_certifies_builds_no_conflict_lists(monkeypatch):
    built = []
    init = _ParitySearch.__init__

    def keeping_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(_ParitySearch, "__init__", keeping_init)
    g = _union_3()
    assert chi_so_exact(g, Budget(max_nodes=2_000)).optimal
    assert "conflict" not in built[-1].__dict__
    # a give-up colors greedily, on the conflict lists
    assert not chi_so_exact(g, Budget(max_nodes=1)).optimal
    assert "conflict" in built[-1].__dict__


def test_decisions_on_a_union():
    # chi_so(P4) = 3 and chi_so(C5) = 5
    g = disjoint_union(make_path(4), make_cycle(5))
    for k in (2, 3, 4):
        assert is_k_strong_odd_colorable(g, k).status == "no"
    res = is_k_strong_odd_colorable(g, 5)
    assert res.status == "yes"
    assert is_strong_odd(g, res.witness) == [] and res.witness.k <= 5
    assert is_k_strong_odd_colorable(g, 5, Budget(max_nodes=4)).status == "unknown"


@pytest.mark.parametrize("solve", [
    chi_so_exact, chi_exact, chi_odd_exact, chi_square_exact,
    lambda g: solve_parity_system(g.n, g.adj, []),
])
def test_the_empty_graph(solve):
    res = solve(Graph(0, frozenset()))
    assert (res.value, res.optimal, res.lo, res.hi) == (0, True, 0, 0)
    assert (res.witness.colors, res.nodes_explored) == ((), 0)
    res = is_k_strong_odd_colorable(Graph(0, frozenset()), 1)
    assert (res.status, res.witness.colors, res.nodes_explored) == ("yes", (), 0)


def test_one_search_per_instance(monkeypatch):
    built = []
    init = _ParitySearch.__init__

    def counting_init(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(_ParitySearch, "__init__", counting_init)
    g = disjoint_union(make_path(4), make_cycle(5), make_complete(3))
    assert chi_so_exact(g).value == 5
    assert built == [g.n]
    assert is_k_strong_odd_colorable(g, 5).status == "yes"
    assert built == [g.n, g.n]
