"""The engine against the reference oracle, a search with rules (a) and
(b) only, on instances of 10 to 16 vertices, beyond brute_force_chi_so's
nine."""

import math
import random

import pytest

from strongodd.colorings import Coloring, is_strong_odd
from strongodd.gallery import gallery
from strongodd.graphs import make_cycle, make_path, product
from strongodd.planemaps import augment_claim2, chi_pfo_exact, decompose_claim1, is_facially_odd
from strongodd.randgen import random_graph, random_planar_map
from strongodd.solver import (
    ALL_ODD,
    _ParitySearch,
    _strong_odd_scopes,
    brute_force_chi_so,
    chi_exact,
    chi_so_exact,
    reference_coloring,
    reference_value,
)


def _gnp_graphs():
    """About 100 seeded G(n, p) with 10 <= n <= 16, each p at each n."""
    for n in range(10, 17):
        for p in (0.2, 0.3, 0.5):
            for i in range(5):
                yield random_graph(n, p, random.Random(f"oracle:{n}:{p}:{i}"))


def _small_graphs():
    """The grids and gallery rows of at most 16 vertices."""
    for a, b in ((2, 3), (2, 5), (3, 3), (3, 4), (2, 8), (4, 4)):
        yield product(make_path(a), make_path(b), "cartesian")
    for name in ("G7", "G12a", "G12b"):
        yield gallery(name).graph


def _claim2_pieces():
    """Augmented Claim 2 pieces of 3 to 16 vertices of seeded planar maps."""
    for n in (20, 30, 40, 50, 60):
        pm = random_planar_map(n, random.Random(f"oracle:pfo:{n}"))
        for piece in decompose_claim1(pm, chi_exact(pm.underlying).witness):
            if 3 <= piece.n <= 16:
                yield augment_claim2(piece)


def _engine_decides(n, adj, scopes, k):
    """run() at k on every component; the first that is not YES answers."""
    search = _ParitySearch(n, adj, scopes, ALL_ODD)
    color = [0] * n
    for part in search.parts():
        status = search.run(k, part, color, math.inf, math.inf)[0]
        if status != "yes":
            return status, None
    return "yes", Coloring(tuple(color))


def _check_against_the_oracle(n, adj, scopes, value, verify):
    # the oracle refuted every k below its value, and found phi at it
    want, phi = reference_value(n, adj, scopes)
    assert value == want
    assert verify(phi) == [] and phi.k == want
    # the NO at value - 1 is what a wrong pruning rule breaks
    if want > 1:
        assert _engine_decides(n, adj, scopes, want - 1) == ("no", None)
    status, witness = _engine_decides(n, adj, scopes, want)
    assert status == "yes" and verify(witness) == [] and witness.k <= want


@pytest.mark.parametrize("source", [_gnp_graphs, _small_graphs])
def test_chi_so_agrees_with_the_reference_oracle(source):
    graphs = list(source())
    for g in graphs:
        res = chi_so_exact(g)
        assert res.optimal and is_strong_odd(g, res.witness) == []
        _check_against_the_oracle(g.n, g.adj, _strong_odd_scopes(g), res.value,
                                  lambda phi, g=g: is_strong_odd(g, phi))
    assert len(graphs) >= 9


def test_chi_pfo_agrees_with_the_reference_oracle():
    pieces = list(_claim2_pieces())
    for aug in pieces:
        res = chi_pfo_exact(aug)
        assert res.optimal and is_facially_odd(aug, res.witness) == []
        faces = [sorted(f) for f in aug.face_vertex_sets()]
        _check_against_the_oracle(aug.n, aug.underlying.adj, faces, res.value,
                                  lambda phi, aug=aug: is_facially_odd(aug, phi))
    assert len(pieces) >= 10


def test_the_reference_oracle_on_known_values():
    c5 = make_cycle(5)
    assert reference_value(c5.n, c5.adj, _strong_odd_scopes(c5))[0] == 5
    assert reference_coloring(c5.n, c5.adj, _strong_odd_scopes(c5), 4) is None
    assert reference_value(c5.n, c5.adj, [])[0] == 3
    assert reference_value(0, [], []) == (0, Coloring(()))
    # two isolated vertices in one scope must differ
    assert reference_value(2, [[], []], [[0, 1]])[0] == 2
    # and the exhaustive oracle on small graphs
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng.randint(1, 8), rng.choice((0.2, 0.4, 0.6)), rng)
        assert reference_value(g.n, g.adj, _strong_odd_scopes(g))[0] == brute_force_chi_so(g)
    with pytest.raises(ValueError):
        reference_coloring(21, [[] for _ in range(21)], [], 1)
