import itertools
import random

import pytest

from strongodd.colorings import Coloring, is_strong_odd
from strongodd.planemaps import (
    FaceData,
    MapError,
    PlaneMultigraph,
    annihilate,
    annihilation_report,
    augment_claim2,
    boundary_walk_vertices,
    chi_pfo_exact,
    decompose_claim1,
    digon_expand,
    embed_cycle,
    embed_path,
    embed_star,
    from_neighbor_rotations,
    is_facially_odd,
    is_proper_facially_odd,
    is_two_connected,
    map_from_json_dict,
    map_to_json_dict,
    strong_odd_via_planar_detailed,
    trace_faces,
)
from strongodd.randgen import random_planar_map, random_triangulation
from strongodd.solver import Budget, chi_exact

from map_fixtures import (
    CUBE,
    OCTAHEDRON,
    PENTA_TRI,
    PRISM,
    THETA,
    WHEEL4,
    WHEEL5,
    annihilation_fixtures,
)


def test_triangle_faces():
    tri = from_neighbor_rotations([[2, 1], [0, 2], [1, 0]])
    fd = trace_faces(tri)
    assert len(fd.faces) == 2
    assert all(len(s) == 3 for s in fd.boundary_vertices)
    assert fd.incidence == (frozenset({0, 1}),) * 3


def test_embedded_cycle_and_path():
    fd = trace_faces(embed_cycle(5))
    assert len(fd.faces) == 2 and all(len(f) == 5 for f in fd.faces)
    fd = trace_faces(embed_path(4))
    assert len(fd.faces) == 1 and len(fd.faces[0]) == 6


def test_boundary_walk_with_repeated_vertex():
    pm = from_neighbor_rotations(PENTA_TRI)
    fd = trace_faces(pm)
    walks = [boundary_walk_vertices(pm, cyc) for cyc in fd.faces]
    target = [0, 1, 2, 0, 3, 4, 5, 6]
    assert any(
        len(w) == 8 and any(w[i:] + w[:i] == target for i in range(8))
        for w in walks
    )


def test_digon_map_faces():
    digon = PlaneMultigraph(2, ((0, 1), (0, 1)), ((0, 2), (3, 1)))
    fd = trace_faces(digon)
    assert len(fd.faces) == 2
    assert all(s == frozenset({0, 1}) for s in fd.boundary_vertices)


def test_invalid_rotation_fails_euler():
    # this K4 rotation system embeds on the torus, not the plane
    twisted = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    with pytest.raises(MapError):
        trace_faces(from_neighbor_rotations(twisted))


def _side_by_side(*rotations):
    """Neighbor rotations of several maps placed next to each other."""
    out, offset = [], 0
    for rot in rotations:
        out += [[w + offset for w in nbrs] for nbrs in rot]
        offset += len(rot)
    return out


def test_euler_check_per_component():
    triangle = [[2, 1], [0, 2], [1, 0]]
    twisted = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    with pytest.raises(MapError, match="component 1"):
        trace_faces(from_neighbor_rotations(_side_by_side(triangle, twisted)))
    planar = from_neighbor_rotations(_side_by_side(triangle, [[]], WHEEL4))
    fd = trace_faces(planar)
    assert len(fd.faces) == 2 + 5 and planar.n == 3 + 1 + 5


def test_map_json_round_trip():
    pm = from_neighbor_rotations(WHEEL5)
    data = map_to_json_dict(pm)
    back = map_from_json_dict(data)
    assert back.edges == pm.edges and back.rotation == pm.rotation
    bad = dict(data)
    bad["rotation"] = {"0": [0]}
    with pytest.raises(MapError):
        map_from_json_dict(bad)


# ---------------------------------------------------------------------------
# annihilation
# ---------------------------------------------------------------------------

def test_annihilation_postconditions_on_fixture_set():
    fixtures = annihilation_fixtures()
    assert len(fixtures) >= 10
    for pm, v in fixtures:
        out = annihilate(pm, v)
        assert annihilation_report(pm, v, out) == []
        # exactly one more face than before, minus the vertex
        assert len(trace_faces(out).faces) == len(trace_faces(pm).faces) + 1
        assert out.n == pm.n - 1


def test_annihilation_digon_case():
    out = annihilate(embed_cycle(4), 1)
    # two parallel edges between the former neighbors of the removed vertex
    pairs = [tuple(sorted(out.relabel_to_parent(e))) for e in out.edges]
    assert pairs.count((0, 2)) == 2


def test_annihilation_preconditions():
    with pytest.raises(MapError):
        annihilate(embed_path(3), 0)  # degree 1
    digon_plus = PlaneMultigraph(3, ((0, 1), (0, 1), (1, 2)), ((0, 2), (3, 1, 4), (5,)))
    with pytest.raises(MapError):
        annihilate(digon_plus, 1)  # parallel pair at the vertex


def test_annihilate_keeps_faces_not_at_vertex():
    pm = from_neighbor_rotations(CUBE)
    before = {s for s in trace_faces(pm).boundary_vertices if 5 not in s}
    out = annihilate(pm, 5)
    after = {out.relabel_to_parent(s) for s in trace_faces(out).boundary_vertices}
    assert before <= after


# ---------------------------------------------------------------------------
# claim 1 decomposition
# ---------------------------------------------------------------------------

def test_claim1_trivial_cases():
    tri = from_neighbor_rotations([[2, 1], [0, 2], [1, 0]])
    pieces = decompose_claim1(tri, Coloring((0, 1, 2)))
    assert [p.n for p in pieces] == [1, 1, 1]
    assert all(p.m == 0 for p in pieces)
    # a single-color edgeless map keeps every vertex
    empty = PlaneMultigraph(3, (), ((), (), ()))
    pieces = decompose_claim1(empty, Coloring((0, 0, 0)))
    assert pieces[0].n == 3 and pieces[0].m == 0


def test_claim1_rejects_improper():
    tri = from_neighbor_rotations([[2, 1], [0, 2], [1, 0]])
    with pytest.raises(MapError):
        decompose_claim1(tri, Coloring((0, 0, 1)))


def test_claim1_property_on_random_maps():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(4, 13)
        pm = random_planar_map(n, rng, delete_fraction=rng.choice([0.0, 0.3]))
        phi = chi_exact(pm.underlying).witness
        pieces = decompose_claim1(pm, phi)  # internal property check enabled
        assert sum(p.n for p in pieces) == pm.n
        # vertex sets partition V into independent sets
        seen = set()
        for i, p in enumerate(pieces):
            labels = set(p.labels)
            assert not labels & seen
            seen |= labels
            for u, v in itertools.combinations(sorted(labels), 2):
                assert not pm.underlying.has_edge(u, v)
        assert seen == set(range(pm.n))


def test_claim1_degree_two_outside_vertex_leaves_digon():
    # path 0-1-2 with both ends in the class: annihilating 1 forces a
    # doubled edge between 0 and 2
    pm = embed_path(3)
    pieces = decompose_claim1(pm, Coloring((0, 1, 0)))
    piece0 = pieces[0]
    assert piece0.n == 2 and piece0.m == 2
    assert len({tuple(sorted(e)) for e in piece0.edges}) == 1


# ---------------------------------------------------------------------------
# claim 2 augmentation
# ---------------------------------------------------------------------------

def test_claim2_returns_2_connected_and_preserves_faces():
    cases = [
        embed_path(5),
        embed_star(4),
        from_neighbor_rotations(PENTA_TRI),
        random_planar_map(10, random.Random(3), delete_fraction=0.45),
    ]
    for pm in cases:
        aug = augment_claim2(pm)
        assert is_two_connected(aug)
        before = set(pm.face_vertex_sets())
        after = set(aug.face_vertex_sets())
        assert before <= after


def test_claim2_unchanged_when_already_2_connected():
    pm = from_neighbor_rotations(OCTAHEDRON)
    aug = augment_claim2(pm)
    assert aug.edges == pm.edges and aug.rotation == pm.rotation


def test_claim2_end_block_split_matches_description():
    pm = from_neighbor_rotations(PENTA_TRI)
    aug = augment_claim2(pm)
    added = [e for e in aug.edges if e not in pm.edges]
    assert added == [(2, 3)]
    sets = set(aug.face_vertex_sets())
    assert frozenset({0, 2, 3}) in sets            # the cut-off triangle
    assert frozenset(range(7)) in sets             # same vertex set as before


def test_claim2_two_disjoint_triangles():
    two = from_neighbor_rotations([[2, 1], [0, 2], [1, 0], [5, 4], [3, 5], [4, 3]])
    aug = augment_claim2(two)
    assert is_two_connected(aug)
    after = set(aug.face_vertex_sets())
    for s in two.face_vertex_sets():
        assert s in after


def test_claim2_connects_isolated_vertices():
    pm = PlaneMultigraph(4, ((0, 1),), ((0,), (1,), (), ()))
    aug = augment_claim2(pm)
    assert is_two_connected(aug)


# ---------------------------------------------------------------------------
# facially odd colorings
# ---------------------------------------------------------------------------

def test_facially_odd_examples():
    c4 = embed_cycle(4)
    assert is_facially_odd(c4, Coloring((0, 1, 2, 3))) == []
    bad = is_facially_odd(c4, Coloring((0, 1, 0, 1)))
    assert bad and all(v.count == 2 for v in bad)
    prop = is_proper_facially_odd(c4, Coloring((0, 0, 1, 2)))
    assert any(v.kind == "not_proper" for v in prop)


def _brute_chi_pfo(pm):
    n = pm.n
    faces = pm.face_vertex_sets()
    g = pm.underlying
    best = n
    for colors in itertools.product(range(n), repeat=n):
        if any(colors[u] == colors[v] for u, v in g.edges):
            continue
        ok = True
        for f in faces:
            counts = {}
            for v in f:
                counts[colors[v]] = counts.get(colors[v], 0) + 1
            if any(c % 2 == 0 for c in counts.values()):
                ok = False
                break
        if ok:
            best = min(best, len(set(colors)))
    return best


def test_chi_pfo_against_brute_force():
    triangle = from_neighbor_rotations([[2, 1], [0, 2], [1, 0]])
    for pm in (embed_cycle(5), embed_cycle(6), triangle):
        res = chi_pfo_exact(pm)
        assert res.value == _brute_chi_pfo(pm)
        assert is_proper_facially_odd(pm, res.witness) == []
        assert res.witness.k == res.value


def test_chi_pfo_on_k4():
    rng = random.Random(1)
    k4 = random_triangulation(4, rng)
    res = chi_pfo_exact(k4)
    assert res.value == _brute_chi_pfo(k4) == 4


def test_chi_pfo_node_count_pinned():
    res = chi_pfo_exact(from_neighbor_rotations(OCTAHEDRON))
    assert (res.value, res.nodes_explored) == (3, 6)


def test_chi_pfo_requires_two_connected():
    with pytest.raises(MapError):
        chi_pfo_exact(embed_path(4))


def test_digon_expansion_reduction():
    # facially odd on the digon expansion forces properness on the original
    tri = from_neighbor_rotations([[2, 1], [0, 2], [1, 0]])
    expanded = digon_expand(tri)
    assert expanded.m == 2 * tri.m
    fd = trace_faces(expanded)
    assert sum(1 for s in fd.boundary_vertices if len(s) == 2) == 3
    for colors in itertools.product(range(3), repeat=3):
        phi = Coloring(colors)
        if not is_facially_odd(expanded, phi):
            assert is_proper_facially_odd(tri, phi) == []


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_pipeline_on_three_chromatic_plane_graph():
    pm = from_neighbor_rotations(OCTAHEDRON)
    phi = chi_exact(pm.underlying).witness
    assert phi.k == 3
    res = strong_odd_via_planar_detailed(pm, phi)
    assert is_strong_odd(pm.underlying, res.coloring) == []
    assert res.coloring.k <= phi.k * max(res.piece_color_counts)


def test_pipeline_on_embedded_tree():
    # a two-class input; the direct tree algorithm needs at most 3 colors
    # and stays a sanity reference (the pipeline may use more)
    from strongodd.constructive import color_tree

    pm = from_neighbor_rotations(
        [[1], [0, 2, 4], [1, 3], [2], [1, 5], [4]]
    )
    phi = chi_exact(pm.underlying).witness
    assert phi.k == 2
    res = strong_odd_via_planar_detailed(pm, phi)
    assert is_strong_odd(pm.underlying, res.coloring) == []
    direct = color_tree(pm.underlying)
    assert is_strong_odd(pm.underlying, direct) == [] and direct.k <= 3


def test_pipeline_random_corpus():
    rng = random.Random(2025)
    for _ in range(30):
        n = rng.randint(4, 14)
        pm = random_planar_map(n, rng, delete_fraction=rng.choice([0.0, 0.25, 0.4]))
        phi = chi_exact(pm.underlying).witness
        res = strong_odd_via_planar_detailed(pm, phi, Budget(max_time=60))
        assert is_strong_odd(pm.underlying, res.coloring) == []
        assert res.coloring.k <= phi.k * max(res.piece_color_counts)
