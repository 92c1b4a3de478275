"""Embedded multigraphs as combinatorial maps.

A map stores darts (two per edge: edge e owns darts 2e and 2e+1, paired
by the twin involution) and, for every vertex, the clockwise cyclic
order of its incident darts.  Faces are the orbits of the successor rule
"next dart = rotation successor of the twin"; for a connected map the
Euler identity n - m + f = 2 certifies that the rotation system is a
plane embedding.

Because intermediate graphs in the decomposition pipeline can become
disconnected, a map optionally carries *regions*: a partition of the
orbits (plus any isolated vertices) into geometric faces, so that a face
whose boundary falls apart into several walks is still one face.  For a
connected map every region is a single orbit and the two views agree.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .colorings import Coloring
from .graphs import Graph
from .solver import Budget, SolveResult, greedy_clique_lower_bound, solve_parity_system


class MapError(ValueError):
    """Raised for structurally invalid maps or violated preconditions."""


# Known upper bounds, recorded as metadata and never recomputed here: the
# best published bound on proper facially odd colorings of 2-connected
# plane multigraphs, the tight outerplanar value, and the resulting
# strong-odd bounds (proper-facially-odd bound times worst chromatic
# number: 4 for planar, 3 for outerplanar).
PLANAR_PFO_UPPER = 97
OUTERPLANAR_PFO_UPPER = 10
PLANAR_CHI_SO_UPPER = PLANAR_PFO_UPPER * 4
OUTERPLANAR_CHI_SO_UPPER = OUTERPLANAR_PFO_UPPER * 3


Region = tuple[frozenset[int], frozenset[int]]  # (darts, isolated vertices)


@dataclass(frozen=True)
class PlaneMultigraph:
    """Plane multigraph given by a rotation system.

    edges[e] = (u, v) owns dart 2e (leaving u) and dart 2e+1 (leaving v).
    rotation[v] lists the darts leaving v in clockwise order.  labels
    optionally names each vertex in some outer id space (used when a map
    was carved out of a larger one).  regions, when present, groups face
    orbits into geometric faces.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    rotation: tuple[tuple[int, ...], ...]
    regions: Optional[tuple[Region, ...]] = None
    labels: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.n < 0:
            raise MapError("negative vertex count")
        if len(self.rotation) != self.n:
            raise MapError("rotation must list every vertex")
        for u, v in self.edges:
            if u == v:
                raise MapError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise MapError(f"edge ({u},{v}) out of range")
        seen = set()
        for v, rot in enumerate(self.rotation):
            for d in rot:
                if d in seen:
                    raise MapError(f"dart {d} listed twice")
                seen.add(d)
                if not 0 <= d < 2 * self.m:
                    raise MapError(f"dart {d} out of range")
                if self.vertex_of(d) != v:
                    raise MapError(f"dart {d} does not leave vertex {v}")
        if seen != set(range(2 * self.m)):
            raise MapError("rotation lists do not partition the dart set")
        if self.labels is not None and len(self.labels) != self.n:
            raise MapError("labels must name every vertex")
        if self.regions is not None:
            darts = [d for r in self.regions for d in r[0]]
            if sorted(darts) != list(range(2 * self.m)):
                raise MapError("regions do not partition the dart set")
            isolated = [v for r in self.regions for v in r[1]]
            expected = [v for v in range(self.n) if not self.rotation[v]]
            if sorted(isolated) != expected:
                raise MapError("regions mistrack isolated vertices")

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def darts(self) -> range:
        return range(2 * self.m)

    def twin(self, d: int) -> int:
        return d ^ 1

    def vertex_of(self, d: int) -> int:
        u, v = self.edges[d // 2]
        return u if d % 2 == 0 else v

    def head_of(self, d: int) -> int:
        return self.vertex_of(d ^ 1)

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    @cached_property
    def underlying(self) -> Graph:
        """Simple graph on the same vertices (parallel edges collapsed)."""
        return Graph(self.n, frozenset(
            (min(u, v), max(u, v)) for u, v in self.edges
        ))

    def next_dart(self, d: int) -> int:
        rot = self.rotation[self.vertex_of(d ^ 1)]
        i = rot.index(d ^ 1)
        return rot[(i + 1) % len(rot)]

    def effective_regions(self) -> tuple[Region, ...]:
        """Stored regions, or the side-by-side default: one region per
        orbit, except that each extra component contributes its first
        orbit (and every isolated vertex) to a shared outer region."""
        if self.regions is not None:
            return self.regions
        faces = trace_faces(self, validate=False).faces
        comp_of = _component_index(self)
        isolated = frozenset(v for v in range(self.n) if not self.rotation[v])
        first_orbit = {}
        for fi, cyc in enumerate(faces):
            ci = comp_of[self.vertex_of(cyc[0])]
            first_orbit.setdefault(ci, fi)
        dart_comps = sorted(first_orbit)
        if len(dart_comps) + len(isolated) <= 1:
            regions = [(frozenset(cyc), frozenset()) for cyc in faces]
            if not regions:
                regions = [(frozenset(), isolated)]
            elif isolated:
                raise AssertionError("unreachable")
            return tuple(regions)
        outer = [first_orbit[ci] for ci in dart_comps]
        shared = frozenset(d for fi in outer for d in faces[fi])
        regions = [(shared, isolated)]
        for fi, cyc in enumerate(faces):
            if fi not in outer:
                regions.append((frozenset(cyc), frozenset()))
        return tuple(sorted(regions, key=lambda r: min(r[0]) if r[0] else 2 * self.m))

    def face_vertex_sets(self) -> tuple[frozenset[int], ...]:
        """Geometric face boundaries as vertex sets.  An isolated vertex
        inside a face is a point component of its boundary."""
        return tuple(
            frozenset(self.vertex_of(d) for d in darts) | iso
            for darts, iso in self.effective_regions()
        )

    def relabel_to_parent(self, vertices: Iterable[int]) -> frozenset[int]:
        if self.labels is None:
            return frozenset(vertices)
        return frozenset(self.labels[v] for v in vertices)


@dataclass(frozen=True)
class FaceData:
    """Face orbits of a map: dart cycles, their vertex sets, and the
    faces incident with each vertex."""

    faces: tuple[tuple[int, ...], ...]
    boundary_vertices: tuple[frozenset[int], ...]
    incidence: tuple[frozenset[int], ...]


def trace_faces(m: PlaneMultigraph, validate: bool = True) -> FaceData:
    """Orbits of the face successor; optionally check the Euler identity
    on every connected component."""
    seen = set()
    faces = []
    for d0 in m.darts:
        if d0 in seen:
            continue
        cyc = []
        d = d0
        while True:
            cyc.append(d)
            seen.add(d)
            d = m.next_dart(d)
            if d == d0:
                break
        faces.append(tuple(cyc))
    faces.sort(key=lambda c: min(c))
    faces = tuple(tuple(c[c.index(min(c)):] + c[:c.index(min(c))]) for c in faces)
    boundary = tuple(frozenset(m.vertex_of(d) for d in cyc) for cyc in faces)
    inc = [set() for _ in range(m.n)]
    for fi, verts in enumerate(boundary):
        for v in verts:
            inc[v].add(fi)
    if validate:
        comp_of = _component_index(m)
        ncomp = max(comp_of, default=-1) + 1
        nc, mc, fc = [0] * ncomp, [0] * ncomp, [0] * ncomp
        for v in range(m.n):
            nc[comp_of[v]] += 1
        for u, _ in m.edges:
            mc[comp_of[u]] += 1
        for cyc in faces:
            fc[comp_of[m.vertex_of(cyc[0])]] += 1
        for ci in range(ncomp):
            # an isolated vertex has no orbit and is exempt
            if mc[ci] and nc[ci] - mc[ci] + fc[ci] != 2:
                raise MapError(
                    f"component {ci}: Euler identity fails "
                    f"({nc[ci]} - {mc[ci]} + {fc[ci]} != 2); not a plane embedding"
                )
    return FaceData(faces, boundary, tuple(frozenset(s) for s in inc))


def _component_index(m: PlaneMultigraph) -> list[int]:
    """Index of each vertex's connected component, in the order of
    m.underlying.components()."""
    comp_of = [0] * m.n
    for ci, comp in enumerate(m.underlying.components()):
        for v in comp:
            comp_of[v] = ci
    return comp_of


def boundary_walk_vertices(m: PlaneMultigraph, cyc: Sequence[int]) -> list[int]:
    """Vertex sequence along a face's dart cycle."""
    return [m.vertex_of(d) for d in cyc]


# ---------------------------------------------------------------------------
# Constructors and serialization
# ---------------------------------------------------------------------------

def from_neighbor_rotations(neighbors: Sequence[Sequence[int]]) -> PlaneMultigraph:
    """Map of a simple graph from per-vertex clockwise neighbor lists."""
    n = len(neighbors)
    for u in range(n):
        if len(set(neighbors[u])) != len(neighbors[u]):
            raise MapError(f"vertex {u} lists a neighbor twice")
        for w in neighbors[u]:
            if u not in neighbors[w]:
                raise MapError(f"edge ({u},{w}) listed only once")
    edges = sorted(
        {(min(u, v), max(u, v)) for u in range(n) for v in neighbors[u]}
    )
    dart_toward = {}
    for e, (u, v) in enumerate(edges):
        dart_toward[(u, v)] = 2 * e
        dart_toward[(v, u)] = 2 * e + 1
    rotation = tuple(
        tuple(dart_toward[(u, w)] for w in neighbors[u]) for u in range(n)
    )
    return PlaneMultigraph(n, tuple(edges), rotation)


def embed_path(n: int) -> PlaneMultigraph:
    if n < 2:
        raise MapError("path embedding needs at least two vertices")
    nbrs = [[1]] + [[v - 1, v + 1] for v in range(1, n - 1)] + [[n - 2]]
    return from_neighbor_rotations(nbrs)


def embed_cycle(n: int) -> PlaneMultigraph:
    if n < 3:
        raise MapError("cycle embedding needs at least three vertices")
    nbrs = [[(v - 1) % n, (v + 1) % n] for v in range(n)]
    return from_neighbor_rotations(nbrs)


def embed_star(leaves: int) -> PlaneMultigraph:
    if leaves < 1:
        raise MapError("star embedding needs at least one leaf")
    nbrs = [list(range(1, leaves + 1))] + [[0] for _ in range(leaves)]
    return from_neighbor_rotations(nbrs)


def map_to_json_dict(m: PlaneMultigraph) -> dict:
    return {
        "n": m.n,
        "edges": [{"id": e, "ends": [u, v]} for e, (u, v) in enumerate(m.edges)],
        "rotation": {str(v): list(m.rotation[v]) for v in range(m.n)},
    }


def map_from_json_dict(data: dict) -> PlaneMultigraph:
    try:
        n = data["n"]
        raw_edges = data["edges"]
        raw_rot = data["rotation"]
    except (KeyError, TypeError) as exc:
        raise MapError(f"malformed map JSON: {exc}") from exc
    edges = [None] * len(raw_edges)
    for item in raw_edges:
        try:
            e = item["id"]
            u, v = item["ends"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MapError(f"malformed edge entry {item!r}") from exc
        if not (0 <= e < len(raw_edges)) or edges[e] is not None:
            raise MapError(f"bad edge id {e}")
        edges[e] = (u, v)
    rotation = []
    for v in range(n):
        rotation.append(tuple(raw_rot.get(str(v), ())))
    pm = PlaneMultigraph(n, tuple(edges), tuple(rotation))
    trace_faces(pm)  # Euler validation
    return pm


def save_map(m: PlaneMultigraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(map_to_json_dict(m), fh)
        fh.write("\n")


def load_map(path) -> PlaneMultigraph:
    with open(path) as fh:
        data = json.load(fh)
    return map_from_json_dict(data)


# ---------------------------------------------------------------------------
# Mutable builder used by annihilation / decomposition / augmentation
# ---------------------------------------------------------------------------

class _MapBuilder:
    """Mutable rotation system with geometric-region bookkeeping.

    Vertices keep their snapshot-time ids.  Darts keep the map's
    convention: new ones are allocated in pairs, so d's twin is d ^ 1.
    Regions track which orbits (and isolated vertices) bound the same
    geometric face, which is what survives edge deletions that
    disconnect the graph.
    """

    def __init__(self, m: PlaneMultigraph):
        self.source = m
        self.alive = set(range(m.n))
        self.rot = {v: list(m.rotation[v]) for v in range(m.n)}
        self.vert = {}  # live dart -> the vertex it leaves
        for e, (u, v) in enumerate(m.edges):
            self.vert[2 * e] = u
            self.vert[2 * e + 1] = v
        self.next_dart_id = 2 * m.m
        self.region_of = {}
        self.region_iso = {}
        for rid, (darts, iso) in enumerate(m.effective_regions()):
            for d in darts:
                self.region_of[d] = rid
            self.region_iso[rid] = set(iso)
        self.next_region = len(m.effective_regions())

    # -- basic accessors ----------------------------------------------------

    def succ(self, d: int) -> int:
        rot = self.rot[self.vert[d ^ 1]]
        return rot[(rot.index(d ^ 1) + 1) % len(rot)]

    def orbit(self, d0: int) -> list[int]:
        cyc = [d0]
        d = self.succ(d0)
        while d != d0:
            cyc.append(d)
            d = self.succ(d)
        return cyc

    def degree(self, v: int) -> int:
        return len(self.rot[v])

    def neighbors_in_order(self, v: int) -> list[int]:
        return [self.vert[d ^ 1] for d in self.rot[v]]

    def components(self) -> list[set[int]]:
        seen = set()
        comps = []
        for s in sorted(self.alive):
            if s in seen:
                continue
            comp = {s}
            seen.add(s)
            queue = deque([s])
            while queue:
                x = queue.popleft()
                for d in self.rot[x]:
                    y = self.vert[d ^ 1]
                    if y not in seen:
                        seen.add(y)
                        comp.add(y)
                        queue.append(y)
            comps.append(comp)
        return comps

    def _new_darts(self, u: int, w: int) -> tuple[int, int]:
        a = self.next_dart_id
        b = a + 1
        self.next_dart_id += 2
        self.vert[a] = u
        self.vert[b] = w
        return a, b

    def _merge_regions(self, keep: int, drop: int) -> None:
        if keep == drop:
            return
        for d, r in list(self.region_of.items()):
            if r == drop:
                self.region_of[d] = keep
        self.region_iso[keep] |= self.region_iso.pop(drop)

    # -- mutations -----------------------------------------------------------

    def delete_edge_by_dart(self, d: int) -> None:
        t = d ^ 1
        r1 = self.region_of[d]
        r2 = self.region_of[t]
        if r1 != r2:
            self._merge_regions(r1, r2)
        for x in (d, t):
            v = self.vert[x]
            self.rot[v].remove(x)
            if not self.rot[v]:
                self.region_iso[r1].add(v)
            del self.region_of[x]
        del self.vert[d], self.vert[t]

    def delete_small_vertex(self, v: int) -> None:
        """Remove a vertex of degree at most one together with its edge."""
        if self.degree(v) > 1:
            raise MapError(f"vertex {v} has degree {self.degree(v)} > 1")
        if self.rot[v]:
            self.delete_edge_by_dart(self.rot[v][0])
        for iso in self.region_iso.values():
            iso.discard(v)
        del self.rot[v]
        self.alive.discard(v)

    def annihilate(self, v: int) -> None:
        """Replace v by a cycle of new edges through its neighbors.

        Each new edge is spliced next to the removed corner so that the
        old corner face keeps its walk (minus v) and the neighbors bound
        exactly one new face in reversed rotation order.
        """
        rv = list(self.rot[v])
        deg = len(rv)
        if deg < 2:
            raise MapError(f"annihilation needs degree >= 2 at vertex {v}")
        nbrs = [self.vert[d ^ 1] for d in rv]
        if len(set(nbrs)) != deg:
            raise MapError(
                f"vertex {v} is incident with a parallel pair; annihilation "
                "would create a loop"
            )
        new_region = self.next_region
        self.next_region += 1
        self.region_iso[new_region] = set()
        a = [None] * deg
        b = [None] * deg
        for i in range(deg):
            a[i], b[i] = self._new_darts(nbrs[i], nbrs[(i + 1) % deg])
        for j in range(deg):
            t_j = rv[j] ^ 1
            rot = self.rot[nbrs[j]]
            pos = rot.index(t_j)
            rot[pos:pos + 1] = [a[j], b[(j - 1) % deg]]
            self.region_of[a[j]] = self.region_of[t_j]
            self.region_of[b[(j - 1) % deg]] = new_region
            del self.region_of[t_j]
            del self.region_of[rv[j]]
            del self.vert[rv[j]], self.vert[t_j]
        del self.rot[v]
        self.alive.discard(v)

    def _insert_before(self, v: int, anchor: int, new: int) -> None:
        self.rot[v].insert(self.rot[v].index(anchor), new)

    def _insert_after(self, v: int, anchor: int, new: int) -> None:
        self.rot[v].insert(self.rot[v].index(anchor) + 1, new)

    def _region_pieces(self, rid: int) -> list[tuple[int, int]]:
        """Boundary pieces of a region: (sort key, anchor vertex)."""
        darts = sorted(d for d, r in self.region_of.items() if r == rid)
        pieces = []
        seen = set()
        for d in darts:
            if d in seen:
                continue
            cyc = self.orbit(d)
            seen.update(cyc)
            pieces.append((min(cyc), min(self.vert[x] for x in cyc)))
        top = self.next_dart_id
        for v in sorted(self.region_iso[rid]):
            pieces.append((top + v, v))
        return pieces

    def add_edge_in_region(self, rid: int, u: int, w: int) -> None:
        """Bridge two boundary pieces of one region (used to connect
        components; the region keeps its identity)."""
        nu, nw = self._new_darts(u, w)
        for v, nd in ((u, nu), (w, nw)):
            if not self.rot[v]:
                self.rot[v] = [nd]
                self.region_iso[rid].discard(v)
            else:
                anchor = min(
                    d for d in self.rot[v] if self.region_of.get(d) == rid
                )
                self._insert_before(v, anchor, nd)
        self.region_of[nu] = rid
        self.region_of[nw] = rid

    def add_corner_edge(self, x: int, y: int) -> None:
        """Add an edge cutting the corner (x, y) off its face: the face
        splits into the triangle (x, y, new) and a remainder with the
        same vertex set."""
        if self.succ(x) != y:
            raise MapError("darts do not form a corner")
        u = self.vert[x]
        w = self.vert[y ^ 1]
        rid = self.region_of[x]
        n1, n2 = self._new_darts(u, w)
        self._insert_before(u, x, n1)
        self._insert_after(w, y ^ 1, n2)
        new_region = self.next_region
        self.next_region += 1
        self.region_iso[new_region] = set()
        for d in (x, y, n2):
            self.region_of[d] = new_region
        self.region_of[n1] = rid

    def expand_edge_to_digon(self, d: int) -> None:
        """Add an edge parallel to d's edge bounding a digon with it."""
        t = d ^ 1
        u, w = self.vert[d], self.vert[t]
        d2, t2 = self._new_darts(u, w)
        self._insert_before(u, d, d2)
        self._insert_after(w, t, t2)
        new_region = self.next_region
        self.next_region += 1
        self.region_iso[new_region] = set()
        self.region_of[d2] = self.region_of[d]
        self.region_of[d] = new_region
        self.region_of[t2] = new_region

    # -- block structure ------------------------------------------------------

    def blocks(self) -> tuple[list[frozenset[int]], set[int]]:
        """Biconnected components (vertex sets) and cut vertices of the
        multigraph; parallel edges count separately, so a doubled edge
        forms a 2-connected block."""
        disc = {}
        low = {}
        edge_stack = []
        blocks = []
        cuts = set()
        counter = [0]

        def dfs(root):
            root_children = 0
            todo = [(root, -1, 0)]
            disc[root] = low[root] = counter[0]
            counter[0] += 1
            while todo:
                v, in_dart, idx = todo.pop()
                rot = self.rot[v]
                advanced = False
                while idx < len(rot):
                    d = rot[idx]
                    idx += 1
                    u = self.vert[d ^ 1]
                    if d == in_dart:
                        continue
                    if u not in disc:
                        edge_stack.append((v, u))
                        disc[u] = low[u] = counter[0]
                        counter[0] += 1
                        todo.append((v, in_dart, idx))
                        todo.append((u, d ^ 1, 0))
                        advanced = True
                        break
                    if disc[u] < disc[v]:
                        edge_stack.append((v, u))
                        low[v] = min(low[v], disc[u])
                if advanced:
                    continue
                if todo:
                    p = todo[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] >= disc[p]:
                        if p == root:
                            root_children += 1
                        verts = set()
                        while edge_stack:
                            a, c = edge_stack.pop()
                            verts.update((a, c))
                            if (a, c) == (p, v):
                                break
                        blocks.append(frozenset(verts))
                        if p != root:
                            cuts.add(p)
            return root_children

        for root in sorted(self.alive):
            if root not in disc:
                if dfs(root) >= 2:
                    cuts.add(root)
        return blocks, cuts

    # -- snapshot --------------------------------------------------------------

    def snapshot(self) -> PlaneMultigraph:
        verts = sorted(self.alive)
        vmap = {v: i for i, v in enumerate(verts)}
        edge_min_darts = sorted(d for d in self.vert if d % 2 == 0)
        dmap = {}
        edges = []
        for e, d in enumerate(edge_min_darts):
            t = d ^ 1
            edges.append((vmap[self.vert[d]], vmap[self.vert[t]]))
            dmap[d] = 2 * e
            dmap[t] = 2 * e + 1
        rotation = tuple(
            tuple(dmap[d] for d in self.rot[v]) for v in verts
        )
        per_region = {}
        for d, r in self.region_of.items():
            per_region.setdefault(r, (set(), set()))[0].add(dmap[d])
        for r, iso in self.region_iso.items():
            if iso or r in per_region:
                per_region.setdefault(r, (set(), set()))[1].update(
                    vmap[v] for v in iso
                )
        regions = tuple(sorted(
            ((frozenset(ds), frozenset(iso)) for ds, iso in per_region.values()),
            key=lambda r: (min(r[0]) if r[0] else 2 * len(edges) + min(r[1], default=0)),
        ))
        if self.source.labels is not None:
            labels = tuple(self.source.labels[v] for v in verts)
        else:
            labels = tuple(verts)
        return PlaneMultigraph(
            len(verts), tuple(edges), rotation, regions=regions, labels=labels
        )


# ---------------------------------------------------------------------------
# Annihilation
# ---------------------------------------------------------------------------

def annihilate(m: PlaneMultigraph, v: int) -> PlaneMultigraph:
    """Remove v and join its neighbors by a cycle of new edges so that
    each former corner at v bounds a face with the replacing edge.

    Requires degree >= 2 and pairwise distinct neighbors (a parallel
    pair at v would turn into a loop).  A degree-2 vertex leaves a digon.
    """
    if not (0 <= v < m.n):
        raise MapError(f"no vertex {v}")
    b = _MapBuilder(m)
    b.annihilate(v)
    out = b.snapshot()
    trace_faces(out)
    return out


def annihilation_report(
    before: PlaneMultigraph, v: int, after: PlaneMultigraph
) -> list[str]:
    """Structural check of the three face-level consequences of
    annihilation; returns human-readable violations (empty = all hold).

    (1) faces avoiding v persist with the same vertex set;
    (2) each face at v persists with v dropped from its vertex set;
    (3) exactly one new face appears, walking v's former neighbors in
        reversed rotation order.
    """
    problems = []
    fd_before = trace_faces(before)
    fd_after = trace_faces(after)
    relabel = after.labels or tuple(range(after.n))
    after_sets = [
        tuple(sorted(relabel[x] for x in verts))
        for verts in fd_after.boundary_vertices
    ]
    remaining = list(after_sets)
    expected = []
    for verts in fd_before.boundary_vertices:
        if v in verts:
            expected.append(tuple(sorted(verts - {v})))
        else:
            expected.append(tuple(sorted(verts)))
    for exp in expected:
        if exp in remaining:
            remaining.remove(exp)
        else:
            problems.append(f"face with vertex set {exp} missing after annihilation")
    if len(remaining) != 1:
        problems.append(f"expected exactly one new face, found {len(remaining)}")
        return problems
    # clause 3: locate the new face and compare its walk with the
    # reversed neighbor order around v
    nbrs = [before.vertex_of(before.twin(d)) for d in before.rotation[v]]
    target = remaining[0]
    new_face = None
    for cyc, verts in zip(fd_after.faces, fd_after.boundary_vertices):
        if tuple(sorted(relabel[x] for x in verts)) == target and len(cyc) == len(nbrs):
            walk = [relabel[after.vertex_of(d)] for d in cyc]
            rev = list(reversed(nbrs))
            k = len(rev)
            if any(rev[i:] + rev[:i] == walk for i in range(k)):
                new_face = cyc
                break
    if new_face is None:
        problems.append(
            "no face walks the removed vertex's neighbors in reversed rotation order"
        )
    return problems


def digon_expand(m: PlaneMultigraph) -> PlaneMultigraph:
    """Replace every edge by a parallel pair bounding a digon."""
    b = _MapBuilder(m)
    for e in range(m.m):
        b.expand_edge_to_digon(2 * e)
    out = b.snapshot()
    trace_faces(out)
    return out


# ---------------------------------------------------------------------------
# Decomposition into per-color plane multigraphs
# ---------------------------------------------------------------------------

def decompose_claim1(
    m: PlaneMultigraph, phi: Coloring, check: bool = True
) -> list[PlaneMultigraph]:
    """Per color class: drop edges outside the class, strip now-small
    outside vertices, then annihilate every remaining outside vertex.

    The resulting map for class i lives on the class vertices (labels
    point back into m) and has the property that the class neighborhood
    of any vertex with at least two class neighbors bounds one of its
    faces.
    """
    g = m.underlying
    if len(m.edges) != g.m:
        raise MapError("decomposition requires a simple input map")
    from .colorings import is_proper

    if len(phi) != m.n:
        raise MapError("coloring length mismatch")
    if is_proper(g, phi):
        raise MapError("decomposition requires a proper coloring")
    pieces = []
    for i in range(phi.k):
        cls = {v for v in range(m.n) if phi.colors[v] == i}
        b = _MapBuilder(m)
        for e in range(m.m):
            u, v = m.edges[e]
            if u not in cls and v not in cls:
                b.delete_edge_by_dart(2 * e)
        while True:
            small = sorted(
                v for v in b.alive if v not in cls and b.degree(v) <= 1
            )
            if not small:
                break
            for v in small:
                if v in b.alive and b.degree(v) <= 1:
                    b.delete_small_vertex(v)
        for v in sorted(b.alive):
            if v not in cls:
                b.annihilate(v)
        piece = b.snapshot()
        if piece.m:
            trace_faces(piece)
        if check:
            face_sets = {piece.relabel_to_parent(s) for s in piece.face_vertex_sets()}
            for x in range(m.n):
                hood = frozenset(g.adj[x] & cls)
                if len(hood) >= 2 and hood not in face_sets:
                    raise MapError(
                        f"class {i}: neighborhood {sorted(hood)} of vertex {x} "
                        "is not a face boundary"
                    )
        pieces.append(piece)
    return pieces


# ---------------------------------------------------------------------------
# Two-connectivity augmentation
# ---------------------------------------------------------------------------

def is_two_connected(m: PlaneMultigraph) -> bool:
    if m.n < 3:
        return False
    b = _MapBuilder(m)
    if len(b.components()) != 1:
        return False
    _, cuts = b.blocks()
    return not cuts


def augment_claim2(m: PlaneMultigraph) -> PlaneMultigraph:
    """Add edges until the map is 2-connected, preserving every face's
    vertex set.

    Disconnected boundaries are bridged inside their region first; then
    each end-block is merged by an edge across a corner at its cut
    vertex, splitting one face into a triangle and a face with the
    original vertex set.
    """
    if m.n < 3:
        raise MapError("augmentation needs at least three vertices")
    b = _MapBuilder(m)

    def region_face_sets():
        out = []
        for rid in set(b.region_of.values()) | set(b.region_iso):
            darts = [d for d, r in b.region_of.items() if r == rid]
            iso = b.region_iso.get(rid, set())
            if not darts and not iso:
                continue
            out.append(frozenset(b.vert[d] for d in darts) | frozenset(iso))
        return out

    while len(b.components()) > 1:
        comp_of = {}
        for ci, comp in enumerate(b.components()):
            for v in comp:
                comp_of[v] = ci
        candidates = []
        for rid in sorted(
            set(b.region_of.values()) | {r for r, iso in b.region_iso.items() if iso}
        ):
            pieces = b._region_pieces(rid)
            if len({comp_of[anchor] for _, anchor in pieces}) >= 2:
                candidates.append((min(key for key, _ in pieces), rid, pieces))
        if not candidates:
            raise MapError("disconnected map has no shared region to bridge")
        _, rid, pieces = min(candidates)
        pieces.sort()
        first_key, u = pieces[0]
        w = next(
            anchor for _, anchor in pieces[1:] if comp_of[anchor] != comp_of[u]
        )
        before_sets = region_face_sets()
        b.add_edge_in_region(rid, u, w)
        after_sets = region_face_sets()
        for s in before_sets:
            if s and s not in after_sets:
                raise AssertionError(f"bridge lost face boundary {sorted(s)}")

    while True:
        blocks, cuts = b.blocks()
        if not cuts:
            break
        end_blocks = sorted(
            (B for B in blocks if len(B & cuts) == 1),
            key=lambda B: tuple(sorted(B)),
        )
        block = end_blocks[0]
        v = next(iter(block & cuts))
        before_sets = region_face_sets()
        corner = None
        seen = set()
        for d0 in sorted(b.vert):
            if d0 in seen:
                continue
            cyc = b.orbit(d0)
            start = cyc.index(min(cyc))
            cyc = cyc[start:] + cyc[:start]
            seen.update(cyc)
            for j, y in enumerate(cyc):
                if b.vert[y] != v:
                    continue
                x = cyc[j - 1]
                u = b.vert[x]
                w = b.vert[y ^ 1]
                if u in block and u != v and w not in block:
                    corner = (x, y)
                    break
            if corner:
                break
        if corner is None:
            raise MapError(f"no corner found to merge end-block at cut vertex {v}")
        b.add_corner_edge(*corner)
        after_sets = region_face_sets()
        for s in before_sets:
            if s not in after_sets:
                raise AssertionError(f"corner edge lost face boundary {sorted(s)}")

    out = b.snapshot()
    trace_faces(out)
    return out


# ---------------------------------------------------------------------------
# Facially odd colorings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaceViolation:
    kind: str
    face: int
    color: Optional[int] = None
    count: Optional[int] = None


def is_facially_odd(m: PlaneMultigraph, phi: Coloring) -> list[FaceViolation]:
    """Every face must see each color on zero or an odd number of its
    boundary vertices (distinct vertices, not walk occurrences)."""
    if len(phi) != m.n:
        raise MapError("coloring length mismatch")
    out = []
    for fi, verts in enumerate(m.face_vertex_sets()):
        counts = {}
        for v in verts:
            counts[phi.colors[v]] = counts.get(phi.colors[v], 0) + 1
        for c, cnt in sorted(counts.items()):
            if cnt % 2 == 0:
                out.append(FaceViolation("even_color_on_face", fi, c, cnt))
    return out


def is_proper_facially_odd(m: PlaneMultigraph, phi: Coloring) -> list[FaceViolation]:
    """Facially odd and proper on the underlying multigraph."""
    out = is_facially_odd(m, phi)
    for e, (u, v) in enumerate(m.edges):
        if phi.colors[u] == phi.colors[v]:
            out.append(FaceViolation("not_proper", -1, phi.colors[u], None))
    return out


def chi_pfo_exact(m: PlaneMultigraph, budget: Optional[Budget] = None) -> SolveResult:
    """Exact minimum number of colors in a proper facially odd coloring
    of a 2-connected plane multigraph."""
    if m.n < 3:
        raise MapError("facially odd search needs at least three vertices")
    if not is_two_connected(m):
        raise MapError("facially odd search requires a 2-connected map")
    g = m.underlying
    scopes = [tuple(sorted(s)) for s in m.face_vertex_sets()]
    return solve_parity_system(
        m.n, [sorted(a) for a in g.adj], scopes,
        budget=budget, lo=greedy_clique_lower_bound(g),
    )


# ---------------------------------------------------------------------------
# The planar strong-odd pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineResult:
    coloring: Coloring
    piece_orders: tuple[int, ...]
    piece_color_counts: tuple[int, ...]
    pfo_values: tuple[Optional[int], ...]


def strong_odd_via_planar_detailed(
    m: PlaneMultigraph, phi: Coloring, budget: Optional[Budget] = None
) -> PipelineResult:
    """Decompose along a proper coloring, 2-connect each piece, color
    each augmented piece facially odd with a disjoint palette, and take
    the union: a strong odd coloring of the input graph."""
    budget = budget or Budget()
    if not m.underlying.is_connected():
        raise MapError("pipeline input must be connected")
    pieces = decompose_claim1(m, phi)
    final = [-1] * m.n
    offset = 0
    orders = []
    counts = []
    pfo = []
    for piece in pieces:
        orders.append(piece.n)
        if piece.n >= 3:
            aug = augment_claim2(piece)
            res = chi_pfo_exact(aug, budget)
            if res.value is None:
                raise MapError("budget exhausted while coloring a piece")
            local = res.witness.colors
            cnt = res.value
            pfo.append(res.value)
        else:
            pfo.append(None)
            if piece.n == 2 and piece.m:
                local, cnt = (0, 1), 2
            elif piece.n >= 1:
                local, cnt = (0,) * piece.n, 1
            else:
                local, cnt = (), 0
        labels = piece.labels or tuple(range(piece.n))
        for j, lab in enumerate(labels):
            final[lab] = offset + local[j]
        offset += cnt
        counts.append(cnt)
    coloring = Coloring(tuple(final))
    from .colorings import is_strong_odd

    bad = is_strong_odd(m.underlying, coloring)
    if bad:
        raise AssertionError(f"pipeline produced an invalid coloring: {bad[0]}")
    return PipelineResult(coloring, tuple(orders), tuple(counts), tuple(pfo))


def strong_odd_via_planar(
    m: PlaneMultigraph, phi: Coloring, budget: Optional[Budget] = None
) -> Coloring:
    return strong_odd_via_planar_detailed(m, phi, budget).coloring
