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
The PlaneMultigraph constructor checks that a map is plane, however it
is made; the maps that annihilation and Claims 1 and 2 build are plane
by construction and skip it (_trusted_map).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Iterable, NamedTuple, Optional, Sequence

from .colorings import Coloring, color_counts, is_proper, is_strong_odd
from .graphs import Graph, _read_json, _write_json
from .solver import Budget, SolveResult, solve_parity_system


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


def _trace_orbits(succ: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The orbits of the face successor succ (indexed by dart), each
    found from its smallest dart, so starting there, in that order."""
    seen = [False] * len(succ)
    faces = []
    for d0 in range(len(succ)):
        if seen[d0]:
            continue
        cyc = [d0]
        seen[d0] = True
        d = succ[d0]
        while d != d0:
            cyc.append(d)
            seen[d] = True
            d = succ[d]
        faces.append(tuple(cyc))
    return tuple(faces)


def _find(parent: list[int], x: int) -> int:
    """The root of x in the union-find forest parent, halving the path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


@dataclass(frozen=True)
class PlaneMultigraph:
    """Plane multigraph given by a rotation system.

    edges[e] = (u, v) owns dart 2e (leaving u) and dart 2e+1 (leaving v).
    rotation[v] lists the darts leaving v in clockwise order.  labels
    optionally names each vertex in some outer id space (used when a map
    was carved out of a larger one).  regions, when present, groups face
    orbits into geometric faces.
    The constructor raises MapError unless the map is a plane embedding.
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
        tail = self._tail
        seen = [False] * len(tail)
        for v, rot in enumerate(self.rotation):
            for d in rot:
                if not 0 <= d < len(tail):
                    raise MapError(f"dart {d} out of range")
                if seen[d]:
                    raise MapError(f"dart {d} listed twice")
                seen[d] = True
                if tail[d] != v:
                    raise MapError(f"dart {d} does not leave vertex {v}")
        if not all(seen):
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
            if not all(r[0] or r[1] for r in self.regions):
                raise MapError("a region holds neither a dart nor an isolated vertex")
        # the plane checks: regions are unions of orbits, n - m + f = 2 on
        # each component, and components and regions are linked as a tree
        orbits, comp_of, regions = self._orbits, self._component_of, self.regions
        if regions is not None:
            region_of, iso_region, _ = self._region_index
            succ = self._succ
            if any(region_of[d] != region_of[succ[d]] for d in range(len(tail))):
                raise MapError("every region must be a union of face orbits")
        ncomp = max(comp_of, default=-1) + 1
        nc, mc = Counter(comp_of), Counter(comp_of[u] for u, _ in self.edges)
        fc = Counter(comp_of[tail[cyc[0]]] for cyc in orbits)
        for ci in range(ncomp):
            # an isolated vertex has no orbit and is exempt
            if mc[ci] and nc[ci] - mc[ci] + fc[ci] != 2:
                raise MapError(
                    f"component {ci}: Euler identity fails "
                    f"({nc[ci]} - {mc[ci]} + {fc[ci]} != 2); not a plane embedding"
                )
        if regions:  # none when n = 0, as plane claim1 writes an empty piece
            # a component bounds a face by one orbit, or by itself when
            # it is an isolated vertex
            links = [(comp_of[tail[cyc[0]]], region_of[cyc[0]]) for cyc in orbits]
            links += [(comp_of[v], r) for v, r in iso_region.items()]
            parent = list(range(ncomp + len(regions)))
            if len(links) != len(parent) - 1:
                raise MapError("regions do not describe a plane embedding")
            for c, r in links:
                c, r = _find(parent, c), _find(parent, ncomp + r)
                if c == r:
                    raise MapError("regions do not describe a plane embedding")
                parent[c] = r

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def darts(self) -> range:
        return range(2 * self.m)

    @cached_property
    def _tail(self) -> list[int]:
        """The vertex each dart leaves, indexed by dart."""
        return list(chain.from_iterable(self.edges))

    @cached_property
    def _succ(self) -> list[int]:
        """Face successor of each dart: the rotation successor of its twin."""
        succ = [0] * len(self._tail)
        for rot in self.rotation:
            for d, after in zip(rot, rot[1:] + rot[:1]):
                succ[d ^ 1] = after
        return succ

    @cached_property
    def _orbits(self) -> tuple[tuple[int, ...], ...]:
        """The face orbits, traced once per map."""
        return _trace_orbits(self._succ)

    @cached_property
    def _component_of(self) -> list[int]:
        """Index of each vertex's connected component, numbered in the
        order of their smallest vertices; walks the rotations, so that
        validating a map builds no underlying graph."""
        tail = self._tail
        comp_of = [-1] * self.n
        ci = 0
        for s in range(self.n):
            if comp_of[s] >= 0:
                continue
            comp_of[s] = ci
            stack = [s]
            while stack:
                for d in self.rotation[stack.pop()]:
                    y = tail[d ^ 1]
                    if comp_of[y] < 0:
                        comp_of[y] = ci
                        stack.append(y)
            ci += 1
        return comp_of

    @cached_property
    def _region_index(self) -> tuple[list[int], dict[int, int], int]:
        """Each dart's index in effective_regions(), each isolated
        vertex's, and the number of regions; built once per map, for
        the plane check, annihilation, Claim 1 and Claim 2's bridges."""
        regions = self.effective_regions()
        region_of = [0] * len(self._tail)
        iso_region = {}
        for r, (darts, iso) in enumerate(regions):
            for d in darts:
                region_of[d] = r
            iso_region.update(dict.fromkeys(iso, r))
        return region_of, iso_region, len(regions)

    def vertex_of(self, d: int) -> int:
        return self._tail[d]

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

    def effective_regions(self) -> tuple[Region, ...]:
        """Stored regions, or the side-by-side default: one region per
        orbit, except that every component's first orbit and every
        isolated vertex share one outer region.  With one component
        that region is its first orbit, and with no edge it holds the
        isolated vertices (or nothing, when n = 0)."""
        if self.regions is not None:
            return self.regions
        faces = self._orbits
        comp_of = self._component_of
        isolated = frozenset(v for v in range(self.n) if not self.rotation[v])
        first_orbit = {}
        for fi, cyc in enumerate(faces):
            ci = comp_of[self.vertex_of(cyc[0])]
            first_orbit.setdefault(ci, fi)
        outer = set(first_orbit.values())
        shared = frozenset(d for fi in outer for d in faces[fi])
        regions = [(shared, isolated)]
        for fi, cyc in enumerate(faces):
            if fi not in outer:
                regions.append((frozenset(cyc), frozenset()))
        return tuple(sorted(regions, key=lambda r: min(r[0]) if r[0] else 2 * self.m))

    @cached_property
    def _face_vertex_sets(self) -> tuple[frozenset[int], ...]:
        tail = self._tail
        return tuple(
            frozenset(map(tail.__getitem__, darts)) | iso
            for darts, iso in self.effective_regions()
        )

    def face_vertex_sets(self) -> tuple[frozenset[int], ...]:
        """Geometric face boundaries as vertex sets, computed once per
        map.  An isolated vertex inside a face is a point component of
        its boundary."""
        return self._face_vertex_sets

    def relabel_to_parent(self, vertices: Iterable[int]) -> frozenset[int]:
        if self.labels is None:
            return frozenset(vertices)
        return frozenset(self.labels[v] for v in vertices)


def _trusted_map(n, edges, rotation, regions, labels) -> PlaneMultigraph:
    """A PlaneMultigraph built without its constructor's checks, as
    graphs._trusted_graph builds a Graph: only for the maps of _carve and
    _MapBuilder.snapshot, plane by the arguments in their docstrings."""
    pm = object.__new__(PlaneMultigraph)
    pm.__dict__.update(n=n, edges=edges, rotation=rotation, regions=regions, labels=labels)
    return pm


@dataclass(frozen=True)
class FaceData:
    """Face orbits of a map: dart cycles and their vertex sets."""

    faces: tuple[tuple[int, ...], ...]
    boundary_vertices: tuple[frozenset[int], ...]


def trace_faces(m: PlaneMultigraph) -> FaceData:
    """Orbits of the face successor, each starting at its smallest dart
    and listed in that order, with their vertex sets.  The map was
    checked to be plane when it was made."""
    faces, tail = m._orbits, m._tail
    boundary = tuple(frozenset(map(tail.__getitem__, cyc)) for cyc in faces)
    return FaceData(faces, boundary)


def boundary_walk_vertices(m: PlaneMultigraph, cyc: Sequence[int]) -> list[int]:
    """Vertex sequence along a face's dart cycle."""
    return [m.vertex_of(d) for d in cyc]


# ---------------------------------------------------------------------------
# Constructors and serialization
# ---------------------------------------------------------------------------

def from_neighbor_rotations(neighbors: Sequence[Sequence[int]]) -> PlaneMultigraph:
    """Map of a simple graph from per-vertex clockwise neighbor lists."""
    n = len(neighbors)
    nbr_sets = [set(nbrs) for nbrs in neighbors]
    for u in range(n):
        if len(nbr_sets[u]) != len(neighbors[u]):
            raise MapError(f"vertex {u} lists a neighbor twice")
        for w in neighbors[u]:
            if u not in nbr_sets[w]:
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
    data = {
        "n": m.n,
        "edges": [{"id": e, "ends": [u, v]} for e, (u, v) in enumerate(m.edges)],
        "rotation": {str(v): list(m.rotation[v]) for v in range(m.n)},
    }
    if m.regions is not None:
        data["regions"] = [{"darts": sorted(darts), "isolated": sorted(iso)}
                           for darts, iso in m.regions]
    return data


def map_from_json_dict(data: dict) -> PlaneMultigraph:
    try:
        n = data["n"]
        raw_edges = data["edges"]
        raw_rot = data["rotation"]
        raw_regions = data.get("regions")
        regions = None if raw_regions is None else [
            (r["darts"], r["isolated"]) for r in raw_regions]
    except (KeyError, TypeError) as exc:
        raise MapError(f"malformed map JSON: {exc}") from exc
    # type(), not isinstance, here and below: bool is an int subclass
    if type(n) is not int:
        raise MapError("n must be an integer")
    if not isinstance(raw_edges, list) or not isinstance(raw_rot, dict):
        raise MapError("edges must be a list and rotation an object")
    edges = [None] * len(raw_edges)
    for item in raw_edges:
        try:
            e = item["id"]
            u, v = item["ends"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MapError(f"malformed edge entry {item!r}") from exc
        if type(e) is not int or not (0 <= e < len(raw_edges)) or edges[e] is not None:
            raise MapError(f"bad edge id {e!r}")
        edges[e] = (u, v)
    rotation = [raw_rot.get(str(v), []) for v in range(n)]
    region_lists = list(chain.from_iterable(regions or ()))
    if not all(isinstance(ids, list) for ids in rotation + region_lists):
        raise MapError("rotations and region fields must be lists of ids")
    if not set(map(type, chain.from_iterable(edges + rotation + region_lists))) <= {int}:
        raise MapError("edge ends, dart ids and region entries must be integers")
    if regions is not None:
        regions = tuple((frozenset(darts), frozenset(iso)) for darts, iso in regions)
    return PlaneMultigraph(n, tuple(edges), tuple(map(tuple, rotation)), regions=regions)


def save_map(m: PlaneMultigraph, path) -> None:
    _write_json(path, map_to_json_dict(m))


def load_map(path) -> PlaneMultigraph:
    """The map in a JSON file; MapError if it is malformed."""
    return map_from_json_dict(_read_json(path, MapError))


# ---------------------------------------------------------------------------
# Mutable builder used by the Claim 2 augmentation
# ---------------------------------------------------------------------------

class _MapBuilder:
    """Rotation system of a map that Claim 2 adds edges to.  It only
    adds: no dart or vertex is ever removed, so every id of the source
    map is kept, and new darts follow the old ones in the order they are
    allocated.

    Each rotation is a cycle linked through nxt and prv, lists indexed
    by dart (the darts after and before a dart at its vertex), so a
    splice next to a known dart takes O(1).  first[v] is the dart v's
    rotation is listed from (None when v is isolated): the dart at which
    a Python list of the rotation, edited by the same insertions, would
    start.  vert[d] is the vertex dart d leaves, so len(vert) is the next
    dart id.  Darts keep the map's convention: new ones are allocated in
    pairs, so d's twin is d ^ 1.
    """

    def __init__(self, m: PlaneMultigraph):
        self.source = m
        self.first = [r[0] if r else None for r in m.rotation]
        # nxt[d] = succ[d ^ 1], by slices
        succ = m._succ
        self.nxt = nxt = succ[:]
        nxt[0::2], nxt[1::2] = succ[1::2], succ[0::2]
        self.prv = prv = [0] * len(succ)
        for d, after in enumerate(nxt):
            prv[after] = d
        self.vert = m._tail[:]

    # -- basic accessors ----------------------------------------------------

    def succ(self, d: int) -> int:
        return self.nxt[d ^ 1]

    def rotation(self, v: int) -> list[int]:
        """v's darts in rotation order, from first[v]."""
        out = []
        d = self.first[v]
        if d is not None:
            nxt = self.nxt
            out.append(d)
            x = nxt[d]
            while x != d:
                out.append(x)
                x = nxt[x]
        return out

    def orbit(self, d0: int) -> list[int]:
        cyc = [d0]
        d = self.succ(d0)
        while d != d0:
            cyc.append(d)
            d = self.succ(d)
        return cyc

    def _new_darts(self, u: int, w: int) -> tuple[int, int]:
        a = len(self.vert)
        b = a + 1
        self.vert += (u, w)
        self.nxt += (a, b)  # placeholders until the darts are linked
        self.prv += (a, b)
        return a, b

    # -- mutations -----------------------------------------------------------

    def _link(self, before: int, new: int, after: int) -> None:
        self.nxt[before] = self.prv[after] = new
        self.prv[new] = before
        self.nxt[new] = after

    def _insert_before(self, v: int, anchor: int, new: int) -> None:
        self._link(self.prv[anchor], new, anchor)
        if self.first[v] == anchor:
            self.first[v] = new

    def _insert_after(self, v: int, anchor: int, new: int) -> None:
        self._link(anchor, new, self.nxt[anchor])

    def add_bridge(self, u: int, du: Optional[int],
                   w: int, dw: Optional[int]) -> tuple[int, int]:
        """Bridge two boundary pieces of one face (used to connect
        components).  The new edge enters the rotation at u before du and
        at w before dw, each the vertex's smallest dart in the face, or
        None for an isolated vertex.  Returns the new darts at u and at w."""
        nu, nw = self._new_darts(u, w)
        for v, anchor, nd in ((u, du, nu), (w, dw, nw)):
            if anchor is None:
                self.first[v] = self.nxt[nd] = self.prv[nd] = nd
            else:
                self._insert_before(v, anchor, nd)
        return nu, nw

    def add_corner_edge(self, x: int, y: int) -> int:
        """Add an edge cutting the corner (x, y) off its face: the face
        splits into the triangle (x, y, new) and a remainder with the
        same vertex set.  Returns the new edge's dart that stays in the
        remainder."""
        if self.succ(x) != y:
            raise MapError("darts do not form a corner")
        u = self.vert[x]
        w = self.vert[y ^ 1]
        n1, n2 = self._new_darts(u, w)
        self._insert_before(u, x, n1)
        self._insert_after(w, y ^ 1, n2)
        return n1

    # -- snapshot --------------------------------------------------------------

    def snapshot(self) -> PlaneMultigraph:
        """The current map and its labels; every id is the builder's own.
        The map must be connected with no isolated vertex, so its regions
        are its face orbits, in order of their smallest darts.  It is
        built unchecked by _trusted_map: the source map is plane, and so
        are bridges inside faces and edges across corners."""
        vert, n, nxt = self.vert, len(self.first), self.nxt
        edges = tuple(zip(vert[0::2], vert[1::2]))
        rotation = tuple(tuple(self.rotation(v)) for v in range(n))
        regions = tuple((frozenset(cyc), frozenset())
                        for cyc in _trace_orbits([nxt[d ^ 1] for d in range(len(nxt))]))
        labels = self.source.labels or tuple(range(n))
        return _trusted_map(n, edges, rotation, regions, labels)


# ---------------------------------------------------------------------------
# Annihilation, and the carve that Claim 1 shares with it
# ---------------------------------------------------------------------------

def _carve(m: PlaneMultigraph, keep: Sequence[int],
           outside: Iterable[tuple[int, Sequence[int]]], survivors: Sequence[int],
           joins: Iterable[tuple[int, int]]) -> PlaneMultigraph:
    """The map on the ascending vertex list keep that is left when every
    edge of m with no end in keep is deleted, and then each outside
    vertex, in ascending order, is deleted if it has one dart into keep
    and annihilated if it has more.

    outside lists those vertices in ascending order, each with its darts
    into keep in rotation order from its first one, whose heads must be
    distinct; survivors lists the edges with both ends in keep, in m's
    order; and joins lists, for each deleted edge, the indices in
    m._region_index of the regions on its two sides.

    The map is built from the darts at keep alone.  Faces merge exactly
    across the deleted edges, so a union-find over m's regions, joined
    across those edges, gives every kept dart its region (Tarjan 1975).
    A surviving edge keeps its darts, their regions and its place in m's
    order, ahead of every new edge.  An outside vertex with one dart into
    keep hangs from keep by a pendant edge, which has one face on both
    sides, so it is dropped with no merge.  An outside vertex v with
    d >= 2 darts into keep gets d new edges: edge j runs from the j-th
    to the (j+1)-th of their heads (mod d).  At the head of dart j the
    dart toward v is replaced in place by the new darts of edges j and
    j - 1, the first keeping the old dart's region and the second lying
    on v's new face.  A kept vertex left with no dart stays in the
    region of its former darts, or in its own if it had none.

    The result is, dart for dart, what the deletions and annihilations,
    done one at a time on a copy of m, leave after the vertices and
    darts still there are renumbered in order: the surviving darts are
    older, so smaller, than all new ones, which are numbered in the
    order the annihilations allocate them, the order here; a rotation
    edited by in-place replacements is listed from its first dart's
    replacement; and the regions are sorted by their smallest dart,
    then by their smallest isolated vertex.  Labels point back into m,
    or through m's own labels.  So it is plane, as m is, and is built
    unchecked by _trusted_map.
    """
    region_of, iso_region, count = m._region_index
    parent = list(range(count))
    for r1, r2 in joins:
        parent[_find(parent, r1)] = _find(parent, r2)
    tail = m._tail
    pos = {v: j for j, v in enumerate(keep)}
    edges = [(pos[tail[2 * e]], pos[tail[2 * e + 1]]) for e in survivors]
    surviving = [d for e in survivors for d in (2 * e, 2 * e + 1)]
    replaced = {d: (x,) for x, d in enumerate(surviving)}  # dart at keep -> darts in its place
    members = {}  # region root -> (darts, isolated vertices) of the result
    for x, d in enumerate(surviving):
        members.setdefault(_find(parent, region_of[d]), ([], []))[0].append(x)
    new_faces = []
    for v, darts in outside:
        d = len(darts)
        if d == 1:
            replaced[darts[0] ^ 1] = ()
            continue
        nbrs = [tail[x ^ 1] for x in darts]
        base = 2 * len(edges)
        edges += [(pos[nbrs[j]], pos[nbrs[(j + 1) % d]]) for j in range(d)]
        for j, x in enumerate(darts):
            a = base + 2 * j
            replaced[x ^ 1] = (a, base + 2 * ((j - 1) % d) + 1)
            members.setdefault(_find(parent, region_of[x ^ 1]), ([], []))[0].append(a)
        new_faces.append(range(base + 1, base + 2 * d, 2))
    rotation = tuple(
        tuple(chain.from_iterable(map(replaced.__getitem__, m.rotation[u])))
        for u in keep
    )
    for j, u in enumerate(keep):
        if not rotation[j]:
            rot = m.rotation[u]
            r = region_of[rot[0]] if rot else iso_region[u]
            members.setdefault(_find(parent, r), ([], []))[1].append(j)
    regions = [(frozenset(ds), frozenset(iso)) for ds, iso in members.values()]
    regions += [(frozenset(ds), frozenset()) for ds in new_faces]
    regions.sort(key=lambda r: min(r[0]) if r[0] else 2 * len(edges) + min(r[1]))
    labels = tuple(keep) if m.labels is None else tuple(m.labels[v] for v in keep)
    return _trusted_map(len(keep), tuple(edges), rotation, tuple(regions), labels)


def annihilate(m: PlaneMultigraph, v: int) -> PlaneMultigraph:
    """Remove v and join its neighbors by a cycle of new edges so that
    each former corner at v bounds a face with the replacing edge: the
    old corner face keeps its walk (minus v), and the neighbors bound
    exactly one new face in reversed rotation order.

    Requires degree >= 2 and pairwise distinct neighbors (a parallel
    pair at v would turn into a loop).  A degree-2 vertex leaves a digon.
    """
    if not (0 <= v < m.n):
        raise MapError(f"no vertex {v}")
    rv = m.rotation[v]
    if len(rv) < 2:
        raise MapError(f"annihilation needs degree >= 2 at vertex {v}")
    tail = m._tail
    if len({tail[d ^ 1] for d in rv}) != len(rv):
        raise MapError(
            f"vertex {v} is incident with a parallel pair; annihilation "
            "would create a loop"
        )
    keep = [u for u in range(m.n) if u != v]
    survivors = [e for e in range(m.m) if tail[2 * e] != v and tail[2 * e + 1] != v]
    return _carve(m, keep, [(v, rv)], survivors, ())


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
    nbrs = [before.head_of(d) for d in before.rotation[v]]
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


# ---------------------------------------------------------------------------
# Decomposition into per-color plane multigraphs
# ---------------------------------------------------------------------------

_EMPTY_MAP = PlaneMultigraph(0, (), (), regions=(), labels=())


def decompose_claim1(m: PlaneMultigraph, phi: Coloring) -> list[PlaneMultigraph]:
    """Per color class: the map left on the class when every edge with
    no end in it is deleted and every other vertex is then deleted or
    annihilated, as _carve builds it; a class is independent, so no edge
    survives.  A color id that no vertex has gets the empty map.

    The piece of class i lives on the class vertices in ascending order
    (labels point back into m, or through m's own labels) and has the
    property, checked before it is returned, that the class neighborhood
    of any vertex with at least two class neighbors bounds one of its
    faces.
    """
    g = m.underlying
    if len(m.edges) != g.m:
        raise MapError("decomposition requires a simple input map")
    if len(phi) != m.n:
        raise MapError("coloring length mismatch")
    if is_proper(g, phi):
        raise MapError("decomposition requires a proper coloring")
    colors, tail = phi.colors, m._tail
    region_of = m._region_index[0]
    # the edges that join two regions, with their ends' colors
    joins = [(colors[u], colors[v], region_of[2 * e], region_of[2 * e + 1])
             for e, (u, v) in enumerate(m.edges)
             if region_of[2 * e] != region_of[2 * e + 1]]
    classes = [[] for _ in range(phi.k)]
    # per class, each outside vertex with a dart at the class, ascending,
    # with those darts in rotation order; the coloring is proper, so a
    # vertex's own class is never among them
    outside = [[] for _ in range(phi.k)]
    for v, rot in enumerate(m.rotation):
        classes[colors[v]].append(v)
        by_class = {}
        for d in rot:
            by_class.setdefault(colors[tail[d ^ 1]], []).append(d)
        for c, darts in by_class.items():
            outside[c].append((v, darts))
    pieces = []
    for i, cls in enumerate(classes):
        if not cls:
            pieces.append(_EMPTY_MAP)
            continue
        piece = _carve(m, cls, outside[i], (),
                       [(r1, r2) for cu, cv, r1, r2 in joins if cu != i and cv != i])
        face_sets = set(piece.face_vertex_sets())
        pos = {v: j for j, v in enumerate(cls)}
        for v, darts in outside[i]:
            if len(darts) >= 2:
                nbrs = [tail[x ^ 1] for x in darts]
                if frozenset(map(pos.__getitem__, nbrs)) not in face_sets:
                    raise MapError(
                        f"class {i}: neighborhood {sorted(nbrs)} of vertex {v} "
                        "is not a face boundary"
                    )
        pieces.append(piece)
    return pieces


# ---------------------------------------------------------------------------
# Two-connectivity augmentation
# ---------------------------------------------------------------------------

def _blocks(rotation, tail, vertices) -> tuple[dict[int, int], set[int]]:
    """Biconnected components and cut vertices of a multigraph given by
    its rotations (vertex -> darts) and dart tails (dart -> vertex), by
    Hopcroft and Tarjan's depth-first search: the block index of each
    edge (keyed by dart // 2) and the set of cut vertices.  Parallel
    edges count separately, so a doubled edge forms a 2-connected
    block.  A search starts at each of `vertices` not yet reached, in
    the order given."""
    disc = {}
    low = {}
    dart_stack = []
    block_of = {}
    cuts = set()
    counter = [0, 0]  # next discovery time, next block index

    def dfs(root):
        root_children = 0
        todo = [(root, -1, 0)]
        disc[root] = low[root] = counter[0]
        counter[0] += 1
        while todo:
            v, in_dart, idx = todo.pop()
            rot = rotation[v]
            advanced = False
            while idx < len(rot):
                d = rot[idx]
                idx += 1
                u = tail[d ^ 1]
                if d == in_dart:
                    continue
                if u not in disc:
                    dart_stack.append(d)
                    disc[u] = low[u] = counter[0]
                    counter[0] += 1
                    todo.append((v, in_dart, idx))
                    todo.append((u, d ^ 1, 0))
                    advanced = True
                    break
                if disc[u] < disc[v]:
                    dart_stack.append(d)
                    low[v] = min(low[v], disc[u])
            if advanced:
                continue
            if todo:
                p = todo[-1][0]
                low[p] = min(low[p], low[v])
                if low[v] >= disc[p]:
                    if p == root:
                        root_children += 1
                    while True:
                        d = dart_stack.pop()
                        block_of[d >> 1] = counter[1]
                        if d == in_dart ^ 1:
                            break
                    counter[1] += 1
                    if p != root:
                        cuts.add(p)
        return root_children

    for root in vertices:
        if root not in disc:
            if dfs(root) >= 2:
                cuts.add(root)
    return block_of, cuts


def is_two_connected(m: PlaneMultigraph) -> bool:
    if m.n < 3 or max(m._component_of) != 0:
        return False
    _, cuts = _blocks(m.rotation, m._tail, range(m.n))
    return not cuts


class _EndBlocks:
    """Blocks of a connected builder, kept current while corner edges
    merge end blocks into their neighbors.

    The blocks are computed once; a union-find over their indices then
    follows the merges.  For each block and each of its cut vertices t,
    ends holds the block's darts at t whose rotation successor lies in
    another block; t is a cut vertex of the block exactly when there is
    one.  Merging end block B with block C at their cut vertex v changes
    no other block, and the new edge changes the rotations only at its
    ends.  Two blocks share at most one vertex, so their two smallest
    vertices order them as their sorted vertex tuples do."""

    def __init__(self, b: _MapBuilder):
        self.b = b
        rot = [b.rotation(v) for v in range(len(b.first))]
        self.edge_block, cuts = _blocks(rot, b.vert, range(len(rot)))
        verts = [set() for _ in range(len(set(self.edge_block.values())))]
        for d, v in enumerate(b.vert):
            verts[self.edge_block[d >> 1]].add(v)
        self.parent = list(range(len(verts)))
        self.key = [tuple(sorted(vs)[:2]) for vs in verts]
        self.ends = [{} for _ in verts]
        for t in cuts:
            for a in rot[t]:
                y = b.nxt[a]
                i = self.edge_block[a >> 1]
                if i != self.edge_block[y >> 1]:
                    self.ends[i].setdefault(t, set()).add(a)
        self.heap = [(self.key[i], i) for i, e in enumerate(self.ends) if len(e) == 1]
        heapify(self.heap)

    def block_of(self, d: int) -> int:
        return _find(self.parent, self.edge_block[d >> 1])

    def next_end(self) -> Optional[tuple[int, int, set[int]]]:
        """The end block with the smallest sorted vertex tuple, its cut
        vertex v and its darts at v followed by another block's, or None
        when the graph is 2-connected."""
        while self.heap:
            key, i = heappop(self.heap)
            if self.parent[i] == i and key == self.key[i] and len(self.ends[i]) == 1:
                (v, darts), = self.ends[i].items()
                return i, v, darts
        return None

    def merge(self, i: int, j: int, v: int, y: int, d: int) -> None:
        """Join blocks i and j at v after a corner edge from i's side of
        the corner at y: its dart d leaves i, and d ^ 1 follows y ^ 1."""
        if len(self.ends[i]) < len(self.ends[j]):
            i, j = j, i
        self.parent[j] = i
        self.edge_block[d >> 1] = i
        self.key[i] = tuple(sorted(set(self.key[i] + self.key[j]))[:2])
        ends = self.ends[i]
        at_v = ends.pop(v) | self.ends[j].pop(v)
        ends.update(self.ends[j])  # v is the only vertex both blocks have
        self.ends[j] = {}
        at_v = {a for a in at_v if self.block_of(self.b.succ(a ^ 1)) != i}
        if at_v:
            ends[v] = at_v
        at_w = ends.get(self.b.vert[y ^ 1], ())
        if y ^ 1 in at_w:
            at_w.remove(y ^ 1)
            at_w.add(d ^ 1)
        if len(ends) == 1:
            heappush(self.heap, (self.key[i], i))


def _region_pieces(m: PlaneMultigraph) -> list[list[tuple[int, int, Optional[int]]]]:
    """The boundary pieces of each region of m, as (sort key, anchor
    vertex, the anchor's smallest dart in the piece, None for an
    isolated vertex), in the bridging order of augment_claim2."""
    region_of, iso_region, count = m._region_index
    tail = m._tail
    pieces = [[] for _ in range(count)]
    for cyc in m._orbits:  # each starts at its smallest dart
        v = min(map(tail.__getitem__, cyc))
        pieces[region_of[cyc[0]]].append((cyc[0], v, min(d for d in cyc if tail[d] == v)))
    for v in sorted(iso_region):
        pieces[iso_region[v]].append((2 * m.m + v, v, None))
    return sorted(pieces)


def augment_claim2(m: PlaneMultigraph) -> PlaneMultigraph:
    """Add edges until the map is 2-connected, preserving every face's
    vertex set.

    Disconnected boundaries are bridged inside their region first; then
    each end-block is merged by an edge across a corner at its cut
    vertex, splitting one face into a triangle and a face with the
    original vertex set.

    Bridging order.  A region's pieces are its boundary orbits, keyed by
    their smallest dart, then its isolated vertices v, keyed by the next
    free dart id plus v; a piece's anchor is its smallest vertex.  Each
    bridge goes into the region with the smallest key among those that
    still span two components, from the first piece's anchor u to the
    anchor w of the first piece in another component.  One pass in a
    fixed order gives the same bridges.  A bridge merges just the two
    pieces it joins, and only in its own region.  The merged piece has
    anchor min(u, w) and stays its region's first piece, and the order of
    all other keys holds, because new darts are larger than all old ones
    and the isolated keys shift together.  Components only merge, so a
    region that stops spanning two never spans two again.  So the
    regions are visited once, in the order of their smallest keys, and
    each is bridged along its pieces until it lies in one component.  The
    argument needs each region to meet a component in at most one piece,
    as a face of a plane map does.  So m's regions are read once, and the
    map returned, connected with no isolated vertex, has one region per
    face orbit.

    The contract is checked once, on the map returned: every face vertex
    set of m, counted with multiplicity, must be one of the result's, or
    an AssertionError names a lost face.
    """
    if m.n < 3:
        raise MapError("augmentation needs at least three vertices")
    b = _MapBuilder(m)
    # the builder keeps the map's vertex ids, so the map's component index
    # applies to it; parent is a union-find over the component ids
    comp_of = m._component_of
    parent = list(range(max(comp_of) + 1))
    # a connected map needs no bridge: skip the orbit walks; a plane
    # map's regions link its components as a tree, so bridges join all
    for pieces in _region_pieces(m) if len(parent) > 1 else ():
        _, u, du = pieces[0]
        for _, w, dw in pieces[1:]:
            cu, cw = _find(parent, comp_of[u]), _find(parent, comp_of[w])
            if cu != cw:
                nu, nw = b.add_bridge(u, du, w, dw)
                parent[cw] = cu
                # the anchor of the merged piece, and its smallest dart
                # there: new darts are larger than all old ones
                if w < u:
                    u, du = w, nw if dw is None else dw
                elif du is None:
                    du = nu

    blocks = _EndBlocks(b)
    while (end := blocks.next_end()) is not None:
        block, v, darts = end
        # the corners (x, y) at v where x arrives from the end block and
        # y leaves it; of several, take the one that a scan of the
        # orbits from their smallest darts meets first
        corners = [(a ^ 1, b.succ(a ^ 1)) for a in darts]
        if len(corners) > 1:
            corners.sort(key=lambda c: _corner_rank(b, c[1]))
        x, y = corners[0]
        other = blocks.block_of(y)
        d = b.add_corner_edge(x, y)
        blocks.merge(block, other, v, y, d)

    out = b.snapshot()
    lost = Counter(m.face_vertex_sets()) - Counter(out.face_vertex_sets())
    if lost:
        raise AssertionError(f"Claim 2 lost face boundary {sorted(next(iter(lost)))}")
    return out


def _corner_rank(b: _MapBuilder, y: int) -> tuple[int, int]:
    """The smallest dart of y's orbit, then y's position after it."""
    cyc = b.orbit(y)
    first = min(cyc)
    return first, -cyc.index(first) % len(cyc)


# ---------------------------------------------------------------------------
# Facially odd colorings
# ---------------------------------------------------------------------------

class FaceViolation(NamedTuple):
    """One failed condition on one face (-1 for an improper edge), a
    named tuple like `colorings.Violation`."""

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
        for c, cnt in sorted(color_counts(phi.colors, verts).items()):
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
    scopes = [tuple(sorted(s)) for s in m.face_vertex_sets()]
    return solve_parity_system(m.n, m.underlying.adj, scopes, budget=budget)


# ---------------------------------------------------------------------------
# The planar strong-odd pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineResult:
    coloring: Coloring
    piece_orders: tuple[int, ...]
    piece_color_counts: tuple[int, ...]
    pfo_values: tuple[Optional[int], ...]
    nodes_explored: int  # over the facially odd searches of all pieces


def strong_odd_via_planar_detailed(
    m: PlaneMultigraph, phi: Coloring, budget: Optional[Budget] = None
) -> PipelineResult:
    """Decompose along a proper coloring, 2-connect each piece, color
    each augmented piece facially odd with a disjoint palette, and take
    the union: a strong odd coloring of the input graph.

    budget.max_nodes caps the search of each piece, and budget.max_time
    the whole pipeline: one deadline is taken at entry, and each piece
    gets the time left before it.  A piece whose facially odd search
    runs out of budget is colored with the search's witness at hi
    (pfo_values holds None for it), so the union stays strong odd, with
    more colors than an optimal piece may need."""
    budget = budget or Budget()
    deadline = time.monotonic() + budget.max_time
    if max(m._component_of, default=0) != 0:
        raise MapError("pipeline input must be connected")
    pieces = decompose_claim1(m, phi)
    final = [-1] * m.n
    offset = 0
    orders = []
    counts = []
    pfo = []
    nodes = 0
    for piece in pieces:
        orders.append(piece.n)
        if piece.n >= 3:
            aug = augment_claim2(piece)
            left = max(0.0, deadline - time.monotonic())
            res = chi_pfo_exact(aug, Budget(budget.max_nodes, left))
            local, cnt = res.witness.colors, res.hi
            pfo.append(res.value)
            nodes += res.nodes_explored
        else:
            pfo.append(None)
            if piece.n == 2 and piece.m:
                local, cnt = (0, 1), 2
            elif piece.n >= 1:
                local, cnt = (0,) * piece.n, 1
            else:
                local, cnt = (), 0
        for j, lab in enumerate(piece.labels):
            final[lab] = offset + local[j]
        offset += cnt
        counts.append(cnt)
    coloring = Coloring(tuple(final))
    bad = is_strong_odd(m.underlying, coloring)
    if bad:
        raise AssertionError(f"pipeline produced an invalid coloring: {bad[0]}")
    return PipelineResult(coloring, tuple(orders), tuple(counts), tuple(pfo), nodes)
