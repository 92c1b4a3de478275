"""Vertex colorings and the four verifier predicates.

Colors are 0-based ids.  Verifiers never mutate and collect every
violation rather than failing fast, so tests can assert exact violation
sets.  An empty report means the predicate holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .graphs import Graph, _check_coloring_length, _read_json

NOT_PROPER = "not_proper"
EVEN_COLOR = "even_color_in_neighborhood"
NO_ODD_COLOR = "no_odd_color"
DISTANCE2_CLASH = "distance2_clash"


@dataclass(frozen=True)
class Coloring:
    """A total assignment of color ids to vertices."""

    colors: tuple[int, ...]

    def __post_init__(self):
        if self.colors and min(self.colors) < 0:
            first = next(c for c in self.colors if c < 0)
            raise ValueError(f"negative color id {first}")

    @property
    def k(self) -> int:
        """Number of colors: one plus the largest id actually used."""
        return max(self.colors) + 1 if self.colors else 0

    def __len__(self) -> int:
        return len(self.colors)

    def permuted(self, perm: dict[int, int]) -> "Coloring":
        return Coloring(tuple(perm[c] for c in self.colors))


class Violation(NamedTuple):
    """One failed condition at one vertex: an immutable, hashable named
    tuple (a verifier on a tree coloring may return one per vertex, and
    a tuple is the cheapest record to build).  `color` and `count` are
    None where the kind has none (no_odd_color)."""

    kind: str
    vertex: int
    color: Optional[int] = None
    count: Optional[int] = None


def color_counts(colors: Sequence[int], members: Iterable[int]) -> dict[int, int]:
    """How many of the member vertices carry each color."""
    counts: dict[int, int] = {}
    for u in members:
        c = colors[u]
        counts[c] = counts.get(c, 0) + 1
    return counts


def neighborhood_histogram(g: Graph, phi: Coloring, v: int) -> dict[int, int]:
    """Color counts over the open neighborhood of v."""
    _check_coloring_length(g, phi)
    return color_counts(phi.colors, g.adj[v])


def _same_colored(g: Graph, colors: Sequence[int]) -> dict[int, int]:
    """Per vertex with a same-colored neighbor, how many it has: one
    pass over the edges."""
    same: dict[int, int] = {}
    for u, v in g.edges:
        if colors[u] == colors[v]:
            same[u] = same.get(u, 0) + 1
            same[v] = same.get(v, 0) + 1
    return same


def _proper_violations(colors: Sequence[int], same: dict[int, int]) -> list[Violation]:
    return [Violation(NOT_PROPER, v, colors[v], same[v]) for v in sorted(same)]


def is_proper(g: Graph, phi: Coloring) -> list[Violation]:
    """Empty iff no edge joins two vertices of the same color."""
    _check_coloring_length(g, phi)
    return _proper_violations(phi.colors, _same_colored(g, phi.colors))


def is_strong_odd(g: Graph, phi: Coloring) -> list[Violation]:
    """Proper, and every color present in any open neighborhood has odd
    multiplicity there."""
    _check_coloring_length(g, phi)
    colors = phi.colors
    out, even = [], []
    for v, nbrs in enumerate(g.adj):
        counts = color_counts(colors, nbrs)
        c = colors[v]
        if c in counts:
            out.append(Violation(NOT_PROPER, v, c, counts[c]))
        for cnt in counts.values():  # sort only a histogram with an even count
            if not cnt & 1:
                even.extend(Violation(EVEN_COLOR, v, col, k)
                            for col, k in sorted(counts.items()) if not k & 1)
                break
    return out + even


def is_odd(g: Graph, phi: Coloring) -> list[Violation]:
    """Proper, and every non-isolated vertex sees some color an odd
    number of times."""
    _check_coloring_length(g, phi)
    colors = phi.colors
    out, no_odd = [], []
    for v, nbrs in enumerate(g.adj):
        counts = color_counts(colors, nbrs)
        c = colors[v]
        if c in counts:
            out.append(Violation(NOT_PROPER, v, c, counts[c]))
        if counts:
            for cnt in counts.values():
                if cnt & 1:
                    break
            else:
                no_odd.append(Violation(NO_ODD_COLOR, v))
    return out + no_odd


def is_square_coloring(g: Graph, phi: Coloring) -> list[Violation]:
    """Proper on the square of g.  Distance-2 conflicts are reported with
    their own kind so they are distinguishable from plain edge conflicts.

    A vertex's clashes are the color-c(v) groups among its neighbors'
    neighborhoods, minus v and N(v); each such group holds v, so only
    groups of two or more are built.  One loop buckets a neighborhood by
    color, and a neighborhood whose buckets all have one member is
    skipped.  Groups with the same members are kept once (the leaves of
    K_{2,n} would otherwise lie in two groups of n).  When v lies in one
    distinct group and has no same-colored neighbor, its count is the
    group's size less one, with no set built.
    """
    _check_coloring_length(g, phi)
    colors = phi.colors
    same = _same_colored(g, colors)
    groups_of: dict[int, list[frozenset[int]]] = {}
    seen: set[frozenset[int]] = set()
    for nbrs in g.adj:
        if len(nbrs) < 2:
            continue
        by_color: dict[int, list[int]] = {}
        for w in nbrs:
            c = colors[w]
            if c in by_color:
                by_color[c].append(w)
            else:
                by_color[c] = [w]
        if len(by_color) == len(nbrs):
            continue
        for members in by_color.values():
            if len(members) > 1:
                group = frozenset(members)
                if group not in seen:
                    seen.add(group)
                    for w in group:
                        if w in groups_of:
                            groups_of[w].append(group)
                        else:
                            groups_of[w] = [group]
    clash = []
    for v in sorted(groups_of):
        groups = groups_of[v]
        if len(groups) == 1 and v not in same:
            clash.append(Violation(DISTANCE2_CLASH, v, colors[v], len(groups[0]) - 1))
            continue
        far = set().union(*groups)
        far.discard(v)
        cnt = len(far - g.adj[v])
        if cnt:
            clash.append(Violation(DISTANCE2_CLASH, v, colors[v], cnt))
    return _proper_violations(colors, same) + clash


def coloring_to_json_dict(phi: Coloring) -> dict:
    return {"colors": list(phi.colors)}


def coloring_from_json_dict(data: dict) -> Coloring:
    try:
        colors = data["colors"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coloring JSON: {exc}") from exc
    # type(), not isinstance: JSON true and false are no colors
    if not isinstance(colors, list) or not set(map(type, colors)) <= {int}:
        raise ValueError("colors must be a list of integers")
    return Coloring(tuple(colors))


def load_coloring(path) -> Coloring:
    """The coloring in a JSON file; ValueError if it is malformed."""
    return coloring_from_json_dict(_read_json(path, ValueError))
