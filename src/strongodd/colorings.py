"""Vertex colorings and the four verifier predicates.

Colors are 0-based ids.  Verifiers never mutate and collect every
violation rather than failing fast, so tests can assert exact violation
sets.  An empty report means the predicate holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import Graph

NOT_PROPER = "not_proper"
EVEN_COLOR = "even_color_in_neighborhood"
NO_ODD_COLOR = "no_odd_color"
DISTANCE2_CLASH = "distance2_clash"


@dataclass(frozen=True)
class Coloring:
    """A total assignment of color ids to vertices."""

    colors: tuple[int, ...]

    def __post_init__(self):
        for c in self.colors:
            if c < 0:
                raise ValueError(f"negative color id {c}")

    @property
    def k(self) -> int:
        """Number of colors: one plus the largest id actually used."""
        return max(self.colors) + 1 if self.colors else 0

    def __len__(self) -> int:
        return len(self.colors)

    def permuted(self, perm: dict[int, int]) -> "Coloring":
        return Coloring(tuple(perm[c] for c in self.colors))


@dataclass(frozen=True)
class Violation:
    kind: str
    vertex: int
    color: Optional[int] = None
    count: Optional[int] = None


def _check_length(g: Graph, phi: Coloring) -> None:
    if len(phi) != g.n:
        raise ValueError(f"coloring length {len(phi)} does not match n={g.n}")


def color_counts(colors: Sequence[int], members: Iterable[int]) -> dict[int, int]:
    """How many of the member vertices carry each color."""
    counts: dict[int, int] = {}
    for u in members:
        c = colors[u]
        counts[c] = counts.get(c, 0) + 1
    return counts


def neighborhood_histogram(g: Graph, phi: Coloring, v: int) -> dict[int, int]:
    """Color counts over the open neighborhood of v."""
    _check_length(g, phi)
    return color_counts(phi.colors, g.adj[v])


def is_proper(g: Graph, phi: Coloring) -> list[Violation]:
    """Empty iff no edge joins two vertices of the same color."""
    _check_length(g, phi)
    colors = phi.colors
    out = []
    for v in range(g.n):
        c = colors[v]
        same = sum(1 for u in g.adj[v] if colors[u] == c)
        if same:
            out.append(Violation(NOT_PROPER, v, c, same))
    return out


def is_strong_odd(g: Graph, phi: Coloring) -> list[Violation]:
    """Proper, and every color present in any open neighborhood has odd
    multiplicity there."""
    _check_length(g, phi)
    colors = phi.colors
    out, even = [], []
    for v in range(g.n):
        c = colors[v]
        counts = color_counts(colors, g.adj[v])
        if c in counts:
            out.append(Violation(NOT_PROPER, v, c, counts[c]))
        for col, cnt in sorted(counts.items()):
            if cnt % 2 == 0:
                even.append(Violation(EVEN_COLOR, v, col, cnt))
    return out + even


def is_odd(g: Graph, phi: Coloring) -> list[Violation]:
    """Proper, and every non-isolated vertex sees some color an odd
    number of times."""
    _check_length(g, phi)
    colors = phi.colors
    out, no_odd = [], []
    for v in range(g.n):
        c = colors[v]
        counts = color_counts(colors, g.adj[v])
        if c in counts:
            out.append(Violation(NOT_PROPER, v, c, counts[c]))
        if counts and all(cnt % 2 == 0 for cnt in counts.values()):
            no_odd.append(Violation(NO_ODD_COLOR, v))
    return out + no_odd


def is_square_coloring(g: Graph, phi: Coloring) -> list[Violation]:
    """Proper on the square of g.  Distance-2 conflicts are reported with
    their own kind so they are distinguishable from plain edge conflicts."""
    out = is_proper(g, phi)
    colors = phi.colors
    for v in range(g.n):
        c = colors[v]
        nbrs = g.adj[v]
        far = {w for u in nbrs for w in g.adj[u] if colors[w] == c}
        far.discard(v)
        clash = len(far - nbrs)
        if clash:
            out.append(Violation(DISTANCE2_CLASH, v, c, clash))
    return out


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
    with open(path) as fh:
        data = json.load(fh)
    return coloring_from_json_dict(data)
