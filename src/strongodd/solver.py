"""Exact coloring search with certified optimality under a budget.

One backtracking engine drives all parameters.  It colors vertices in a
fixed order (descending degree, ties by id) under the canonical color
rule: a vertex may take color c only if c <= 1 + the largest color used
on earlier vertices.  Parity requirements are expressed as *scopes*,
vertex sets on which every used color must appear an odd number of
times (open neighborhoods for strong odd colorings, face boundaries for
facially odd ones).  Pruning:

  (a) a vertex never repeats a color of a colored neighbor;
  (b) once the last vertex of a scope is colored, the scope's full
      parity condition is checked;
  (c) if some color has a positive even count in a scope and no
      uncolored member of the scope can still legally take it, the
      branch is abandoned.

Rule (c) only fires when no legal completion exists, so a completed
search at some k is a proof that no k-coloring exists.

Vertex sets and scope sets are Python ints used as bitsets (bit v is
vertex v, bit s is scope s), and color sets are ints with bit c for
color c.  The search state is indexed by color only:

  blocked[c]   the vertices with a neighbor colored c;
  used_in[c]   the scopes in which c is present;
  odd_in[c]    the scopes in which c has an odd count;
  uncolored    the vertices not yet colored.

Coloring v with c, and undoing it, touch only blocked[c], used_in[c],
odd_in[c] and uncolored: O(1) big-int operations, with no loop over
v's scopes.  Parity is an XOR toggle.  The scopes in which color e has
a positive even count are ``used_in[e] & ~odd_in[e]``, and the fixers
of e, the uncolored vertices with no neighbor colored e, are
``uncolored & ~blocked[e]``.

Rule (a) is the bit test ``blocked[c] >> v``.  It runs once when the
search enters a depth: the colors v may take there (not blocked, at
most 1 + the largest color used so far) form the mask of v's legal
colors, which the search tries in ascending order.

The vertex order is static, so the scopes whose last member is the
vertex at depth pos form a mask ``closing[pos]``, built once per
instance.  These are the scopes that rule (b) checks at that depth.
Under EXISTS_ODD (some color odd in every scope; rule (c) does not
apply) a closing scope must lie in ``odd_in[e]`` for some color e.
Under ALL_ODD rule (b) is the case of rule (c) with no uncolored
member left: a closed scope with an even color has no fixer.

Coloring v with c changes a scope's counts and uncolored members only
if v is in it, and its fixers only if it holds a neighbor of v, and
then only the fixers of c.  Every scope with an uncolored member passed
rule (c) before the assignment.  So in v's own scopes only v's legal
colors at this depth need the test, c among them: any other color e
was blocked for v (a color above the legal range is unused), so v was
not a fixer of e, and e's counts and fixers there did not change.  In a
scope that closes at v, v was the only uncolored member and hence the
only possible fixer, so no such e is even there either.  In the other
scopes touching N(v) only c can fail, in the set ``used_in[c] &
~odd_in[c] & others[v]``.  This prunes exactly the nodes that testing
every color of every scope would, so node counts do not depend on it.
The per-vertex masks are built once per instance and reused for every
k.

The depth-first search keeps an explicit stack: per depth v's legal
colors, those not tried yet, the largest color used so far, and the
``blocked[c]`` and ``used_in[c]`` to restore on undo.  Input size is
therefore not limited by the interpreter's recursion depth.

Solves and decisions are split into the components of the conflict
relation: two vertices are joined when they are adjacent or share a
scope.  Properness and parity constrain one edge or one scope each, so
no constraint crosses a component, and a coloring of the instance is a
coloring of each component; with one palette the colorings sit side by
side.  run(k) allows up to k colors, so the instance is k-colorable iff
every component is, and every parameter is the maximum over the
components.  A connected instance is searched with the masks built
from its own input, so its node counts and witnesses are those of one
search.  Each component of a disconnected one is searched on its
vertices relabeled in ascending order.

The components are visited hardest clique bound first, ties to the
smallest vertex, and each one's ascending search starts at max(its
clique bound, the best value so far) and stops at its first YES: k below
the best value cannot change the maximum, and a YES there only shows
that the component needs no more.  One node count and one elapsed time
run across all components, through run()'s nodes_used and time_used.
When a component runs out of budget at k, it and every later component
are colored greedily and not searched.  Every k from the component's
start up to k - 1 was refuted, so the instance needs at least k: lo,
the largest final k of the components searched, is a lower bound.  hi
is the largest number of colors among the YES witnesses and greedy
colorings, which the side-by-side witness uses, and the answer is
optimal when lo == hi.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .colorings import Coloring, is_strong_odd
from .graphs import Graph, square

ALL_ODD = "all_odd"
EXISTS_ODD = "exists_odd"

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass
class Budget:
    """Search limits; exceeding either aborts with status "unknown"."""

    max_nodes: int = 10**8
    max_time: float = 60.0

    def __post_init__(self):
        for name in ("max_nodes", "max_time"):
            if not getattr(self, name) >= 0:  # also rejects nan
                raise ValueError(f"{name} must be nonnegative")


@dataclass
class DecisionResult:
    status: str  # yes / no / unknown
    witness: Optional[Coloring]
    nodes_explored: int
    elapsed: float


@dataclass
class SolveResult:
    """Outcome of an ascending-k exact solve.

    Every k below lo is refuted, by a completed search or by the clique
    lower bound.  When every component's search finds a coloring, value
    = lo = hi, optimal is True and witness uses value colors.  When the
    budget runs out at lo, the component that gave up and every
    component after it are colored greedily on the conflict graph
    (adjacency plus every scope as a clique): proper and rainbow on
    every scope, so the witness satisfies the parameter with hi =
    witness.k colors.  value is then None and optimal False, unless hi
    equals lo, which makes the witness optimal.
    """

    value: Optional[int]
    witness: Coloring
    optimal: bool
    nodes_explored: int
    elapsed: float
    lo: int
    hi: int


def _bits(items) -> int:
    """The bitset of a collection of small nonnegative ints."""
    mask = 0
    for i in items:
        mask |= 1 << i
    return mask


def _members(mask):
    """The set bits of a bitset, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _or(masks) -> int:
    """The union of a collection of bitsets."""
    out = 0
    for m in masks:
        out |= m
    return out


class _ParitySearch:
    """The search for one instance (graph, scopes, mode); run() decides
    one k.  The masks built here depend on the instance only."""

    def __init__(self, n, adj, scopes, mode):
        self.n = n
        self.mode = mode
        self.order = order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
        self.nbr = [_bits(a) for a in adj]
        self.smask = [_bits(s) for s in scopes]
        self.vsmask = vsmask = [0] * n
        # closing[pos]: the scopes whose last member in the order is order[pos]
        self.closing = closing = [0] * n
        rank = [0] * n
        for pos, v in enumerate(order):
            rank[v] = pos
        for sid, members in enumerate(scopes):
            for v in members:
                vsmask[v] |= 1 << sid
            if members:
                closing[max(rank[v] for v in members)] |= 1 << sid
        # the scopes of v's neighbors that do not contain v
        self.others = [_or(vsmask[u] for u in a) & ~vsmask[v] for v, a in enumerate(adj)]

    def clique_bound(self) -> int:
        """Size of the largest clique grown greedily from each of the
        first 16 vertices of the search order, always adding the
        candidate with the most neighbors among the candidates (ties to
        the smaller id); a lower bound for every parameter."""
        nbr = self.nbr
        best = 1
        for s in self.order[:16]:
            size = 1
            cand = nbr[s]
            while cand:
                pick, most = -1, -1
                rest = cand
                while rest:
                    low = rest & -rest
                    x = low.bit_length() - 1
                    d = (nbr[x] & cand).bit_count()
                    if d > most:
                        pick, most = x, d
                    rest ^= low
                size += 1
                cand &= nbr[pick]
            best = max(best, size)
        return best

    def _conflicts(self) -> list:
        """Per vertex v, the vertices that may not share v's color in a
        coloring that is proper and rainbow on every scope: v's
        neighbors and the other members of v's scopes."""
        return [
            (self.nbr[v] | _or(self.smask[sid] for sid in _members(vs))) & ~(1 << v)
            for v, vs in enumerate(self.vsmask)
        ]

    def components(self) -> list:
        """The vertex bitsets of the components of the conflict
        relation, in ascending order of their smallest vertex."""
        conflict = self._conflicts()
        out = []
        left = (1 << self.n) - 1
        while left:
            comp = frontier = left & -left
            while frontier:
                frontier = _or(conflict[v] for v in _members(frontier)) & ~comp
                comp |= frontier
            out.append(comp)
            left &= ~comp
        return out

    def greedy(self) -> Coloring:
        """First-fit coloring of the conflict graph, largest conflict
        degree first: proper and rainbow on every scope, so it meets
        every mode's parity condition."""
        conflict = self._conflicts()
        classes = []
        color = [0] * self.n
        for v in sorted(range(self.n), key=lambda v: (-conflict[v].bit_count(), v)):
            for c, members in enumerate(classes):
                if not members & conflict[v]:
                    classes[c] |= 1 << v
                    break
            else:
                c = len(classes)
                classes.append(1 << v)
            color[v] = c
        return Coloring(tuple(color))

    def run(self, k, budget: Budget, nodes_used=0, time_used=0.0) -> DecisionResult:
        start = time.monotonic()
        node_cap = budget.max_nodes - nodes_used
        deadline = start + max(0.0, budget.max_time - time_used)
        n, order, nbr = self.n, self.order, self.nbr
        smask, vsmask, others, closing = self.smask, self.vsmask, self.others, self.closing
        check_c = self.mode == ALL_ODD and bool(smask)
        blocked = [0] * k
        used_in = [0] * k
        odd_in = [0] * k
        uncolored = (1 << n) - 1
        color = [0] * n
        # per depth: v's legal colors, those not tried yet, the largest
        # color on earlier vertices, and blocked[c] and used_in[c] before
        # the assignment; depth 0 may only take color 0
        legal = [1] * n
        todo = [1] * n
        top = [-1] * n
        saved_blocked = [0] * n
        saved_used = [0] * n
        nodes = 0
        pos = 0
        while pos < n:
            v = order[pos]
            cand = todo[pos]
            if cand:
                low = cand & -cand
                todo[pos] = cand ^ low
                c = low.bit_length() - 1
                nodes += 1
                if nodes > node_cap or (
                    nodes % 4096 == 0 and time.monotonic() > deadline
                ):
                    return DecisionResult(UNKNOWN, None, nodes, time.monotonic() - start)
                vs = vsmask[v]
                color[v] = c
                uncolored ^= 1 << v
                saved_blocked[pos] = blocked[c]
                blocked[c] |= nbr[v]
                saved_used[pos] = used_in[c]
                used_in[c] |= vs
                odd_in[c] ^= vs
                pruned = False
                if check_c:
                    # rule (c) for v's legal colors in v's scopes; a closed
                    # scope has no fixer, so this is rule (b) too
                    tests = legal[pos]
                    while tests and not pruned:
                        low = tests & -tests
                        tests ^= low
                        e = low.bit_length() - 1
                        even = used_in[e] & ~odd_in[e] & vs
                        fixers = uncolored & ~blocked[e]
                        while even:
                            low = even & -even
                            if not smask[low.bit_length() - 1] & fixers:
                                pruned = True
                                break
                            even ^= low
                    if not pruned:
                        # rule (c) for c in the other scopes touching N(v)
                        even = used_in[c] & ~odd_in[c] & others[v]
                        fixers = uncolored & ~blocked[c]
                        while even:
                            low = even & -even
                            if not smask[low.bit_length() - 1] & fixers:
                                pruned = True
                                break
                            even ^= low
                elif closing[pos]:
                    # rule (b) under EXISTS_ODD: a closed scope needs an odd color
                    pruned = bool(closing[pos] & ~_or(odd_in))
                if not pruned:
                    pos += 1
                    if pos < n:
                        t = top[pos] = c if c > top[pos - 1] else top[pos - 1]
                        u = order[pos]
                        free = 0
                        for e in range(min(t + 2, k)):  # rule (a)
                            if not blocked[e] >> u & 1:
                                free |= 1 << e
                        legal[pos] = todo[pos] = free
                    continue
            elif pos == 0:
                return DecisionResult(NO, None, nodes, time.monotonic() - start)
            else:
                pos -= 1
                v = order[pos]
                c = color[v]
            # undo v := c at depth pos
            uncolored |= 1 << v
            blocked[c] = saved_blocked[pos]
            used_in[c] = saved_used[pos]
            odd_in[c] ^= vsmask[v]
        return DecisionResult(
            YES, Coloring(tuple(color)), nodes, time.monotonic() - start
        )


def _strong_odd_scopes(g: Graph):
    return [tuple(sorted(g.adj[v])) for v in range(g.n)]


def _parts(n, adj, scopes, mode) -> list:
    """(vertices, search, clique bound) per component of the conflict
    relation, hardest clique bound first, ties to the smallest vertex.
    A connected instance keeps the search built from its own input; a
    component is searched on its vertices relabeled in ascending order,
    with its scopes in their original order and empty scopes dropped."""
    whole = _ParitySearch(n, adj, scopes, mode)
    comps = whole.components()
    if len(comps) == 1:
        searches = [(range(n), whole)]
    else:
        comps = [list(_members(comp)) for comp in comps]
        part_of = [0] * n
        index = [0] * n
        for p, verts in enumerate(comps):
            for i, v in enumerate(verts):
                part_of[v], index[v] = p, i
        part_scopes = [[] for _ in comps]
        for s in scopes:
            if s:
                part_scopes[part_of[s[0]]].append([index[u] for u in s])
        searches = [
            (verts, _ParitySearch(len(verts), [[index[u] for u in adj[v]] for v in verts],
                                  sc, mode))
            for verts, sc in zip(comps, part_scopes)
        ]
    parts = [(verts, search, search.clique_bound()) for verts, search in searches]
    parts.sort(key=lambda part: -part[2])  # stable: components come smallest vertex first
    return parts


def is_k_strong_odd_colorable(
    g: Graph, k: int, budget: Optional[Budget] = None
) -> DecisionResult:
    """Decide whether g has a strong odd k-coloring, one component at a
    time on one budget; the first component that answers NO or runs out
    of budget answers for g."""
    if k < 1:
        raise ValueError("k must be positive")
    budget = budget or Budget()
    start = time.monotonic()
    nodes = 0
    color = [0] * g.n
    for verts, search, _ in _parts(g.n, g.adj, _strong_odd_scopes(g), ALL_ODD):
        res = search.run(k, budget, nodes, time.monotonic() - start)
        nodes += res.nodes_explored
        if res.status != YES:
            return DecisionResult(res.status, None, nodes, time.monotonic() - start)
        for v, c in zip(verts, res.witness.colors):
            color[v] = c
    return DecisionResult(YES, Coloring(tuple(color)), nodes, time.monotonic() - start)


def _solve(n, adj, scopes, mode, budget) -> SolveResult:
    """Ascending-k search per component from max(its clique bound, the
    best value certified so far) to its first feasible k; the witnesses
    sit side by side on one palette.  A budget that runs out leaves the
    bracket lo..hi, with greedy witnesses for the component that gave up
    and every component after it."""
    budget = budget or Budget()
    if n == 0:
        return SolveResult(0, Coloring(()), True, 0, 0.0, 0, 0)
    start = time.monotonic()
    nodes = 0
    color = [0] * n
    lo = hi = 0
    gave_up = False
    for verts, search, bound in _parts(n, adj, scopes, mode):
        if gave_up:
            phi = search.greedy()
        else:
            lo = max(bound, lo)
            while True:
                res = search.run(lo, budget, nodes, time.monotonic() - start)
                nodes += res.nodes_explored
                if res.status != NO:
                    break
                if lo >= search.n:
                    raise AssertionError("search exceeded the trivial upper bound")
                lo += 1
            gave_up = res.status == UNKNOWN
            phi = search.greedy() if gave_up else res.witness
        hi = max(hi, phi.k)
        for v, c in zip(verts, phi.colors):
            color[v] = c
    optimal = lo == hi
    return SolveResult(lo if optimal else None, Coloring(tuple(color)), optimal,
                       nodes, time.monotonic() - start, lo, hi)


def chi_so_exact(g: Graph, budget: Optional[Budget] = None) -> SolveResult:
    """Exact strong odd chromatic number."""
    return _solve(g.n, g.adj, _strong_odd_scopes(g), ALL_ODD, budget)


def chi_exact(g: Graph, budget: Optional[Budget] = None) -> SolveResult:
    return _solve(g.n, g.adj, [], ALL_ODD, budget)


def chi_odd_exact(g: Graph, budget: Optional[Budget] = None) -> SolveResult:
    scopes = [tuple(sorted(g.adj[v])) for v in range(g.n) if g.adj[v]]
    return _solve(g.n, g.adj, scopes, EXISTS_ODD, budget)


def chi_square_exact(g: Graph, budget: Optional[Budget] = None) -> SolveResult:
    return chi_exact(square(g), budget)


def solve_parity_system(
    n: int,
    adj: Sequence[Sequence[int]],
    scopes: Sequence[Sequence[int]],
    budget: Optional[Budget] = None,
) -> SolveResult:
    """Exact minimum over the generic engine (used for facially odd search)."""
    return _solve(n, adj, scopes, ALL_ODD, budget)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_chi_so(g: Graph) -> int:
    """Minimum k over an exhaustive restricted-growth enumeration.

    Independent of the backtracking engine: every canonical coloring with
    at most n colors is generated and handed to the verifier, with no
    pruning beyond properness.
    """
    if g.n > 9:
        raise ValueError("brute force oracle is limited to at most 9 vertices")
    if g.n == 0:
        return 0
    best = g.n  # rainbow always works
    assignment = [0] * g.n

    def rec(v, used):
        nonlocal best
        if v == g.n:
            phi = Coloring(tuple(assignment))
            if not is_strong_odd(g, phi):
                best = min(best, used)
            return
        for c in range(used + 1):
            if any(assignment[u] == c for u in g.adj[v] if u < v):
                continue
            assignment[v] = c
            rec(v + 1, max(used, c + 1))
        return

    rec(0, 0)
    return best
