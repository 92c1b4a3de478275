"""Exact coloring search with certified optimality under a budget.

One backtracking engine drives all parameters.  It colors vertices in a
fixed order (descending degree, ties by id) under the canonical color
rule: a vertex may take color c only if c <= 1 + the largest color used
on earlier vertices.  Parity requirements are expressed as *scopes*,
vertex sets on which every used color must appear an odd number of
times (open neighborhoods for strong odd colorings, face boundaries for
facially odd ones).  A *fixer* of color e in a scope is an uncolored
member of the scope with no neighbor colored e.  Pruning:

  (a) a vertex never repeats a color of a colored neighbor;
  (b) once the last vertex of a scope is colored, the scope's full
      parity condition is checked;
  (c) if some color has a positive even count in a scope and no fixer
      of it is left there, the branch is abandoned;
  (d) under ALL_ODD, if some color e has a positive even count in a
      scope and exactly one fixer w of it is left there, w is colored
      e at once: the forced rule.

Rule (c) only fires when no legal completion exists.  Rule (d) only
removes completions that cannot exist: an odd number of the scope's
uncolored members must still take e to make its count odd, a member
that is not a fixer never can, so w must.  A completed search at some k
is therefore a proof that no k-coloring exists.  Rule (d) is unit
propagation (Davis, Logemann & Loveland 1962), chained to a fixpoint
as in maintaining generalized arc consistency (Bessiere, "Constraint
propagation", 2006): coloring w can leave another pair with one fixer
or none, and the chain goes on until nothing is forced or a pair has no
fixer, which fails the child.  The waiting forced vertices form a
bitset and are colored smallest id first; however they are taken, a
chain that does not fail colors the same vertices the same colors.  A
forced color is always a used color, so the canonical rule and the
largest color used so far do not change.

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
of e are ``uncolored & ~blocked[e]``.

The search branches on the first uncolored vertex v in the order.
Rule (a) is the bit test ``blocked[e] >> v``: the colors v may take
(not blocked, at most 1 + the largest color used so far) form the mask
of v's legal colors, found when the depth is entered, and child c is
v := c, for each legal c in ascending order, tried one at a time.

The vertex order is static, so the scopes whose last member in it is v
form a mask ``closing[v]``, built once per instance.  These are the
scopes that rule (b) checks when v is colored.  Under EXISTS_ODD (some
color odd in every scope; rules (c) and (d) do not apply) a closing
scope must lie in ``odd_in[e]`` for some color e once v is colored, so
child c fails when a closing scope is odd in no color of
``odd_in[c] ^ vs`` and ``odd_in[x]`` for the other used colors x.
Under ALL_ODD rule (b) is the case of rule (c) with no uncolored member
left: a closed scope with an even color has no fixer.

Coloring v with c changes a scope's counts and uncolored members only
if v is in it, and its fixers only if it holds a neighbor of v, and
then only the fixers of c.  So after v := c only these pairs can be
left with one fixer or none: those of v's own scopes vs, and those of
c in the other scopes touching N(v), ``others[v]``; an illegal color e
was blocked for v, so v was not a fixer of e, and e's counts and fixers
there did not change.  Every assignment, child or forced, tests all of
these pairs, so when a depth is entered the chain above it has reached
its fixpoint: every pair with a positive even count has at least two
fixers.  ``others[v]`` is what keeps this invariant: without it a pair
in a scope touching N(v) could lose its last fixers unseen, and the
search returns wrong values.  None of these tests reads the assignment:

  - a legal color e other than c keeps ``used_in[e]``, ``odd_in[e]``
    and ``blocked[e]``; only v leaves ``uncolored``.  So the pairs of
    e in ``used_in[e] & ~odd_in[e] & vs``, with the fixers
    ``(uncolored - v) & ~blocked[e]``, are the same for every child
    other than e, and are tested once, on entry.  By the invariant v
    was one of at least two fixers, so each pair keeps one and no child
    fails here.  A pair with one fixer left makes a *single*: a (color
    e, fixer) pair kept for the depth, whose fixer every child other
    than e forces to e;
  - once v takes c, the even scopes of c in vs are ``odd_in[c] & vs``,
    those in ``others[v]`` keep ``used_in[c] & ~odd_in[c]``, and both
    have the fixers ``(uncolored - v) & ~(blocked[c] | nbr[v])``.  This
    is tested per child, when the child is tried: no fixer prunes it,
    one is forced.

A forced vertex w := e is tested the same way before it is colored:
the pairs of e as for a child, and, since w is no longer a fixer of the
other colors x it could take, the pairs of x in w's scopes with the
fixers ``(uncolored - w) & ~blocked[x]``.  These are the only pairs
whose counts or fixers the assignment changes, so the waiting set is
always exactly the set of vertices left as a pair's one fixer, and a
pair with no fixer shows at the assignment that makes it.  This prunes
and forces exactly what assigning each child and forced vertex and
testing every color of every scope would.  The per-vertex masks are
built once per instance and reused for every k.

The depth-first search keeps an explicit stack: per depth the position
of its vertex in the order, that vertex's legal colors not tried yet,
the largest color used so far, its singles, and the height of the
trail before its assignment.  The trail lists the colored vertices in
assignment order, children and forced vertices alike, each with the
``blocked[c]`` and ``used_in[c]`` to restore on undo; a failed child,
or a depth with no child left, unwinds it to the depth's height.  A
node is one child tried or one forced vertex colored, counted before
its test: a pruned child counts but is never assigned, so it costs no
undo, and a forced assignment that fails its chain counts too.  The
node cap and the clock probes (node 1 and every 4,096 nodes) are
checked at every node, so a give-up stops at the first node past the
cap, inside a chain or not.  Input size is not limited by the
interpreter's recursion depth.

Solves and decisions are split into the components of the conflict
relation: two vertices are joined when they are adjacent or share a
scope.  Properness and parity constrain one edge or one scope each, so
no constraint crosses a component, and a coloring of the instance is a
coloring of each component; with one palette the colorings sit side by
side.  run(k) allows up to k colors, so the instance is k-colorable iff
every component is, and every parameter is the maximum over the
components.  One search is built per instance, and a component is its
vertex list in search order: run() colors just those vertices, on the
instance's masks.  That is the search a copy of the component would
get: the component's order is the instance's order restricted to it
(degrees and the order of ids are its own), its scopes and neighbors
lie inside it, and the vertices outside it stay out of ``uncolored``
and never enter a blocked or used mask, so they take no part in any
test.  The node counts are those of a separate search per component.

The search runs on the implied graph.  Under ALL_ODD each color class
inside a scope is an independent set of odd size, so in a scope whose
induced graph has no independent triple every class has one vertex:
the scope is rainbow in every solution, and its missing pairs are edges
of every solution.  Adding them and repeating on the larger graph until
no scope fires gives the implied graph.  More edges never create an
independent triple, so the fixpoint does not depend on the order in
which scopes are examined.  It is computed once per instance, and
``nbr`` is then the one adjacency the search reads: rule (a)'s blocked
masks and ``others`` are built from it.  Every solution of the instance
is a proper coloring of the implied graph, so the two problems have the
same solutions: a completed search is still a refutation, and a YES is
a proper coloring of a supergraph that passed every parity check.  The
conflict relation does not change, since an implied pair already shares
a scope.  The vertex order stays sorted by the input degrees.
EXISTS_ODD and instances without scopes imply no edges, and their
searches read the input adjacency, ``given``, itself.

Each component's lower bound, from lower_bound(), is the larger of two
greedy cliques, one grown in the input graph and one in the implied
graph; every solution is a proper coloring of both.

The components are visited highest lower bound first, ties to the
smallest vertex, and each one's ascending search starts at max(its
lower bound, the best value so far) and stops at its first YES: k below
the best value cannot change the maximum, and a YES there only shows
that the component needs no more.  A decision at k first takes every
component's lower bound, and answers NO without a search when one of
them exceeds k.  One node count and one deadline run across all
components: the deadline is taken once per solve or decision, and
every run() gets the nodes left and that deadline.  When a component
runs out of budget at k, it and every later component are colored
greedily and not searched.  Every k from the component's start
up to k - 1 was refuted, so the instance needs at least k: lo, the
largest final k of the components searched, is a lower bound.  hi is
the number of colors of the side-by-side witness, the largest among the
YES colorings and greedy colorings, and the answer is optimal when
lo == hi.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
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
    """Search limits; exceeding either aborts with status "unknown".

    A solve or decision takes its deadline, max_time seconds ahead, once
    at entry.  The search reads the clock at the first node of every
    run and then every 4,096 nodes, so max_time=0 stops at the first
    node, and a sequence of searches overruns the deadline by at most
    one probe interval."""

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

    Every k below lo is refuted, by a completed search on the implied
    graph (the input graph plus the pairs of its rainbow scopes, which
    every solution keeps apart) or by the lower bound, the larger greedy
    clique of the input graph and the implied graph.
    When every component's search finds a coloring, value = lo = hi,
    optimal is True and witness uses value colors; with no vertices
    there are no components, and value = lo = hi = 0.  When the budget
    runs out at lo, the component that gave up and every component after
    it are colored greedily on the conflict graph (adjacency plus every
    scope as a clique): proper and rainbow on every scope, so the
    witness satisfies the parameter with hi = witness.k colors.  value
    is then None and optimal False, unless hi equals lo, which makes the
    witness optimal.
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


def _greedy_clique(nbr, part) -> int:
    """Size of the largest clique grown greedily from each of the first
    16 vertices of part, always adding the candidate with the most
    neighbors among the candidates (ties to the smaller id)."""
    best = 1
    for s in part[:16]:
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


def _has_independent_triple(nbr, s, members) -> bool:
    """Whether the vertex set s (members, ascending) holds three
    pairwise nonadjacent vertices."""
    for u in members:
        # the non-neighbors of u in s above u, ascending
        rest = s & ~nbr[u] & -(2 << u)
        while rest:
            low = rest & -rest
            rest ^= low
            if rest & ~nbr[low.bit_length() - 1]:
                return True
    return False


def _rainbow_closure(given, scopes, smask, vsmask) -> list:
    """The adjacency given closed under rainbow scopes, or given itself
    when no scope adds an edge.

    Under ALL_ODD a scope with no independent triple in the graph is
    rainbow in every solution, so its missing pairs are edges of every
    solution; the rule is applied again on the larger graph until
    nothing changes."""
    nbr = list(given)
    grown = False
    # scopes of at most one vertex have no pair to add
    queued = [bool(s & (s - 1)) for s in smask]
    work = [sid for sid, q in enumerate(queued) if q]
    i = 0
    while i < len(work):
        sid = work[i]
        i += 1
        queued[sid] = False
        s = smask[sid]
        members = sorted(set(scopes[sid]))
        size = len(members)
        twice_inside = 0
        for v in members:
            twice_inside += (nbr[v] & s).bit_count()
        missing = size * (size - 1) // 2 - twice_inside // 2
        # Mantel: without an independent triple the missing pairs are
        # triangle-free, so there are at most size**2 // 4 of them
        if not missing or missing > size * size // 4:
            continue
        if size > 2 and _has_independent_triple(nbr, s, members):
            continue
        grown = True
        for j, u in enumerate(members):
            for v in members[j + 1:]:
                if nbr[u] >> v & 1:
                    continue
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
                # only a scope holding both ends can change its answer;
                # sid is one, and it is a clique now
                common = (vsmask[u] & vsmask[v]) ^ (1 << sid)
                while common:
                    low = common & -common
                    t = low.bit_length() - 1
                    common ^= low
                    if not queued[t]:
                        queued[t] = True
                        work.append(t)
    return nbr if grown else given


class _ParitySearch:
    """The search for one instance (graph, scopes, mode); run() decides
    one k on one part of it.  The masks built here depend on the
    instance only: given is the input adjacency, and nbr, the adjacency
    every rule reads, is given closed under rainbow scopes under ALL_ODD
    (given itself when no scope fires, and in the other mode)."""

    def __init__(self, n, adj, scopes, mode):
        self.n = n
        self.mode = mode
        self.order = order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
        self.given = [_bits(a) for a in adj]
        self.smask = smask = [_bits(s) for s in scopes]
        self.vsmask = vsmask = [0] * n
        # closing[v]: the scopes whose last member in the order is v
        self.closing = closing = [0] * n
        rank = [0] * n
        for pos, v in enumerate(order):
            rank[v] = pos
        for sid, members in enumerate(scopes):
            for v in members:
                vsmask[v] |= 1 << sid
            if members:
                closing[max(members, key=rank.__getitem__)] |= 1 << sid
        # the adjacency the search reads
        self.nbr = nbr = (
            _rainbow_closure(self.given, scopes, smask, vsmask) if mode == ALL_ODD else self.given
        )
        # the scopes of v's neighbors that do not contain v
        self.others = [_or(vsmask[u] for u in _members(a)) & ~vsmask[v] for v, a in enumerate(nbr)]
        # want[w]: the color a forced vertex w must take, while it waits
        self.want = [0] * n

    def lower_bound(self, part) -> int:
        """The larger of two cliques, each grown greedily from the first
        16 vertices of part: one in the input graph and one in the
        implied graph the search reads.  The greedy clique of the larger
        graph can be the smaller one, so the bound keeps both.  No
        coloring of part has fewer colors."""
        bound = _greedy_clique(self.given, part)
        if self.nbr is not self.given:
            bound = max(bound, _greedy_clique(self.nbr, part))
        return bound

    @cached_property
    def conflict(self) -> list:
        """Per vertex v, the vertices that may not share v's color in a
        coloring that is proper and rainbow on every scope: v's
        neighbors and the other members of v's scopes."""
        return [
            (self.nbr[v] | _or(self.smask[sid] for sid in _members(vs))) & ~(1 << v)
            for v, vs in enumerate(self.vsmask)
        ]

    def parts(self) -> list:
        """The components of the conflict relation, each a vertex list in
        search order, in ascending order of their smallest vertex."""
        conflict = self.conflict
        part_of = [0] * self.n
        left = (1 << self.n) - 1
        count = 0
        while left:
            comp = frontier = left & -left
            while frontier:
                frontier = _or(conflict[v] for v in _members(frontier)) & ~comp
                comp |= frontier
            for v in _members(comp):
                part_of[v] = count
            count += 1
            left &= ~comp
        out = [[] for _ in range(count)]
        for v in self.order:
            out[part_of[v]].append(v)
        return out

    def greedy(self, part, color) -> None:
        """First-fit coloring of part in the conflict graph, largest
        conflict degree first, written into color: proper and rainbow on
        every scope, so it meets every mode's parity condition."""
        conflict = self.conflict
        classes = []
        for v in sorted(part, key=lambda v: (-conflict[v].bit_count(), v)):
            for c, members in enumerate(classes):
                if not members & conflict[v]:
                    classes[c] |= 1 << v
                    break
            else:
                c = len(classes)
                classes.append(1 << v)
            color[v] = c

    def run(self, k, part, color, node_cap, deadline) -> tuple:
        """Decide whether part (a union of components, as a vertex list
        in search order) has a coloring with at most k colors, within
        node_cap nodes and the time.monotonic() deadline (probed at node
        1 and every 4,096 nodes).  Returns (status, nodes); on YES the
        coloring is written into color at part's vertices."""
        if not part:
            return YES, 0
        # a canonical coloring of part never uses more colors than part
        # has vertices, so the state needs no more than that
        k = min(k, len(part))
        n, nbr = len(part), self.nbr
        smask, vsmask, others, closing = self.smask, self.vsmask, self.others, self.closing
        check_c = self.mode == ALL_ODD and bool(smask)
        want = self.want
        blocked = [0] * k
        used_in = [0] * k
        odd_in = [0] * k
        uncolored = _bits(part)
        # per depth: the position in part of the vertex it branches on,
        # that vertex's legal colors not tried yet, the largest color on
        # earlier vertices, and the trail height before its assignment.
        # The singles of depth d, (color, fixer bit) pairs found when it
        # was entered, are single[ends[d]:ends[d + 1]].  Depth 0 branches
        # on part[0], which may only take color 0, and nothing prunes it
        at = [0] * n
        left = [1] * n
        top = [-1] * n
        mark = [0] * n
        ends = [0] * (n + 1)
        single = []
        # the colored vertices in assignment order, each with blocked[c]
        # and used_in[c] before its assignment
        trail = [0] * n
        saved_blocked = [0] * n
        saved_used = [0] * n
        # the forced vertices waiting to be colored, the smallest first
        pend = 0
        # the next node that reads the clock
        probe = 1
        nodes = d = h = t = 0
        while True:
            # the next node: the smallest forced vertex, else the lowest
            # child of depth d not tried yet
            low = pend & -pend if pend else left[d] & -left[d]
            if low:
                nodes += 1
                if nodes > node_cap:
                    return UNKNOWN, nodes
                if nodes == probe:
                    # the clock is read at node 1 and every 4,096 nodes
                    if time.monotonic() >= deadline:
                        return UNKNOWN, nodes
                    probe += 4096
            if pend:
                # the forced vertex w := e; w leaves the fixers of every
                # other color it could take, in its own scopes
                pend ^= low
                w = low.bit_length() - 1
                e = want[w]
                vs = vsmask[w]
                rest = uncolored ^ low
                bad = False
                for x in range(t + 1):
                    even = used_in[x] & vs & ~odd_in[x]
                    if even and x != e and not blocked[x] >> w & 1:
                        fixers = rest & ~blocked[x]
                        while even:
                            low = even & -even
                            even ^= low
                            f = smask[low.bit_length() - 1] & fixers
                            if not f & (f - 1):
                                if not f:
                                    bad = True
                                    break
                                pend |= f
                                want[f.bit_length() - 1] = x
                        if bad:
                            break
            elif not low:
                if d == 0:
                    return NO, nodes
                # back to the depth above, whose child failed below
                d -= 1
                bad = True
            else:
                # the child w := e
                left[d] ^= low
                w = part[at[d]]
                e = low.bit_length() - 1
                vs = vsmask[w]
                t = top[d] if top[d] > e else e
                bad = False
                if check_c:
                    rest = uncolored ^ (1 << w)
                    # the singles of the other colors, found on entry:
                    # each one's fixer must take that color now
                    i, j = ends[d], ends[d + 1]
                    while i < j:
                        if single[i] != e:
                            f = single[i + 1]
                            pend |= f
                            want[f.bit_length() - 1] = single[i]
                        i += 2
                elif closing[w]:
                    # rule (b) under EXISTS_ODD: every scope w closes must
                    # be odd in some color once w takes e
                    odd = odd_in[e] ^ vs
                    for x in range(top[d] + 1):
                        if x != e:
                            odd |= odd_in[x]
                    bad = closing[w] & ~odd != 0
            if check_c and not bad:
                # e itself once w takes it: e is even in w's scopes where
                # it is odd now, and in the other scopes touching N(w)
                # where it is even now; w's color blocks its neighbors.
                # No fixer left fails the child, one is forced
                even = odd_in[e] & vs | used_in[e] & others[w] & ~odd_in[e]
                if even:
                    fixers = rest & ~(blocked[e] | nbr[w])
                    while even:
                        low = even & -even
                        even ^= low
                        f = smask[low.bit_length() - 1] & fixers
                        if not f & (f - 1):
                            if not f:
                                bad = True
                                break
                            pend |= f
                            want[f.bit_length() - 1] = e
            if bad:
                # the child fails: undo its assignment, if it was made,
                # and those its chain forced
                pend = 0
                m = mark[d]
                while h > m:
                    h -= 1
                    w = trail[h]
                    e = color[w]
                    uncolored |= 1 << w
                    blocked[e] = saved_blocked[h]
                    used_in[e] = saved_used[h]
                    odd_in[e] ^= vsmask[w]
                continue
            color[w] = e
            uncolored ^= 1 << w
            trail[h] = w
            saved_blocked[h] = blocked[e]
            blocked[e] |= nbr[w]
            saved_used[h] = used_in[e]
            used_in[e] |= vs
            odd_in[e] ^= vs
            h += 1
            if pend:
                continue
            # the chain is done: branch on the next uncolored vertex
            p = at[d] + 1
            if check_c:
                while p < n and not uncolored >> part[p] & 1:
                    p += 1
            if p == n:
                return YES, nodes
            d += 1
            at[d] = p
            top[d] = t
            mark[d] = h
            # enter the depth: u's legal colors, and under ALL_ODD the
            # singles of u's scopes (see the module docstring)
            u = part[p]
            if check_c:
                vs = vsmask[u]
                rest = uncolored ^ (1 << u)
                del single[ends[d]:]
            else:
                vs = 0
            free = 0
            for e in range(min(t + 2, k)):
                if blocked[e] >> u & 1:  # rule (a)
                    continue
                free |= 1 << e
                # each pair of e keeps a fixer besides u (the fixpoint
                # invariant), and one with just one is a single: its
                # fixer must take e unless u does
                even = used_in[e] & vs & ~odd_in[e]
                if even:
                    fixers = rest & ~blocked[e]
                    while even:
                        low = even & -even
                        even ^= low
                        f = smask[low.bit_length() - 1] & fixers
                        if not f & (f - 1):
                            single.append(e)
                            single.append(f)
            left[d] = free
            ends[d + 1] = len(single)


def _strong_odd_scopes(g: Graph):
    return [tuple(sorted(g.adj[v])) for v in range(g.n)]


def is_k_strong_odd_colorable(
    g: Graph, k: int, budget: Optional[Budget] = None
) -> DecisionResult:
    """Decide whether g has a strong odd k-coloring, one component at a
    time on one budget; the first component that answers NO or runs out
    of budget answers for g.  When some component's lower bound exceeds
    k the answer is NO, with no search."""
    if not isinstance(k, int):
        raise ValueError(f"k must be an int, not {type(k).__name__}")
    if k < 1:
        raise ValueError("k must be positive")
    budget = budget or Budget()
    start = time.monotonic()
    deadline = start + budget.max_time
    status, nodes = YES, 0
    color = [0] * g.n
    search = _ParitySearch(g.n, g.adj, _strong_odd_scopes(g), ALL_ODD)
    parts = search.parts()
    if any(search.lower_bound(part) > k for part in parts):
        status = NO
    else:
        for part in parts:
            status, used = search.run(k, part, color, budget.max_nodes - nodes, deadline)
            nodes += used
            if status != YES:
                break
    witness = Coloring(tuple(color)) if status == YES else None
    return DecisionResult(status, witness, nodes, time.monotonic() - start)


def _solve(n, adj, scopes, mode, budget) -> SolveResult:
    """Ascending-k search per component, highest lower bound first,
    from max(its lower bound, the best value certified so far) to its
    first feasible k; the colorings sit side by side on one palette.  A
    budget that runs out leaves the bracket lo..hi, with greedy
    colorings for the component that gave up and every component after
    it.  No components (n = 0) give lo = hi = 0."""
    budget = budget or Budget()
    start = time.monotonic()
    deadline = start + budget.max_time
    nodes = 0
    color = [0] * n
    lo = 0
    gave_up = False
    search = _ParitySearch(n, adj, scopes, mode)
    parts = [(search.lower_bound(part), part) for part in search.parts()]
    parts.sort(key=lambda bp: -bp[0])  # stable: components come smallest vertex first
    for bound, part in parts:
        if not gave_up:
            lo = max(bound, lo)
            while True:
                status, used = search.run(lo, part, color, budget.max_nodes - nodes, deadline)
                nodes += used
                if status != NO:
                    break
                if lo >= len(part):
                    raise AssertionError("search exceeded the trivial upper bound")
                lo += 1
            gave_up = status == UNKNOWN
        if gave_up:
            search.greedy(part, color)
    witness = Coloring(tuple(color))
    optimal = lo == witness.k
    return SolveResult(lo if optimal else None, witness, optimal,
                       nodes, time.monotonic() - start, lo, witness.k)


def chi_so_exact(g: Graph, budget: Optional[Budget] = None) -> SolveResult:
    """Exact strong odd chromatic number."""
    return _solve(g.n, g.adj, _strong_odd_scopes(g), ALL_ODD, budget)


def chi_exact(g: Graph, budget: Optional[Budget] = None) -> SolveResult:
    return _solve(g.n, g.adj, [], ALL_ODD, budget)


def chi_odd_exact(g: Graph, budget: Optional[Budget] = None) -> SolveResult:
    # an isolated vertex's empty scope closes nowhere and holds no vertex,
    # so under EXISTS_ODD it constrains nothing
    return _solve(g.n, g.adj, _strong_odd_scopes(g), EXISTS_ODD, budget)


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


def reference_coloring(n, adj, scopes, k) -> Optional[Coloring]:
    """A coloring of (n, adj) with at most k colors in which every color
    is odd or absent in every scope, or None when there is none.

    The second oracle, for instances beyond brute_force_chi_so's reach:
    a plain backtracking search over canonical colorings with only the
    two trivially sound rules.  (a) A vertex never takes the color of an
    earlier neighbor; (b) a scope's parity is checked once its last
    vertex is colored.  The order is descending degree, ties by id, so
    that scopes close early.  No bounds, components, implied edges or
    rule (c), and no code shared with the engine.
    """
    if n > 20:
        raise ValueError("reference oracle is limited to at most 20 vertices")
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    rank = [0] * n
    for i, v in enumerate(order):
        rank[v] = i
    earlier = [[u for u in adj[v] if rank[u] < rank[v]] for v in order]
    closing = [[] for _ in range(n)]
    for s in scopes:
        if s:
            closing[max(rank[u] for u in s)].append(s)
    color = [0] * n

    def all_odd(s):
        # bit c of odd: color c appears an odd number of times in s
        odd = used = 0
        for u in s:
            odd ^= 1 << color[u]
            used |= 1 << color[u]
        return odd == used

    def extend(i, used):
        if i == n:
            return True
        v = order[i]
        for c in range(min(used + 1, k)):
            if any(color[u] == c for u in earlier[i]):
                continue
            color[v] = c
            if all(all_odd(s) for s in closing[i]) and extend(i + 1, max(used, c + 1)):
                return True
        return False

    return Coloring(tuple(color)) if extend(0, 0) else None


def reference_value(n, adj, scopes) -> tuple:
    """(the least k with a reference_coloring, that coloring), k
    ascending from 1; n = 0 gives (0, the empty coloring)."""
    if n == 0:
        return 0, Coloring(())
    k = 1
    while (phi := reference_coloring(n, adj, scopes, k)) is None:
        k += 1
    return k, phi
