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


class _BudgetExceeded(Exception):
    pass


@dataclass
class DecisionResult:
    status: str  # yes / no / unknown
    witness: Optional[Coloring]
    nodes_explored: int
    elapsed: float


@dataclass
class SolveResult:
    """Outcome of an ascending-k exact solve.

    value/witness are None when the budget ran out before any feasible k
    was found; lo..hi is the surviving bracket either way.  optimal is
    True only if the search at value-1 ran to completion with no
    solution.
    """

    value: Optional[int]
    witness: Optional[Coloring]
    optimal: bool
    nodes_explored: int
    elapsed: float
    lo: int
    hi: Optional[int]


class _ParitySearch:
    def __init__(self, n, adj, scopes, mode, k, order=None):
        self.n = n
        self.k = k
        self.mode = mode
        self.adj = [sorted(a) for a in adj]
        self.scopes = [tuple(s) for s in scopes]
        self.vscopes = [[] for _ in range(n)]
        for sid, members in enumerate(self.scopes):
            for v in members:
                self.vscopes[v].append(sid)
        if order is None:
            order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
        self.order = order
        # pcount[v][c]: colored neighbors of v with color c (properness)
        self.pcount = [[0] * k for _ in range(n)]
        # scount[s][c]: colored members of scope s with color c
        self.scount = [[0] * k for _ in self.scopes]
        self.s_uncolored = [len(s) for s in self.scopes]
        self.s_evens = [0] * len(self.scopes)  # colors with positive even count
        self.s_odds = [0] * len(self.scopes)
        self.color = [-1] * n
        self.nodes = 0
        self.deadline = None
        self.node_cap = None
        self.start = 0.0

    def _scope_ok_final(self, sid):
        if self.mode == ALL_ODD:
            return self.s_evens[sid] == 0
        return not self.scopes[sid] or self.s_odds[sid] > 0

    def _has_fixer(self, sid, c):
        pc = self.pcount
        col = self.color
        for w in self.scopes[sid]:
            if col[w] < 0 and pc[w][c] == 0:
                return True
        return False

    def _assign(self, v, c):
        self.color[v] = c
        for u in self.adj[v]:
            self.pcount[u][c] += 1
        dirty = []
        for sid in self.vscopes[v]:
            sc = self.scount[sid]
            sc[c] += 1
            if sc[c] % 2 == 0:
                self.s_evens[sid] += 1
                self.s_odds[sid] -= 1
            else:
                if sc[c] > 1:
                    self.s_evens[sid] -= 1
                self.s_odds[sid] += 1
            self.s_uncolored[sid] -= 1
            dirty.append(sid)
        return dirty

    def _undo(self, v, c):
        self.color[v] = -1
        for u in self.adj[v]:
            self.pcount[u][c] -= 1
        for sid in self.vscopes[v]:
            sc = self.scount[sid]
            if sc[c] % 2 == 0:
                self.s_evens[sid] -= 1
                self.s_odds[sid] += 1
            else:
                if sc[c] > 1:
                    self.s_evens[sid] += 1
                self.s_odds[sid] -= 1
            sc[c] -= 1
            self.s_uncolored[sid] += 1

    def _prune_after(self, v, dirty):
        # rule (b): fully colored scopes must satisfy the parity predicate
        for sid in dirty:
            if self.s_uncolored[sid] == 0 and not self._scope_ok_final(sid):
                return True
        if self.mode != ALL_ODD or not self.scopes:
            return False
        # rule (c): a pending even color must keep a possible fixer.  The
        # assignment can consume fixers in any scope touching v or its
        # neighbors, so those scopes are rechecked.
        seen = set(dirty)
        check = list(dirty)
        for u in self.adj[v]:
            for sid in self.vscopes[u]:
                if sid not in seen:
                    seen.add(sid)
                    check.append(sid)
        for sid in check:
            if self.s_evens[sid] == 0 or self.s_uncolored[sid] == 0:
                continue
            sc = self.scount[sid]
            for c in range(self.k):
                if sc[c] > 0 and sc[c] % 2 == 0 and not self._has_fixer(sid, c):
                    return True
        return False

    def run(self, budget: Budget, nodes_used=0, time_used=0.0):
        self.start = time.monotonic()
        self.node_cap = budget.max_nodes - nodes_used
        self.deadline = self.start + max(0.0, budget.max_time - time_used)
        try:
            witness = self._search(0, -1)
        except _BudgetExceeded:
            return DecisionResult(
                UNKNOWN, None, self.nodes, time.monotonic() - self.start
            )
        elapsed = time.monotonic() - self.start
        if witness is None:
            return DecisionResult(NO, None, self.nodes, elapsed)
        return DecisionResult(YES, Coloring(tuple(witness)), self.nodes, elapsed)

    def _search(self, pos, max_used):
        if pos == self.n:
            return list(self.color)
        v = self.order[pos]
        limit = min(max_used + 1, self.k - 1)
        pcv = self.pcount[v]
        for c in range(limit + 1):
            if pcv[c]:
                continue
            self.nodes += 1
            if self.nodes > self.node_cap:
                raise _BudgetExceeded
            if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
                raise _BudgetExceeded
            dirty = self._assign(v, c)
            if not self._prune_after(v, dirty):
                found = self._search(pos + 1, max(max_used, c))
                if found is not None:
                    self._undo(v, c)
                    return found
            self._undo(v, c)
        return None


def _strong_odd_scopes(g: Graph):
    return [tuple(sorted(g.adj[v])) for v in range(g.n)]


def is_k_strong_odd_colorable(
    g: Graph, k: int, budget: Optional[Budget] = None
) -> DecisionResult:
    """Decide whether g has a strong odd k-coloring."""
    if k < 1:
        raise ValueError("k must be positive")
    budget = budget or Budget()
    search = _ParitySearch(g.n, g.adj, _strong_odd_scopes(g), ALL_ODD, k)
    return search.run(budget)


def greedy_clique_lower_bound(g: Graph) -> int:
    """Size of a greedily grown clique; a valid lower bound for chi and
    everything above it in the parameter chain."""
    if g.n == 0:
        return 0
    best = 1
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for s in order[: min(g.n, 16)]:
        clique = [s]
        cand = set(g.adj[s])
        while cand:
            x = min(cand, key=lambda v: (-len(g.adj[v] & cand), v))
            clique.append(x)
            cand &= g.adj[x]
        best = max(best, len(clique))
    return best


def _solve(n, adj, scopes, mode, lo, budget) -> SolveResult:
    """Ascending-k search; first feasible k with all smaller k refuted
    (a rainbow coloring caps k at n)."""
    budget = budget or Budget()
    if n == 0:
        return SolveResult(0, Coloring(()), True, 0, 0.0, 0, 0)
    start = time.monotonic()
    nodes = 0
    k = max(1, lo)
    while True:
        search = _ParitySearch(n, adj, scopes, mode, k)
        res = search.run(budget, nodes, time.monotonic() - start)
        nodes += res.nodes_explored
        elapsed = time.monotonic() - start
        if res.status == YES:
            return SolveResult(k, res.witness, True, nodes, elapsed, k, k)
        if res.status == UNKNOWN:
            return SolveResult(None, None, False, nodes, elapsed, k, n)
        k += 1
        if k > n:
            raise AssertionError("search exceeded the trivial upper bound")


def chi_so_exact(g: Graph, budget: Optional[Budget] = None) -> SolveResult:
    """Exact strong odd chromatic number."""
    return _solve(g.n, g.adj, _strong_odd_scopes(g), ALL_ODD,
                  greedy_clique_lower_bound(g), budget)


def chi_exact(g: Graph, budget: Optional[Budget] = None) -> SolveResult:
    return _solve(g.n, g.adj, [], ALL_ODD, greedy_clique_lower_bound(g), budget)


def chi_odd_exact(g: Graph, budget: Optional[Budget] = None) -> SolveResult:
    scopes = [tuple(sorted(g.adj[v])) for v in range(g.n) if g.adj[v]]
    return _solve(g.n, g.adj, scopes, EXISTS_ODD, greedy_clique_lower_bound(g), budget)


def chi_square_exact(g: Graph, budget: Optional[Budget] = None) -> SolveResult:
    return chi_exact(square(g), budget)


def solve_parity_system(
    n: int,
    adj: Sequence[Sequence[int]],
    scopes: Sequence[Sequence[int]],
    budget: Optional[Budget] = None,
    lo: int = 1,
) -> SolveResult:
    """Exact minimum over the generic engine (used for facially odd search)."""
    return _solve(n, [frozenset(a) for a in adj], scopes, ALL_ODD, lo, budget)


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
