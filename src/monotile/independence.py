"""Exact maximum independent set and triangle-freeness checks.

These are the oracles behind the extremal generators: part graphs must be
triangle-free, and their achieved independence numbers are reported on every
instance.  The solver is a plain branch-and-bound on bitmasks with a greedy
clique-cover bound, which is plenty at part sizes of a few dozen vertices.
Its nodes are (candidate mask, chosen mask) pairs on `graphs.DepthFirst`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import DepthFirst, Graph, iter_bits


@dataclass(frozen=True)
class IndependenceResult:
    alpha: int
    witness: frozenset[int]
    exact: bool
    nodes_expanded: int


def is_triangle_free(g: Graph) -> bool:
    """True iff no edge's endpoints share a neighbor."""
    for u, v in g.edges:
        if g.neighbors_mask(u) & g.neighbors_mask(v):
            return False
    return True


def max_independent_set_exact(g: Graph, budget: Optional[int] = None) -> IndependenceResult:
    """Maximum independent set by branch-and-bound.

    Branches on the highest-degree vertex of the candidate set (ties to the
    smallest id), prunes with a greedy clique-cover bound, and counts work in
    branch-node expansions so budgets reproduce across machines.  On budget
    exhaustion the best witness found so far is returned with exact=False.
    """
    n = g.n
    adj = [g.neighbors_mask(v) for v in range(n)]
    full = (1 << n) - 1

    best_mask = greedy_independent(adj, range(n))
    best = best_mask.bit_count()
    search = DepthFirst((full, 0), budget)
    for candidates, chosen in search:
        count = chosen.bit_count()
        if not candidates:
            if count > best:
                best = count
                best_mask = chosen
            continue
        if count + _clique_cover_bound(adj, candidates) <= best:
            continue
        v = max(iter_bits(candidates), key=lambda u: (adj[u] & candidates).bit_count())
        bit = 1 << v
        # include v, then exclude it
        search.push(((candidates & ~adj[v] & ~bit, chosen | bit), (candidates & ~bit, chosen)))

    witness = frozenset(iter_bits(best_mask))
    for v in witness:
        if adj[v] & best_mask:
            raise AssertionError("independence witness touches an edge")
    return IndependenceResult(
        alpha=best, witness=witness, exact=search.exact, nodes_expanded=search.nodes
    )


def greedy_independent(adj: list[int], order: Iterable[int]) -> int:
    """Take each vertex of order unless a taken vertex is adjacent to it; the
    mask taken is a maximal independent set when order holds every vertex."""
    chosen = 0
    for v in order:
        if not adj[v] & chosen:
            chosen |= 1 << v
    return chosen


def _clique_cover_bound(adj: list[int], candidates: int) -> int:
    # partition candidates into cliques, each grown from the lowest candidate
    # left by taking the lowest vertex adjacent to every member; this is the
    # first-fit partition in id order, and its clique count bounds
    # alpha(candidates) from above
    cliques = 0
    while candidates:
        pool = candidates
        while pool:
            bit = pool & -pool
            candidates ^= bit
            pool &= adj[bit.bit_length() - 1]
        cliques += 1
    return cliques
