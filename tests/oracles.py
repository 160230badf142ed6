"""Brute-force reference implementations used to pin solver behaviour.

Everything here trades speed for obviousness: exhaustive loops over vertex
triples, subsets, or colorings, with no pruning beyond feasibility.  Tests
freeze these answers against the optimized implementations on small inputs.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, product

from monotile.generators import AVOID_V1, AVOID_V1_V3, ExtremalInstance
from monotile.graphs import (
    BLUE,
    RED,
    ColoredGraph,
    Graph,
    Triangle,
    build_colored_graph,
    enumerate_mono_triangles,
)


def mono_triangles(cg: ColoredGraph) -> list[Triangle]:
    """Every monochromatic triangle, by direct inspection of all triples."""
    g = cg.graph
    out = []
    for a, b, c in combinations(range(g.n), 3):
        if not (g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)):
            continue
        colors = {cg.color_of(a, b), cg.color_of(a, c), cg.color_of(b, c)}
        if colors == {RED} or colors == {BLUE}:
            out.append(Triangle((a, b, c), colors.pop()))
    return out


def dump_colored(g) -> str:
    """Instance text of a Graph or ColoredGraph, one f-string per edge: the
    header `n m`, then `u v` (or `u v c`) for each edge u < v in
    lexicographic order, found by testing every pair."""
    colored = isinstance(g, ColoredGraph)
    graph = g.graph if colored else g
    edges = [(u, v) for u, v in combinations(range(graph.n), 2) if graph.has_edge(u, v)]
    lines = [f"{graph.n} {len(edges)}"]
    if colored:
        lines.extend(f"{u} {v} {g.color_of(u, v)}" for u, v in edges)
    else:
        lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def colored_edges(cg: ColoredGraph) -> tuple[tuple[int, int, str], ...]:
    """(u, v, color) for each edge u < v, in lexicographic order."""
    return tuple((u, v, cg.color_of(u, v)) for u, v in cg.graph.edges)


def random_bipartite(n_left: int, n_right: int, p: float, seed: int) -> Graph:
    """Random bipartite graph; left side is 0..n_left-1, right side follows."""
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    rng = random.Random(seed)
    n = n_left + n_right
    adj = [0] * n
    for u in range(n_left):
        for v in range(n_left, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph._from_adj(n, adj)


def verify_certificate_premises(inst: ExtremalInstance) -> bool:
    """Exhaustively recheck what the certificates assert about triangles."""
    v1 = inst.part_mask(0)
    triangles = enumerate_mono_triangles(inst.colored_graph)
    if any(t.mask & v1 for t in triangles):
        return False
    for cert in inst.certificates:
        if cert.kind == AVOID_V1:
            if cert.bound != (inst.n - len(inst.parts[0])) // 3:
                return False
        elif cert.kind == AVOID_V1_V3:
            budget_part, capacity_part = cert.parts[1], cert.parts[0]
            v3 = inst.part_mask(budget_part)
            if cert.bound != len(inst.parts[budget_part]):
                return False
            if 2 * len(inst.parts[budget_part]) > len(inst.parts[capacity_part]):
                return False
            if any(not (t.mask & v3) for t in triangles):
                return False
        else:
            return False
    return True


def parse_sidecar(text: str) -> dict[str, str]:
    """The `key = value` lines of a sidecar as a dict; comments and blank
    lines are skipped."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"sidecar line {lineno}: expected `key = value`")
        out[key.strip()] = value.strip()
    return out


def max_packing_size(triangles: list[Triangle]) -> int:
    """Maximum number of vertex-disjoint triangles from the given list.

    Memoized search keyed on the set of spent vertices; branches on the
    lowest live vertex (cover it with one triangle, or give it up).
    """
    masks = tuple(t.mask for t in triangles)

    @lru_cache(maxsize=None)
    def best(used: int) -> int:
        avail = [m for m in masks if not m & used]
        if not avail:
            return 0
        live = 0
        for m in avail:
            live |= m
        v = live & -live
        out = best(used | v)
        for m in avail:
            if m & v:
                out = max(out, 1 + best(used | m))
        return out

    result = best(0)
    best.cache_clear()
    return result


def greedy_transversal(triples: list[tuple[int, int, int]]) -> int:
    """Greedy hitting set of the vertex triples, as a vertex mask: every step
    recounts the triples left at each vertex and takes the vertex on the
    most, the lowest vertex on ties."""
    left = list(triples)
    taken = 0
    while left:
        count = Counter(v for t in left for v in t)
        v = min(count, key=lambda u: (-count[u], u))
        taken |= 1 << v
        left = [t for t in left if v not in t]
    return taken


def greedy_traps(k: int) -> ColoredGraph:
    """k disjoint 6-vertex gadgets with the red triangles 012, 034 and 125.

    Greedy in id order takes 012 and stops; the optimum is 034 plus 125, so
    the maximum tiling has 2k triangles and greedy finds k.
    """
    gadget = ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (1, 5), (2, 5))
    edges = [(6 * g + a, 6 * g + b, RED) for g in range(k) for a, b in gadget]
    return build_colored_graph(6 * k, edges)


def red_cliques(k: int, size: int) -> ColoredGraph:
    """k disjoint all-red K_size.

    The maximum tiling has k triangles, one per clique, but for size 4 or 5
    a root bound of floor(cover/3) or any hitting set (at least size - 2
    vertices per clique) exceeds k once k >= 3, so no root bound closes the
    search and a budget runs out.
    """
    edges = [
        (size * g + a, size * g + b, RED)
        for g in range(k)
        for a, b in combinations(range(size), 2)
    ]
    return build_colored_graph(size * k, edges)


def is_minimal_transversal(triples: list[tuple[int, int, int]], taken: int) -> bool:
    """Whether the vertex mask taken hits every triple, while taken without
    any one of its vertices misses some triple."""

    def hits_all(mask: int) -> bool:
        return all(any(mask >> v & 1 for v in t) for t in triples)

    return hits_all(taken) and not any(
        hits_all(taken & ~(1 << v)) for v in range(taken.bit_length()) if taken >> v & 1
    )


def max_weak_size(cg: ColoredGraph) -> int:
    return max_packing_size(mono_triangles(cg))


def max_strong_size(cg: ColoredGraph) -> int:
    triangles = mono_triangles(cg)
    return max(
        max_packing_size([t for t in triangles if t.color == RED]),
        max_packing_size([t for t in triangles if t.color == BLUE]),
    )


def max_independent_size(g: Graph) -> int:
    """Independence number by scanning all 2^n vertex subsets."""
    adj = [g.neighbors_mask(v) for v in range(g.n)]
    best = 0
    for mask in range(1 << g.n):
        if mask.bit_count() <= best:
            continue
        if all(not adj[v] & mask for v in range(g.n) if mask >> v & 1):
            best = mask.bit_count()
    return best


def first_fit_clique_cover(adj: list[int], candidates: int) -> list[int]:
    """Cliques of the first-fit partition of candidates: each vertex, by
    ascending id, joins the first clique whose members are all adjacent to
    it, or opens a new one."""
    cliques: list[int] = []
    for v in range(len(adj)):
        if not candidates >> v & 1:
            continue
        for i, clique in enumerate(cliques):
            if clique & ~adj[v] == 0:
                cliques[i] = clique | 1 << v
                break
        else:
            cliques.append(1 << v)
    return cliques


def is_triangle_free(g: Graph) -> bool:
    return not any(
        g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
        for a, b, c in combinations(range(g.n), 3)
    )


def proper_colorings(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All labeled proper colorings with colors drawn from range(k)."""
    edges = g.edges
    return [
        coloring
        for coloring in product(range(k), repeat=g.n)
        if all(coloring[u] != coloring[v] for u, v in edges)
    ]


def chromatic_number(g: Graph) -> int:
    for k in range(1, g.n + 1):
        if proper_colorings(g, k):
            return k
    return 0


def sigma_and_differences(g: Graph) -> tuple[int, int, set[int]]:
    """(chi, smallest achievable minimum class size, class-size differences).

    Considers every labeled proper coloring that uses exactly chi colors;
    class sizes are the nonzero color counts.
    """
    chi = chromatic_number(g)
    sigma = g.n
    diffs: set[int] = set()
    for coloring in proper_colorings(g, chi):
        counts = [coloring.count(c) for c in range(chi)]
        if 0 in counts:
            continue
        sigma = min(sigma, min(counts))
        for a, b in combinations(counts, 2):
            diffs.add(abs(a - b))
    return chi, sigma, diffs


def density(g: Graph, xs: int, ys: int) -> tuple[int, int]:
    """(cross edges, possible pairs) between two disjoint vertex masks."""
    edges = 0
    pairs = 0
    for u in range(g.n):
        if not xs >> u & 1:
            continue
        pairs += ys.bit_count()
        edges += (g.neighbors_mask(u) & ys).bit_count()
    return edges, pairs


def regularity_witness_exists(g: Graph, A: list[int], B: list[int], eps) -> bool:
    """Scan all sub-pair choices for a density deviation beyond eps.

    Sides must be small (meant for |A|, |B| <= 6).  Mirrors the refuter's
    contract: |X| >= eps|A|, |Y| >= eps|B|, |d(X,Y) - d(A,B)| > eps.
    """
    from fractions import Fraction

    a_mask = sum(1 << v for v in A)
    b_mask = sum(1 << v for v in B)
    e0, p0 = density(g, a_mask, b_mask)
    d0 = Fraction(e0, p0)
    for xs in _submasks(a_mask):
        if xs.bit_count() < eps * len(A):
            continue
        for ys in _submasks(b_mask):
            if ys.bit_count() < eps * len(B):
                continue
            e, p = density(g, xs, ys)
            if abs(Fraction(e, p) - d0) > eps:
                return True
    return False


def _submasks(mask: int):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def bowtie_copies(g: Graph) -> list[tuple[int, frozenset[int]]]:
    """All bowtie placements as (center, vertex set), by 5-subset scan."""
    out = []
    seen = set()
    for five in combinations(range(g.n), 5):
        for center in five:
            rest = [v for v in five if v != center]
            for i in range(1, 4):
                wing1 = (rest[0], rest[i])
                wing2 = tuple(v for v in rest[1:] if v != rest[i])
                tris = [(center, *wing1), (center, *wing2)]
                if all(
                    g.has_edge(a, b)
                    for tri in tris
                    for a, b in combinations(tri, 2)
                ):
                    key = (center, frozenset(five))
                    if key not in seen:
                        seen.add(key)
                        out.append((center, frozenset(five)))
    return out


def max_bowtie_packing(g: Graph) -> int:
    """Maximum vertex-disjoint bowtie count, memoized over spent vertices."""
    masks = tuple(
        sorted({sum(1 << v for v in five) for _, five in bowtie_copies(g)})
    )

    @lru_cache(maxsize=None)
    def best(used: int) -> int:
        avail = [m for m in masks if not m & used]
        if not avail:
            return 0
        live = 0
        for m in avail:
            live |= m
        v = live & -live
        out = best(used | v)
        for m in avail:
            if m & v:
                out = max(out, 1 + best(used | m))
        return out

    result = best(0)
    best.cache_clear()
    return result
