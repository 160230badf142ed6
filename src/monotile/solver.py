"""Maximum monochromatic triangle tilings: exact search, heuristic, peeling.

The exact solver is a branch-and-bound over the monochromatic-triangle
hypergraph.  At every node it branches on the lexicographically first vertex
still covered by some live triangle (cover it with one of its triangles, or
discard it), keeps the better of its incumbent and a greedy completion, and
prunes with the smaller of two bounds on the triangles still to come:
floor(|cover|/3), and |T & cover| for one hitting set T of the triangles,
taken at the root greedily (the vertex on the most triangles first) and made
minimal (each vertex dropped, highest first, when the rest still hits every
triangle).  Vertex-disjoint triangles need distinct vertices of a hitting
set, so nu <= tau (Tuza 1981, Haxell 1999); a triangle live at a node was
live at the root, so it holds a vertex of T that is still in the cover.

The incumbent starts as the heuristic's tiling of the same triangles (its
default kicks and seed), and the search stops, proven, once the incumbent
reaches the root bound: at the root on the certified extremal instances and
most five-part blow-ups.  A larger start only prunes more, so no search
returns a smaller tiling at equal budget.  The search runs on
`graphs.DepthFirst`, which draws children lazily and counts expansions
against the budget, so a budget of 0 expands nothing and reports
exact=False even when the incumbent meets the root bound.

The search state is bit-parallel, as in BBMC (San Segundo et al., Comput.
Oper. Res. 2011): live is a bitset over triangle ids, hits[v] holds the ids
of the triangles through vertex v and near[v] the vertices of those
triangles, and cover is the set of vertices that still have a live triangle.
Covering abc removes hits[a] | hits[b] | hits[c] from live, discarding v
removes hits[v], and only the cover vertices in the near masks of the removed
vertices are rechecked, so a node costs the work that changed.

The heuristic reads the same index and greedy completion; its (1,2)-swap is
the 2-improvement of Andrade, Resende and Werneck (J. Heuristics 2012), done
over live ids.  It stops once its tiling reaches an upper bound on every
tiling of its mask (floor(|cover|/3) in heuristic_tiling, the root bound as
the exact search's seed), so stopping changes no result.

A solve builds one index of the monochromatic triangles, straight from the
edge-by-edge scan graphs.scan_mono_pairs and with ids in its canonical
order; no Triangle record is made for it.  Each search is a mask of ids.  A
weak exact search takes every id; a strong search the red ids, then the
blue ones; the weak heuristic all, then red, then blue, since every strong
tiling is also a weak one.  Every choice depends only on the id order, so a
search over a colour mask makes the choices a search over the colour's own
list would.  The largest result wins and the first searched wins ties, so
strong mode keeps red on ties.  Triangle records are made only for the
winning ids, and verify_tiling rechecks that tiling in full.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import ParameterOutOfRangeError
from .graphs import (
    BLUE,
    MIXED,
    MODES,
    RED,
    STRONG,
    WEAK,
    ColoredGraph,
    DepthFirst,
    Tiling,
    Triangle,
    enumerate_mono_triangles,  # unused here: perfbench/spans.py hooks this name
    first_mono_triangle,
    iter_bits,
    scan_mono_pairs,
    triangle_color,
)
from .rationals import as_fraction, rational_json


# The heuristic's defaults; the exact search seeds its incumbent with them.
HEURISTIC_ITERS = 32
HEURISTIC_SEED = 0


@dataclass(frozen=True)
class SolveResult:
    tiling: Tiling
    exact: bool
    nodes_expanded: int
    upper_bound_used: int


def max_mono_tiling_exact(
    cg: ColoredGraph, mode: str = WEAK, budget: Optional[int] = None
) -> SolveResult:
    """Maximum weak or strong monochromatic triangle tiling.

    Strong mode searches each color class and keeps the better result (see
    the module docstring).  The budget caps each search, so strong mode can
    expand at most 2·(budget+1) nodes in all.  exact=False means a budget ran
    out and the incumbent, at least the heuristic's tiling, is only a lower
    bound.  upper_bound_used is the bound at the root, min(floor(|cover|/3),
    |T|) with T the minimal hitting set, taken before any node is expanded
    (the larger of the two colours' in strong mode).
    """
    index, searches = _searches(cg, mode)
    chosen, nodes, exact, bound = zip(*(_pack_exact(index, live, budget) for live in searches))
    tiling = _checked_tiling(cg, _records(index, max(chosen, key=len)), mode)
    return SolveResult(tiling, all(exact), sum(nodes), max(bound))


def _searches(cg: ColoredGraph, mode: str, heuristic: bool = False) -> tuple[_Index, list[int]]:
    """The index of every monochromatic triangle of cg, and the id masks
    over it that a solve in mode searches, in tie-break order."""
    if mode not in MODES:
        raise ValueError(f"bad mode {mode!r}")
    index = verts, _, red, _ = _index(cg)
    every = (1 << len(verts)) - 1
    if mode == WEAK and not heuristic:
        return index, [every]
    return index, [red, every ^ red] if mode == STRONG else [every, red, every ^ red]


# A solve's triangles: vertex triples by id, per vertex the bitset of the ids
# through it, the bitset of the red ids, and per vertex its neighbour mask.
_Index = tuple[list[tuple[int, int, int]], list[int], int, list[int]]


def _index(cg: ColoredGraph) -> _Index:
    """The index, read off graphs.scan_mono_pairs: the ids of the triangles
    u, v, w of one pair are a run, in the scan's canonical order, so u, v
    and the pair's colour take the run whole and only w takes each id."""
    verts: list[tuple[int, int, int]] = []
    runs: list[list[tuple[int, int]]] = [[] for _ in range(cg.n)]
    thirds: list[list[int]] = [[] for _ in range(cg.n)]
    reds = []
    for u, v, color, closing in scan_mono_pairs(cg):
        start = len(verts)
        for w in iter_bits(closing):
            thirds[w].append(len(verts))
            verts.append((u, v, w))
        run = (start, len(verts))
        runs[u].append(run)
        runs[v].append(run)
        if color == RED:
            reds.append(run)
    size = len(verts)
    hits = [_bits(size, r, t) for r, t in zip(runs, thirds)]
    return verts, hits, _bits(size, reds), list(map(cg.graph.neighbors_mask, range(cg.n)))


def _bits(size: int, runs: Iterable[tuple[int, int]], ids: Iterable[int] = ()) -> int:
    """The bitset of the ids in the runs [start, stop) and in ids, all below size, built in
    time linear in size (OR-ing 1 << i into a growing int would cost time quadratic in size)."""
    row = bytearray(b"0") * size
    for start, stop in runs:  # bit i is the i-th digit from the right
        row[size - stop : size - start] = b"1" * (stop - start)
    for i in ids:
        row[~i] = 49  # ord("1")
    return int(row, 2) if size else 0


def _records(index: _Index, ids: Iterable[int]) -> list[Triangle]:
    """One Triangle record per id; searches carry ids, so only answers become records."""
    verts, _, red, _ = index
    return [Triangle(verts[i], RED if red >> i & 1 else BLUE) for i in ids]


def _checked_tiling(cg: ColoredGraph, chosen: Sequence[Triangle], mode: str) -> Tiling:
    """chosen as a tiling in vertex order, rechecked in full by verify_tiling."""
    tiling = Tiling(tuple(sorted(chosen, key=lambda t: t.vertices)), mode)
    if not verify_tiling(cg, tiling):
        raise AssertionError(f"search produced an invalid {mode} tiling")
    return tiling


def _cover(hits: list[int], live: int) -> int:
    """The vertices on some triangle of live, as a vertex mask."""
    return sum(1 << v for v, h in enumerate(hits) if h & live)


def _greedy(verts: list[tuple[int, int, int]], hits: list[int], live: int) -> list[int]:
    """Take live ids lowest first, each dropping the ids that share a vertex with it."""
    chosen = []
    while live:
        i = (live & -live).bit_length() - 1
        chosen.append(i)
        a, b, c = verts[i]
        live &= ~(hits[a] | hits[b] | hits[c])
    return chosen


def _transversal(hits: list[int], live: int) -> int:
    """Greedy hitting set of the live ids, as a vertex mask: the vertex on the
    most live triangles first, the lowest vertex on ties.  A vertex is
    recounted only at the top of the heap (Minoux 1978): counts only fall, so
    a top that keeps its count is the greedy choice."""
    heap = [(-(h & live).bit_count(), v) for v, h in enumerate(hits) if h & live]
    heapq.heapify(heap)
    taken = 0
    while live:
        k, v = heap[0]
        now = -(hits[v] & live).bit_count()
        if k != now:
            heapq.heapreplace(heap, (now, v))
            continue
        heapq.heappop(heap)
        taken |= 1 << v
        live &= ~hits[v]
    return taken


def _minimal(hits: list[int], taken: int, live: int) -> int:
    """taken, a hitting set of the live ids, with each vertex dropped,
    highest first, when the rest of the set still hits every live id.  The
    rest is the union of the kept vertices above and a prefix union of the
    vertices below, so the pass costs one OR per vertex."""
    order = list(iter_bits(taken))
    below = [0]
    for v in order:
        below.append(below[-1] | hits[v])
    above = 0
    for j in reversed(range(len(order))):
        if live & ~(below[j] | above):
            above |= hits[order[j]]
        else:
            taken ^= 1 << order[j]
    return taken


def _near(index: _Index, searched: int) -> list[int]:
    """Per vertex v, the vertices on a triangle of searched through v.  Two
    vertices on one triangle are adjacent, so only edges are tested, each
    once."""
    _, hits, _, adj = index
    live = [h & searched for h in hits]
    near = [1 << v if h else 0 for v, h in enumerate(live)]
    for v, h in enumerate(live):
        for u in iter_bits(adj[v] >> (v + 1) << (v + 1) if h else 0):
            if h & live[u]:
                near[v] |= 1 << u
                near[u] |= 1 << v
    return near


def _pack_exact(
    index: _Index, searched: int, budget: Optional[int]
) -> tuple[list[int], int, bool, int]:
    verts, hits, _, _ = index
    near = None  # built on the first push: most searches close at the root
    hitting = _minimal(hits, _transversal(hits, searched), searched)

    def drop(live: int, cover: int, gone: int, touched: int) -> tuple[int, int]:
        # Remove the triangle ids in gone from live and the vertices in
        # touched that lost their last live triangle from cover.
        live &= ~gone
        check = cover & touched
        while check:
            low = check & -check
            if not hits[low.bit_length() - 1] & live:
                cover ^= low
            check ^= low
        return live, cover

    def children(live: int, cover: int, chosen: list[int]):
        # Branch on the lowest cover vertex v: its live triangles by id,
        # then discard v.
        v = (cover & -cover).bit_length() - 1
        for i in iter_bits(hits[v] & live):
            a, b, c = verts[i]
            gone = hits[a] | hits[b] | hits[c]
            touched = near[a] | near[b] | near[c]
            cover_abc = cover & ~(1 << a | 1 << b | 1 << c)
            yield (*drop(live, cover_abc, gone, touched), chosen + [i])
        yield (*drop(live, cover ^ 1 << v, hits[v], near[v]), chosen)

    root_cover = _cover(hits, searched)
    root_bound = min(root_cover.bit_count() // 3, hitting.bit_count())
    best = _local_search(index, searched, HEURISTIC_ITERS, HEURISTIC_SEED, root_bound)
    search = DepthFirst((searched, root_cover, []), budget)
    for live, cover, chosen in search:
        extra = _greedy(verts, hits, live)
        if len(chosen) + len(extra) > len(best):
            best = chosen + extra
        if len(best) == root_bound:
            break
        if len(chosen) + min(cover.bit_count() // 3, (hitting & cover).bit_count()) > len(best):
            if near is None:
                near = _near(index, searched)
            search.push(children(live, cover, chosen))
    return best, search.nodes, search.exact, root_bound


def heuristic_tiling(
    cg: ColoredGraph, mode: str = WEAK, iters: int = HEURISTIC_ITERS, seed: int = HEURISTIC_SEED
) -> Tiling:
    """Greedy tiling plus (1,1)/(1,2)-swap local search, seeded random kicks.

    Improving inserts free triangles greedily, lowest id first, then swaps a
    selected triangle for the first disjoint pair of its live ids (free of the
    rest of the selection), until neither move applies; a kick swaps a random
    selected triangle for a random live id, until the kicks run out or the
    tiling reaches floor(|cover|/3).  Never returns fewer triangles than
    canonical greedy; deterministic given the seed.  Weak mode also
    searches each color class alone (see the module docstring), so its size
    never trails strong mode's.
    """
    index, searches = _searches(cg, mode, heuristic=True)
    _, hits, _, _ = index
    found = (
        _local_search(index, live, iters, seed, _cover(hits, live).bit_count() // 3)
        for live in searches
    )
    return _checked_tiling(cg, _records(index, max(found, key=len)), mode)


def _local_search(index: _Index, searched: int, iters: int, seed: int, most: int) -> list[int]:
    """The heuristic's tiling of the searched ids, as ids (see heuristic_tiling).
    most bounds every tiling of searched from above; the search stops once
    its tiling reaches it."""
    verts, hits, _, _ = index
    rng = random.Random(seed)

    def free(sel: list[int]) -> int:
        # The ids of the triangles vertex-disjoint from every triangle in sel.
        blocked = 0
        for i in sel:
            a, b, c = verts[i]
            blocked |= hits[a] | hits[b] | hits[c]
        return searched & ~blocked

    def pool(sel: list[int], pos: int) -> int:
        # The ids that can take the place of sel[pos], other than sel[pos].
        return free(sel[:pos] + sel[pos + 1 :]) & ~(1 << sel[pos])

    def swap(sel: list[int]) -> bool:
        # (1,2)-swap in place: the first position whose pool holds two
        # disjoint ids gives way to the lexicographically first such pair.
        # A position's pool is the searched ids outside the union of the
        # ids blocked by the triangles before it and by those after it
        # (prefix and suffix unions), so a pass costs O(|sel|) unions.
        masks = [hits[a] | hits[b] | hits[c] for a, b, c in (verts[i] for i in sel)]
        after = [0] * (len(sel) + 1)
        for pos in reversed(range(len(sel))):
            after[pos] = after[pos + 1] | masks[pos]
        before = 0
        for pos, j in enumerate(sel):
            live = searched & ~(before | after[pos + 1]) & ~(1 << j)
            for i in iter_bits(live):
                a, b, c = verts[i]
                pair = (live >> i << i) & ~(hits[a] | hits[b] | hits[c])
                if pair:
                    sel[pos:] = sel[pos + 1 :] + [i, (pair & -pair).bit_length() - 1]
                    return True
            before |= masks[pos]
        return False

    def improve(sel: list[int]) -> list[int]:
        while True:
            sel += _greedy(verts, hits, free(sel))
            if not swap(sel):
                return sel

    first = _greedy(verts, hits, searched)
    if len(first) == most:  # no swap or kick can pass the bound
        return first
    current = improve(first)
    best = list(current)
    for _ in range(iters):
        if len(best) == most:
            break
        pos = rng.randrange(len(current))
        live = pool(current, pos)
        if not live:
            continue
        current[pos] = rng.choice(list(iter_bits(live)))
        current = improve(current)
        if len(current) > len(best):
            best = list(current)
    return best


def verify_tiling(cg: ColoredGraph, tiling: Tiling) -> bool:
    """Recheck every tiling invariant from scratch; never raises.

    A vertex that is not an int in 0..n-1 (a bool, a float or a string read
    from a report) makes the tiling invalid.
    """
    if tiling.mode not in MODES:
        return False
    used = 0
    colors = set()
    for tri in tiling.triangles:
        color = triangle_color(cg, *tri.vertices)
        if color is None or color == MIXED or tri.color != color or tri.mask & used:
            return False
        used |= tri.mask
        colors.add(tri.color)
    return tiling.mode == WEAK or len(colors) <= 1


@dataclass(frozen=True)
class PeelStep:
    order: int
    min_degree: int
    triangle: Triangle


@dataclass(frozen=True)
class PeelResult:
    tiling: Tiling
    residual: frozenset[int]
    reason: str  # "min_degree" | "no_mono_triangle"
    window_ok: Optional[bool]
    residual_order: int
    residual_min_degree: Optional[int]
    trace: tuple[PeelStep, ...]


def peel_to_three_fifths(cg: ColoredGraph) -> PeelResult:
    """Delete canonically-first monochromatic triangles while degrees allow.

    Removal continues while the current graph satisfies
    min_degree >= (3/5) * order; the stop state either broke that condition
    (reason "min_degree", with the relaxed window
    min_degree >= (3/5) * order - 3 reported as window_ok) or has no
    monochromatic triangle left (reason "no_mono_triangle", window_ok None).
    An input below the degree threshold stops immediately with an empty
    tiling and the full vertex set as residual.
    """
    live = (1 << cg.n) - 1
    removed: list[Triangle] = []
    trace: list[PeelStep] = []
    while True:
        order = live.bit_count()
        if order == 0:
            reason, mindeg, window = "no_mono_triangle", None, None
            break
        mindeg = min((cg.graph.neighbors_mask(v) & live).bit_count() for v in iter_bits(live))
        if 5 * mindeg < 3 * order:
            reason = "min_degree"
            window = 5 * mindeg >= 3 * order - 15
            break
        tri = first_mono_triangle(cg, live)
        if tri is None:
            reason, window = "no_mono_triangle", None
            break
        trace.append(PeelStep(order, mindeg, tri))
        removed.append(tri)
        live &= ~tri.mask
    return PeelResult(
        tiling=Tiling(tuple(removed), WEAK),
        residual=frozenset(iter_bits(live)),
        reason=reason,
        window_ok=window,
        residual_order=live.bit_count(),
        residual_min_degree=mindeg,
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class BoundReport:
    """Evaluated piecewise bounds for one (n, delta), exact rationals."""

    n: int
    delta: int
    gamma: Fraction
    thm3_lower: Fraction
    remarkA_upper: Optional[Fraction]
    bft_weak: Fraction

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "gamma": rational_json(self.gamma),
            "thm3_lower": rational_json(self.thm3_lower),
            "remarkA_upper": rational_json(self.remarkA_upper),
            "bft_weak": rational_json(self.bft_weak),
        }


def _non_negative_gamma(gamma) -> Fraction:
    g = as_fraction(gamma)
    if g < 0:
        raise ParameterOutOfRangeError(f"need gamma >= 0, got {g}")
    return g


def bound_table(n: int, delta: int, gamma=0) -> BoundReport:
    """Evaluate the piecewise tiling bounds for minimum degree delta.

    thm3_lower: 2*delta - n - gamma*n on n/2 <= delta <= 3n/5, then
    delta/3 - gamma*n above (0 below n/2, clamped at 0).  remarkA_upper:
    the matching construction bound, None below n/2; at delta = n/2 exactly
    the three-part budget argument is unavailable, so delta/3 is reported.
    bft_weak: 0 below 4n/5, then 5*delta - 4n, floor((4*delta - 3n)/2),
    floor((2*delta - n)/3) on the three upper ranges.  gamma >= 0 is the
    error term of Theorem 3; a negative one would lift thm3_lower past
    remarkA_upper, so it is rejected.
    """
    if n < 1 or not 0 <= delta <= n - 1:
        raise ParameterOutOfRangeError(f"need n >= 1 and 0 <= delta <= n-1, got ({n}, {delta})")
    g = _non_negative_gamma(gamma)
    gn = g * n
    zero = Fraction(0)

    if 2 * delta < n:
        thm3 = zero
        remark = None
    elif 5 * delta <= 3 * n:
        thm3 = max(zero, Fraction(2 * delta - n) - gn)
        remark = Fraction(delta, 3) if 2 * delta == n else Fraction(2 * delta - n)
    else:
        thm3 = max(zero, Fraction(delta, 3) - gn)
        remark = Fraction(delta, 3)

    if 5 * delta < 4 * n:
        bft = zero
    elif 6 * delta <= 5 * n:
        bft = Fraction(5 * delta - 4 * n)
    elif 8 * delta <= 7 * n:
        bft = Fraction((4 * delta - 3 * n) // 2)
    else:
        bft = Fraction((2 * delta - n) // 3)

    return BoundReport(n, delta, g, thm3, remark, bft)


def solve_report(cg: ColoredGraph, result: SolveResult, gamma=0) -> dict:
    """JSON-ready report for one solved instance; runtime is injected by the CLI.

    A negative gamma is rejected on every instance, the empty one included.
    """
    _non_negative_gamma(gamma)
    n = cg.n
    delta = cg.graph.min_degree() if n else 0
    report = {
        "n": n,
        "delta": delta,
        "mode": result.tiling.mode,
        "size": result.tiling.size,
        "exact": result.exact,
        "nodes": result.nodes_expanded,
        "tiling": [[*t.vertices, t.color] for t in result.tiling.triangles],
    }
    if n >= 1:
        bounds = bound_table(n, delta, gamma)
        report["bounds"] = {
            "thm3": rational_json(bounds.thm3_lower),
            "remarkA": rational_json(bounds.remarkA_upper),
            "bft": rational_json(bounds.bft_weak),
        }
    else:
        report["bounds"] = {"thm3": 0, "remarkA": None, "bft": 0}
    return report
