"""Maximum monochromatic triangle tilings: exact search, heuristic, peeling.

The exact solver is a branch-and-bound over the monochromatic-triangle
hypergraph.  At every node it branches on the lexicographically first vertex
still covered by some live triangle (cover it with one of its triangles, or
discard it), prunes with floor(coverable/3), and keeps a greedy completion as
the incumbent.  Everything is deterministic; budgets count node expansions.

The search state is bit-parallel, as in BBMC (San Segundo et al., Comput.
Oper. Res. 2011): live is a bitset over triangle ids, hits[v] holds the ids
of the triangles through vertex v and near[v] the vertices of those
triangles, and cover is the set of vertices that still have a live triangle.
Covering abc removes hits[a] | hits[b] | hits[c] from live, discarding v
removes hits[v], and only the cover vertices in the near masks of the removed
vertices are rechecked, so a node costs the work that changed rather than the
number of triangles.  Open nodes wait on an explicit stack, so the depth of
the search is not limited by the interpreter's recursion limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ParameterOutOfRangeError
from .graphs import (
    BLUE,
    MIXED,
    MODES,
    RED,
    STRONG,
    WEAK,
    ColoredGraph,
    Tiling,
    Triangle,
    enumerate_mono_triangles,
    first_mono_triangle,
    iter_bits,
    triangle_color,
)
from .rationals import as_fraction, rational_json


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

    Strong mode solves each color class separately and returns the better
    result, red on ties.  The budget caps each search, so strong mode can
    expand at most 2·(budget+1) nodes in all.  exact=False means a budget ran
    out and the incumbent is only a lower bound.
    """
    if mode not in MODES:
        raise ValueError(f"bad mode {mode!r}")
    triangles = enumerate_mono_triangles(cg)
    if mode == WEAK:
        chosen, nodes, exact, bound = _pack_exact(triangles, budget)
        result = SolveResult(_as_tiling(chosen, WEAK), exact, nodes, bound)
    else:
        red = [t for t in triangles if t.color == RED]
        blue = [t for t in triangles if t.color == BLUE]
        red_chosen, red_nodes, red_exact, red_bound = _pack_exact(red, budget)
        blue_chosen, blue_nodes, blue_exact, blue_bound = _pack_exact(blue, budget)
        chosen = blue_chosen if len(blue_chosen) > len(red_chosen) else red_chosen
        result = SolveResult(
            _as_tiling(chosen, STRONG),
            red_exact and blue_exact,
            red_nodes + blue_nodes,
            max(red_bound, blue_bound),
        )
    if not verify_tiling(cg, result.tiling):
        raise AssertionError("solver produced an invalid tiling")
    return result


def _as_tiling(triangles: Sequence[Triangle], mode: str) -> Tiling:
    return Tiling(tuple(sorted(triangles, key=lambda t: t.vertices)), mode)


def _pack_exact(
    triangles: list[Triangle], budget: Optional[int]
) -> tuple[list[Triangle], int, bool, int]:
    verts = [t.vertices for t in triangles]
    n = 1 + max((c for _, _, c in verts), default=-1)
    hits = [0] * n  # vertex -> bitset of the ids of its triangles
    near = [0] * n  # vertex -> vertex mask of those triangles
    root_cover = 0
    for i, (a, b, c) in enumerate(verts):
        mask = 1 << a | 1 << b | 1 << c
        root_cover |= mask
        for v in (a, b, c):
            hits[v] |= 1 << i
            near[v] |= mask

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

    def greedy_tail(live: int) -> list[int]:
        extra = []
        while live:
            i = (live & -live).bit_length() - 1
            extra.append(i)
            a, b, c = verts[i]
            live &= ~(hits[a] | hits[b] | hits[c])
        return extra

    best_count = -1
    best_choice: list[int] = []
    nodes = 0
    exhausted = False
    root_bound = 0
    # Each entry is (live, cover, chosen); children are pushed in reverse so
    # they pop in branching order: triangles through v by id, then discard v.
    stack = [((1 << len(verts)) - 1, root_cover, [])]
    while stack:
        live, cover, chosen = stack.pop()
        nodes += 1
        if budget is not None and nodes > budget:
            exhausted = True
            break
        bound = cover.bit_count() // 3
        if nodes == 1:
            root_bound = bound
        extra = greedy_tail(live)
        if len(chosen) + len(extra) > best_count:
            best_count = len(chosen) + len(extra)
            best_choice = chosen + extra
        if len(chosen) + bound <= best_count:
            continue
        v = (cover & -cover).bit_length() - 1
        stack.append((*drop(live, cover ^ 1 << v, hits[v], near[v]), chosen))
        for i in reversed(list(iter_bits(hits[v] & live))):
            a, b, c = verts[i]
            gone = hits[a] | hits[b] | hits[c]
            touched = near[a] | near[b] | near[c]
            cover_abc = cover & ~(1 << a | 1 << b | 1 << c)
            stack.append((*drop(live, cover_abc, gone, touched), chosen + [i]))
    return [triangles[i] for i in best_choice], nodes, not exhausted, root_bound


def heuristic_tiling(
    cg: ColoredGraph, mode: str = WEAK, iters: int = 32, seed: int = 0
) -> Tiling:
    """Greedy tiling plus (1,1)/(1,2)-swap local search, seeded random kicks.

    Never returns fewer triangles than canonical greedy; deterministic given
    the seed.  Strong mode runs per color and keeps the better, red on ties.
    Weak mode also considers the single-color solutions (every strong tiling
    is a weak tiling), so its size never trails strong mode's.
    """
    if mode not in MODES:
        raise ValueError(f"bad mode {mode!r}")
    triangles = enumerate_mono_triangles(cg)
    red = _local_search([t for t in triangles if t.color == RED], iters, seed)
    blue = _local_search([t for t in triangles if t.color == BLUE], iters, seed)
    single = blue if len(blue) > len(red) else red
    if mode == WEAK:
        chosen = _local_search(triangles, iters, seed)
        if len(single) > len(chosen):
            chosen = single
    else:
        chosen = single
    tiling = _as_tiling(chosen, mode)
    if not verify_tiling(cg, tiling):
        raise AssertionError("heuristic produced an invalid tiling")
    return tiling


def _local_search(
    triangles: list[Triangle], iters: int, seed: int
) -> list[Triangle]:
    masks = [t.mask for t in triangles]
    rng = random.Random(seed)

    def used_of(sel: list[int]) -> int:
        u = 0
        for i in sel:
            u |= masks[i]
        return u

    def improve(sel: list[int]) -> list[int]:
        while True:
            used = used_of(sel)
            inserted = False
            for i, m in enumerate(masks):
                if m & used == 0:
                    sel.append(i)
                    used |= m
                    inserted = True
            if inserted:
                continue
            swapped = False
            for pos in range(len(sel)):
                base = used & ~masks[sel[pos]]
                compat = [
                    i
                    for i, m in enumerate(masks)
                    if i != sel[pos] and m & base == 0
                ]
                pair = _disjoint_pair(masks, compat)
                if pair is not None:
                    sel = sel[:pos] + sel[pos + 1 :] + list(pair)
                    swapped = True
                    break
            if not swapped:
                return sel

    current = improve([])
    best = list(current)
    for _ in range(iters):
        if not current:
            break
        pos = rng.randrange(len(current))
        base = used_of(current) & ~masks[current[pos]]
        compat = [
            i
            for i, m in enumerate(masks)
            if i != current[pos] and m & base == 0
        ]
        if not compat:
            continue
        current[pos] = rng.choice(compat)
        current = improve(current)
        if len(current) > len(best):
            best = list(current)
    return [triangles[i] for i in best]


def _disjoint_pair(
    masks: list[int], compat: list[int]
) -> Optional[tuple[int, int]]:
    for a in range(len(compat)):
        ma = masks[compat[a]]
        for b in range(a + 1, len(compat)):
            if ma & masks[compat[b]] == 0:
                return compat[a], compat[b]
    return None


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
        if color is None or color == MIXED or tri.color != color:
            return False
        if tri.mask & used:
            return False
        used |= tri.mask
        colors.add(tri.color)
    if tiling.mode == STRONG and len(colors) > 1:
        return False
    return True


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
        mindeg = min(
            (cg.graph.neighbors_mask(v) & live).bit_count() for v in iter_bits(live)
        )
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
    achieved_weak: Optional[int]
    achieved_strong: Optional[int]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "gamma": rational_json(self.gamma),
            "thm3_lower": rational_json(self.thm3_lower),
            "remarkA_upper": rational_json(self.remarkA_upper),
            "bft_weak": rational_json(self.bft_weak),
            "achieved_weak": self.achieved_weak,
            "achieved_strong": self.achieved_strong,
        }


def bound_table(
    n: int,
    delta: int,
    gamma=0,
    achieved_weak: Optional[SolveResult] = None,
    achieved_strong: Optional[SolveResult] = None,
) -> BoundReport:
    """Evaluate the piecewise tiling bounds for minimum degree delta.

    thm3_lower: 2*delta - n - gamma*n on n/2 <= delta <= 3n/5, then
    delta/3 - gamma*n above (0 below n/2, clamped at 0).  remarkA_upper:
    the matching construction bound, None below n/2; at delta = n/2 exactly
    the three-part budget argument is unavailable, so delta/3 is reported.
    bft_weak: 0 below 4n/5, then 5*delta - 4n, floor((4*delta - 3n)/2),
    floor((2*delta - n)/3) on the three upper ranges.
    """
    if n < 1 or not 0 <= delta <= n - 1:
        raise ParameterOutOfRangeError(f"need n >= 1 and 0 <= delta <= n-1, got ({n}, {delta})")
    g = as_fraction(gamma)
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

    return BoundReport(
        n=n,
        delta=delta,
        gamma=g,
        thm3_lower=thm3,
        remarkA_upper=remark,
        bft_weak=bft,
        achieved_weak=achieved_weak.tiling.size if achieved_weak else None,
        achieved_strong=achieved_strong.tiling.size if achieved_strong else None,
    )


def solve_report(cg: ColoredGraph, result: SolveResult, gamma=0) -> dict:
    """JSON-ready report for one solved instance; runtime is injected by the CLI."""
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
