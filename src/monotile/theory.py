"""Structural tiling machinery around bowtie factors.

Chromatic tiling profiles (critical chromatic number and the divisibility
parameters deciding the perfect-tiling threshold), the padded auxiliary-graph
reduction whose perfect bowtie tilings certify triangle-tiling counts, the
exact bowtie packer, and the constructive monochromatic-triangle finders used
on three-part and five-part shapes.

The bowtie packer runs on `graphs.DepthFirst`, which draws each node's
children lazily: a vertex of a dense auxiliary graph can lie in hundreds of
thousands of bowties, far more than the nodes a budgeted search expands.  A
child is a vertex mask and a (center, wing, wing) tuple; `F2Copy` records
are built only for the packing returned.  `_copies_through` yields the child
nodes itself and stays a generator function: it binds each node's free mask
and chosen list when the node's iterator is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ParameterOutOfRangeError
from .generators import BOWTIE_PAIRS, FivePartInstance
from .graphs import (
    BLUE,
    RED,
    WEAK,
    ColoredGraph,
    DepthFirst,
    Graph,
    GraphError,
    Tiling,
    Triangle,
    edges_inside,
    iter_bits,
    mask_of,
    scan_mono_triangles,
)
from .independence import greedy_independent
from .rationals import as_fraction
from .regularity import DegenerateParametersError, t_bound
from .solver import _checked_tiling


class TooLargeError(ValueError):
    """Graph too large for exhaustive coloring enumeration."""


class ArithmeticConstraintViolatedError(ValueError):
    """Padding arithmetic (integrality / divisibility) does not work out."""


class NotPerfectError(ValueError):
    """The supplied copies do not form a perfect tiling."""


class CountIdentityViolatedError(ValueError):
    """Copy counts contradict the padding identities; signals a solver bug."""


CHROMATIC_SIZE_LIMIT = 12


@dataclass(frozen=True)
class ChromaticProfile:
    """(chi, sigma, chi_cr, hcf_chi, hcf_c, hcf, chi_star); None encodes infinity."""

    chi: int
    sigma: int
    chi_cr: Fraction
    hcf_chi: Optional[int]
    hcf_c: Optional[int]
    hcf: Optional[int]
    chi_star: Fraction


def bowtie_graph() -> Graph:
    """Two triangles sharing exactly the vertex 0."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def chromatic_parameters(h: Graph) -> ChromaticProfile:
    """Full chromatic tiling profile of a small graph.

    chi is the fewest classes of a proper partition of H and sigma the
    smallest class over every proper chi-partition; the divisibility
    parameters come from class-size differences and component-order
    differences, with gcd(inf, t) = t.
    chi_star follows chi_cr exactly when hcf = 1 and chi otherwise.
    """
    if h.n > CHROMATIC_SIZE_LIMIT:
        raise TooLargeError(f"profile needs |H| <= {CHROMATIC_SIZE_LIMIT}, got {h.n}")
    if h.n == 0 or h.num_edges == 0:
        raise ValueError("chromatic profile needs at least one edge")
    for chi in range(2, h.n + 1):
        multisets = _class_size_multisets(h, chi)
        if multisets:
            break
    sigma = min(min(sizes) for sizes in multisets)
    class_diffs = {
        abs(a - b) for sizes in multisets for a in sizes for b in sizes
    }
    comp_sizes = _component_sizes(h)
    comp_diffs = {abs(a - b) for a in comp_sizes for b in comp_sizes}
    hcf_chi = _gcd_or_inf(class_diffs - {0})
    hcf_c = _gcd_or_inf(comp_diffs - {0})
    hcf = _gcd_or_inf((class_diffs | comp_diffs) - {0})
    chi_cr = Fraction((chi - 1) * h.n, h.n - sigma)
    chi_star = chi_cr if hcf == 1 else Fraction(chi)
    return ChromaticProfile(chi, sigma, chi_cr, hcf_chi, hcf_c, hcf, chi_star)


def _class_size_multisets(h: Graph, chi: int) -> set[tuple[int, ...]]:
    # class sizes of the unordered proper partitions into exactly chi classes
    # (empty when there are none); each partition is visited once because
    # classes are opened in order of their least vertex
    n = h.n
    adj = [h.neighbors_mask(v) for v in range(n)]
    found: set[tuple[int, ...]] = set()
    classes: list[int] = []

    def visit(v: int) -> None:
        if v == n:
            if len(classes) == chi:
                found.add(tuple(sorted(c.bit_count() for c in classes)))
            return
        bit = 1 << v
        for i, cls in enumerate(classes):
            if cls & adj[v] == 0:
                classes[i] = cls | bit
                visit(v + 1)
                classes[i] = cls
        if len(classes) < chi:
            classes.append(bit)
            visit(v + 1)
            classes.pop()

    visit(0)
    return found


def _component_sizes(h: Graph) -> list[int]:
    # each component grows from the lowest vertex not yet reached
    unreached = (1 << h.n) - 1
    sizes = []
    while unreached:
        frontier = unreached & -unreached
        size = 0
        while frontier:
            unreached &= ~frontier
            size += frontier.bit_count()
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= h.neighbors_mask(u)
            frontier = nxt & unreached
        sizes.append(size)
    return sizes


def _gcd_or_inf(values: set[int]) -> Optional[int]:
    if not values:
        return None
    return math.gcd(*values)


def admissible_C(k: int, delta: int, c_f2=0) -> Fraction:
    """Smallest padding margin C compatible with the reduction arithmetic.

    Requires the operative degree window k/2 < delta <= 3k/5.  C must reach
    (5/2)*C_F2 + 10, make (3/2)k - (5/2)delta + C a nonnegative integer, and
    make the padded order (5/2)k - (5/2)delta + C divisible by 5; the search
    walks the residue-compatible progression upward.
    """
    if not (2 * delta > k and 5 * delta <= 3 * k):
        raise ParameterOutOfRangeError(
            f"need k/2 < delta <= 3k/5, got (k={k}, delta={delta})"
        )
    c_f2 = as_fraction(c_f2)
    floor_c = Fraction(5, 2) * c_f2 + 10
    w0 = Fraction(3, 2) * k - Fraction(5, 2) * delta
    # C must cancel w0's fractional part so |W| is an integer
    target_frac = (-w0) % 1
    c = target_frac + max(0, math.ceil(floor_c - target_frac))
    while (w0 + k + c) % 5 != 0:
        c += 1
    return Fraction(c)


@dataclass(frozen=True)
class AuxReduction:
    """Base graph padded with an independent, fully joined vertex set W."""

    base: Graph
    aux: Graph
    C: Fraction
    c_f2: Fraction
    k: int
    delta: int
    w_vertices: tuple[int, ...]
    aux_min_degree: int
    hypothesis_ok: bool  # delta(aux) >= (3/5)|V(aux)| + C_F2

    @property
    def w_size(self) -> int:
        return len(self.w_vertices)


def auxiliary_reduction(r: Graph, C, c_f2=0) -> AuxReduction:
    """Pad r with W new vertices joined to all of V(r), W independent.

    |W| = (3/2)k - (5/2)delta + C must be a nonnegative integer and the
    padded order must be divisible by 5, else the arithmetic constraint
    error is raised; a padding too large to allocate is a GraphError.
    """
    C = as_fraction(C)
    c_f2 = as_fraction(c_f2)
    k = r.n
    delta = r.min_degree()
    w_frac = Fraction(3, 2) * k - Fraction(5, 2) * delta + C
    if w_frac.denominator != 1 or w_frac < 0:
        raise ArithmeticConstraintViolatedError(
            f"|W| = {w_frac} is not a nonnegative integer"
        )
    w = int(w_frac)
    total = k + w
    if total % 5:
        raise ArithmeticConstraintViolatedError(
            f"padded order {total} is not divisible by 5"
        )
    try:
        w_block = ((1 << w) - 1) << k
        adj = [r.neighbors_mask(v) | w_block for v in range(k)] + [(1 << k) - 1] * w
    except (MemoryError, OverflowError):
        raise GraphError(f"padded order {total} is too large") from None
    aux = Graph._from_adj(total, adj)
    aux_delta = aux.min_degree()
    hypothesis_ok = Fraction(aux_delta) >= Fraction(3, 5) * total + c_f2
    return AuxReduction(
        base=r,
        aux=aux,
        C=C,
        c_f2=c_f2,
        k=k,
        delta=delta,
        w_vertices=tuple(range(k, total)),
        aux_min_degree=aux_delta,
        hypothesis_ok=hypothesis_ok,
    )


@dataclass(frozen=True)
class F2Copy:
    """A bowtie: two triangles sharing exactly the center vertex."""

    center: int
    wings: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        wings = tuple(tuple(sorted(w)) for w in self.wings)
        object.__setattr__(self, "wings", tuple(sorted(wings)))
        if len(self.vertex_set) != 5:
            raise ValueError(f"bowtie vertices not distinct: {self}")
        if min(self.vertex_set) < 0:
            raise ValueError(f"negative vertex {min(self.vertex_set)} in bowtie {self}")

    @property
    def vertex_set(self) -> frozenset[int]:
        (a, b), (c, d) = self.wings
        return frozenset((self.center, a, b, c, d))

    @property
    def mask(self) -> int:
        (a, b), (c, d) = self.wings
        return 1 << self.center | 1 << a | 1 << b | 1 << c | 1 << d


@dataclass(frozen=True)
class F2TilingResult:
    copies: tuple[F2Copy, ...]
    perfect: bool
    exact: bool
    nodes_expanded: int


_Bowtie = tuple[int, tuple[int, int], tuple[int, int]]  # (center, wing, wing)


def _copies_through(
    adj: list[int], v: int, free: int, chosen: list[_Bowtie]
) -> Iterator[tuple[int, list[_Bowtie]]]:
    # the child (free minus the copy, chosen plus the copy) for each bowtie
    # using v inside free, once each
    bit = 1 << v
    rest = free & ~bit
    # v as center: two disjoint edges inside N(v)
    wing_edges = list(edges_inside(adj, adj[v] & rest))
    for i, (a, b) in enumerate(wing_edges):
        pair_mask = 1 << a | 1 << b
        for c, d in wing_edges[i + 1 :]:
            if pair_mask & (1 << c | 1 << d) == 0:
                yield rest & ~(pair_mask | 1 << c | 1 << d), chosen + [(v, (a, b), (c, d))]
    # v in a wing: partner b, center c adjacent to both, other wing avoiding all
    for b in iter_bits(adj[v] & rest):
        pair_mask = bit | 1 << b
        for c in iter_bits(adj[v] & adj[b] & rest & ~pair_mask):
            others = adj[c] & rest & ~pair_mask & ~(1 << c)
            for d, e in edges_inside(adj, others):
                yield free & ~(pair_mask | 1 << c | 1 << d | 1 << e), chosen + [(c, (v, b), (d, e))]


def f2_tiling_exact(
    g: Graph, require_perfect: bool = False, budget: Optional[int] = None
) -> F2TilingResult:
    """Maximum (or perfect) vertex-disjoint bowtie packing by branch-and-bound.

    Branches on the most constrained free vertex (fewest free neighbours,
    ties to the lowest id): cover it with one of its bowties, generated
    lazily, or (maximum mode only) discard it.  require_perfect fails fast
    when the order is not divisible by 5 and reports perfect=False in-band
    when the search space is exhausted.
    """
    n = g.n
    full = (1 << n) - 1
    if require_perfect and n % 5:
        return F2TilingResult((), False, True, 0)
    adj = [g.neighbors_mask(v) for v in range(n)]

    # A maximal independent set gives a packing bound: a bowtie has at most
    # two vertices in an independent set, hence at least three outside it.
    anchor = greedy_independent(adj, sorted(range(n), key=lambda u: (adj[u].bit_count(), u)))

    # One node rule for both modes: a node with more copies than floor is the
    # new best, and one that cannot pass floor is pruned.  Perfect mode fixes
    # floor one below a perfect tiling and stops at the first node above it;
    # maximum mode raises floor to each new best.
    floor = n // 5 - 1 if require_perfect else 0
    best: list[_Bowtie] = []
    search = DepthFirst((full, []), budget)
    for free, chosen in search:
        if len(chosen) > floor:
            best = chosen
            if require_perfect:
                break
            floor = len(best)
        limit = min(free.bit_count() // 5, (free & ~anchor).bit_count() // 3)
        if len(chosen) + limit <= floor:
            continue
        v = min(iter_bits(free), key=lambda u: (adj[u] & free).bit_count())
        children = _copies_through(adj, v, free, chosen)
        # maximum mode discards v after every way of covering it
        search.push(children if require_perfect else chain(children, [(free & ~(1 << v), chosen)]))
    copies = tuple(F2Copy(center, (w1, w2)) for center, w1, w2 in best)
    return F2TilingResult(copies, len(best) * 5 == n, search.exact, search.nodes)


@dataclass(frozen=True)
class F2Classification:
    """Perfect-tiling copy counts by padding usage, plus derived identities."""

    s: int  # copies using two padding vertices
    t: int  # copies using one
    ell: int  # copies inside the base graph
    ell_minus_s: Fraction
    lower_guarantee: Fraction  # 2*delta - k - C; ell must reach it


def classify_f2_copies(
    tiling: Sequence[F2Copy], W: Iterable[int], k: int, delta: int, C
) -> F2Classification:
    """Count a perfect tiling's copies by padding usage and check identities.

    Checks that the copies exactly cover the padded vertex set, that no copy
    uses three padding vertices (impossible since W is independent and a
    bowtie's independence number is 2), that 2s + t = |W|, that
    |W| = (3/2)k - (5/2)delta + C, and that ell reaches 2*delta - k - C.
    The other two identities follow from these: 3s + 4t + 5*ell = k, since
    the disjoint five-vertex copies cover k + |W| vertices, and the
    eliminated form ell - s = 2*delta - k - (4/5)C.
    """
    C = as_fraction(C)
    w_mask = mask_of(W)
    w_size = w_mask.bit_count()
    total = k + w_size
    masks = [copy.mask for copy in tiling]
    covered = 0
    for m in masks:
        covered |= m
    if covered.bit_count() != 5 * len(masks):
        raise NotPerfectError("copies overlap")
    if covered != (1 << total) - 1:
        raise NotPerfectError(
            f"copies cover {covered.bit_count()} of {total} padded vertices"
        )
    uses = [(m & w_mask).bit_count() for m in masks]
    for in_w in uses:
        if in_w > 2:
            raise CountIdentityViolatedError(
                f"copy uses {in_w} padding vertices; the padding set is independent"
            )
    s, t, ell = uses.count(2), uses.count(1), uses.count(0)
    if 2 * s + t != w_size:
        raise CountIdentityViolatedError(f"2s + t = {2 * s + t} but |W| = {w_size}")
    # the disjoint five-vertex copies cover k + |W|, so 3s + 4t + 5*ell = k + |W| - (2s + t) = k
    if Fraction(w_size) != Fraction(3, 2) * k - Fraction(5, 2) * delta + C:
        raise CountIdentityViolatedError(
            f"|W| = {w_size} inconsistent with (3/2)k - (5/2)delta + C"
        )
    # eliminating t and |W| gives ell - s = (k - 4|W|)/5 = 2*delta - k - (4/5)C
    guarantee = 2 * delta - k - C
    if ell < guarantee:
        raise CountIdentityViolatedError(
            f"ell = {ell} below the guaranteed {guarantee}"
        )
    return F2Classification(
        s=s, t=t, ell=ell, ell_minus_s=Fraction(ell - s), lower_guarantee=Fraction(guarantee)
    )


def _qualifies(tri: Triangle, p_mask: int, q_mask: int, s_mask: int) -> bool:
    m = tri.mask
    inside = p_mask | q_mask | s_mask
    return (
        m & inside == m
        and (m & s_mask).bit_count() <= 1
        and (m & p_mask).bit_count() <= 2
        and (m & q_mask).bit_count() <= 2
    )


def three_part_mono_finder(
    cg: ColoredGraph,
    P: Iterable[int],
    Q: Iterable[int],
    S: Iterable[int],
    beta,
    eps,
    alpha_bound: Optional[int] = None,
) -> Optional[Triangle]:
    """Monochromatic triangle meeting P, Q, S with bounded part usage.

    The returned triangle lies inside P ∪ Q ∪ S, uses at most one vertex of
    S and at most two of each of P and Q.  Search follows the constructive
    strategy: dominating vertices of S partition P and Q by edge color and
    their classes are scanned for same-color edges; then transversal
    triangles through S vertices are tried; finally the lexicographically
    first qualifying triangle of the monochromatic triangles inside
    P ∪ Q ∪ S settles existence.  Every returned triangle is re-validated,
    and the answer matches exhaustive enumeration.
    """
    p_mask = mask_of(P)
    q_mask = mask_of(Q)
    s_mask = mask_of(S)
    if p_mask & q_mask or p_mask & s_mask or q_mask & s_mask:
        raise ValueError("P, Q, S must be pairwise disjoint")
    h = _pick_count(as_fraction(beta), as_fraction(eps))
    return _three_part_triangle(cg, p_mask, q_mask, s_mask, h, alpha_bound)


def _pick_count(beta: Fraction, eps: Fraction) -> Optional[int]:
    # the dominating path's pick count h, or None for degenerate parameters
    try:
        return t_bound(beta - eps, eps)
    except DegenerateParametersError:
        return None


def _three_part_triangle(
    cg: ColoredGraph,
    p_mask: int,
    q_mask: int,
    s_mask: int,
    h: Optional[int],
    alpha_bound: Optional[int] = None,
) -> Optional[Triangle]:
    # three_part_mono_finder on pairwise disjoint vertex masks, with the pick
    # count h from _pick_count
    tri = _dominating_path(cg, p_mask, q_mask, s_mask, h, alpha_bound)
    if tri is None:
        tri = _transversal_path(cg, p_mask, q_mask, s_mask)
    if tri is None:
        scan = scan_mono_triangles(cg, p_mask | q_mask | s_mask)
        tri = next((t for t in scan if _qualifies(t, p_mask, q_mask, s_mask)), None)
    if tri is not None and not _qualifies(tri, p_mask, q_mask, s_mask):
        raise AssertionError("finder produced a triangle violating distribution")
    return tri


def _dominating_path(
    cg: ColoredGraph,
    p_mask: int,
    q_mask: int,
    s_mask: int,
    h: Optional[int],
    alpha_bound: Optional[int],
) -> Optional[Triangle]:
    # pick up to h dominating vertices of S; their red/blue classes inside P
    # (then Q) are scanned for a same-color edge, closing a triangle with the
    # dominating vertex; no h (degenerate parameters) skips the path
    if h is None:
        return None
    for side_mask in (p_mask, q_mask):
        uncovered = side_mask
        picks = 0
        for u in iter_bits(s_mask):
            if picks >= h or not uncovered:
                break
            red_class = cg.red_mask(u) & uncovered
            blue_class = cg.blue_mask(u) & uncovered
            if not (red_class | blue_class):
                continue
            picks += 1
            uncovered &= ~(red_class | blue_class)
            for cls, adj, color in ((red_class, cg._red, RED), (blue_class, cg._blue, BLUE)):
                if alpha_bound is not None and cls.bit_count() <= alpha_bound:
                    continue
                edge = next(edges_inside(adj, cls), None)
                if edge is not None:
                    return Triangle((u, *edge), color)
    return None


def _transversal_path(
    cg: ColoredGraph, p_mask: int, q_mask: int, s_mask: int
) -> Optional[Triangle]:
    # S-vertex with a same-color edge between its P- and Q-neighborhoods
    for v in iter_bits(s_mask):
        for adj, color in ((cg._red, RED), (cg._blue, BLUE)):
            pn = adj[v] & p_mask
            qn = adj[v] & q_mask
            if not pn or not qn:
                continue
            for p in iter_bits(pn):
                hit = adj[p] & qn
                if hit:
                    q = (hit & -hit).bit_length() - 1
                    return Triangle((v, p, q), color)
    return None


@dataclass(frozen=True)
class FivePartTilingResult:
    tiling: Tiling
    target_reached: bool  # size >= (1 - sqrt(eps)) * m
    phase1_count: int
    phase2_count: int


def five_part_tiler(inst: FivePartInstance, eps) -> FivePartTilingResult:
    """Tile a five-part instance with part-constrained monochromatic triangles.

    Phase 1 works on (V1, V2, V3) with at most one vertex per triangle in V1;
    if V1 keeps at least sqrt(eps)*m vertices afterward, phase 2 continues on
    (V1', V4, V5) the same way.  Reports whether the combined tiling reached
    (1 - sqrt(eps)) * m triangles.
    """
    eps = as_fraction(eps)
    m = inst.m
    cg = inst.colored_graph
    beta1 = min(inst.pair_densities[pair] for pair in BOWTIE_PAIRS[:3])
    beta2 = min(inst.pair_densities[pair] for pair in BOWTIE_PAIRS[3:])
    used = 0
    triangles: list[Triangle] = []

    def run_phase(s_mask: int, p_mask: int, q_mask: int, beta: Fraction) -> int:
        nonlocal used
        h = _pick_count(beta, eps)
        count = 0
        while True:
            tri = _three_part_triangle(cg, p_mask & ~used, q_mask & ~used, s_mask & ~used, h)
            if tri is None:
                return count
            triangles.append(tri)
            used |= tri.mask
            count += 1

    v1 = inst.part_mask(0)
    phase1 = run_phase(v1, inst.part_mask(1), inst.part_mask(2), beta1)
    v1_left = (v1 & ~used).bit_count()
    phase2 = 0
    if Fraction(v1_left * v1_left) >= eps * m * m:
        phase2 = run_phase(v1, inst.part_mask(3), inst.part_mask(4), beta2)

    tiling = _checked_tiling(cg, triangles, WEAK)
    short = m - tiling.size
    target = short <= 0 or Fraction(short * short) <= eps * m * m
    return FivePartTilingResult(
        tiling=tiling,
        target_reached=target,
        phase1_count=phase1,
        phase2_count=phase2,
    )
