"""Instance generators: certified extremal constructions and random fixtures.

The extremal construction splits the vertex set into ell = ceil(n/(n-delta))
parts, the first ell-1 of size n-delta, fills each part with a triangle-free
graph, adds every cross-part edge, and colors edges leaving the first part red
and everything else blue.  No monochromatic triangle can then touch the first
part, which is what the attached upper-bound certificates assert.

Every generator builds its instance as adjacency and red/blue masks, with no
list of edges: a complete graph or an extremal layout is one mask per vertex,
and a random coloring or the five-part fixture sets an edge's bits as it
draws the edge's colour.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .graphs import ColoredGraph, Graph, Record, _zeros, mask_of, set_bits
from .independence import IndependenceResult, is_triangle_free, max_independent_set_exact
from .rationals import rational_json

CIRCULANT_CATALOG_METHOD = "circulant_catalog"
TRIANGLE_FREE_PROCESS_METHOD = "triangle_free_process"
PART_METHODS = (CIRCULANT_CATALOG_METHOD, TRIANGLE_FREE_PROCESS_METHOD)

AVOID_V1 = "AvoidV1"
AVOID_V1_V3 = "AvoidV1AndV3Budget"

# the six dense pairs of the bowtie blow-up shape, in generation order
BOWTIE_PAIRS = ((0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4))

ALPHA_BUDGET = 200_000


class InfeasibleSizesError(ValueError):
    """Extremal part sizes impossible for the requested (n, delta)."""


def circulant(n: int, connections: tuple[int, ...]) -> Graph:
    edges = set()
    for v in range(n):
        for c in connections:
            u, w = v, (v + c) % n
            if u != w:
                edges.add((min(u, w), max(u, w)))
    return Graph(n, sorted(edges))


def petersen() -> Graph:
    # outer 5-cycle, inner pentagram, spokes
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph(10, edges)


def complete_graph(n: int) -> Graph:
    adj = _zeros(n)  # rejects a negative n, and one too large to allocate
    full = (1 << n) - 1
    for v in range(n):
        adj[v] = full ^ 1 << v
    return Graph._from_adj(n, adj)


_CATALOG = {
    5: lambda: circulant(5, (1,)),
    10: petersen,
    13: lambda: circulant(13, (1, 5)),
}


def triangle_free_process(n: int, seed: int) -> Graph:
    """Maximal triangle-free graph from a seeded random edge order.

    Every pair is considered once in shuffled order and added unless the two
    endpoints already share a neighbor; rejected pairs stay blocked because
    edges are never removed, so the result is maximal.
    """
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adj = [0] * n
    for u, v in pairs:
        if adj[u] & adj[v] == 0:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph._from_adj(n, adj)


def triangle_free_low_alpha(
    n: int, method: str = CIRCULANT_CATALOG_METHOD, seed: int = 0
) -> Graph:
    """Triangle-free part graph with small independence number.

    circulant_catalog returns a fixed extremal entry when one exists for n
    (5-cycle, Petersen, the circulant on Z13 with connections {1, 5}) and
    falls back to the process otherwise.
    """
    if method not in PART_METHODS:
        raise ValueError(f"unknown part method {method!r}")
    if n < 1:
        raise ValueError(f"part size must be positive, got {n}")
    if method == CIRCULANT_CATALOG_METHOD and n in _CATALOG:
        return _CATALOG[n]()
    return triangle_free_process(n, seed)


def random_coloring(g: Graph, p_red: float, seed: int) -> ColoredGraph:
    """Color each edge red with probability p_red, independently, seeded.

    Each edge uv, u < v, takes one draw, in lexicographic order: u's higher
    neighbours are read from the bits of its mask.  The edge is red when its
    draw is below p_red; the blue masks are what the red ones leave.
    """
    if not 0 <= p_red <= 1:
        raise ValueError(f"p_red must lie in [0, 1], got {p_red}")
    draw = random.Random(seed).random
    adj = [g.neighbors_mask(v) for v in range(g.n)]
    red = [0] * g.n
    for u, mask in enumerate(adj):
        row = 0
        for v in set_bits(mask >> (u + 1) << (u + 1)):
            if draw() < p_red:
                row |= 1 << v
                red[v] |= 1 << u
        red[u] |= row
    return ColoredGraph(g, red, [a ^ r for a, r in zip(adj, red)])


class UpperBoundCertificate(Record):
    """Structural tiling-size bound with the part indices its argument uses.

    AvoidV1: no monochromatic triangle meets part 0, so any tiling fits in
    the other n - |V1| vertices; bound = (n - |V1|) // 3.
    AvoidV1AndV3Budget: in the three-part regime every monochromatic triangle
    additionally uses a vertex of part 2, so bound = |V3| = 2*delta - n
    (requires 2|V3| <= |V2|).
    """

    kind: str
    bound: int
    parts: tuple[int, ...]


class ExtremalInstance(Record):
    colored_graph: ColoredGraph
    parts: tuple[tuple[int, ...], ...]
    delta_target: int
    part_method: str
    seed: int
    achieved_min_degree: int
    part_alphas: tuple[IndependenceResult, ...]
    certificates: tuple[UpperBoundCertificate, ...]

    @property
    def n(self) -> int:
        return self.colored_graph.n

    @property
    def ell(self) -> int:
        return len(self.parts)

    def part_mask(self, i: int) -> int:
        return mask_of(self.parts[i])

    def best_bound(self) -> int:
        return min(c.bound for c in self.certificates)


def extremal_instance(
    n: int,
    delta_target: int,
    part_method: str = CIRCULANT_CATALOG_METHOD,
    seed: int = 0,
) -> ExtremalInstance:
    """Build the certified extremal instance for (n, delta_target).

    Requires 2*delta_target >= n and delta_target < n; anything else makes
    the mandated part sizes impossible.
    """
    if 2 * delta_target < n:
        raise InfeasibleSizesError(
            f"delta_target {delta_target} below n/2 for n={n}: parts would exceed n"
        )
    if delta_target >= n:
        raise InfeasibleSizesError(
            f"delta_target {delta_target} must be smaller than n={n}"
        )
    base = n - delta_target
    ell = -(-n // base)
    sizes = [base] * (ell - 1) + [n - (ell - 1) * base]

    rng = random.Random(seed)
    part_seeds = [rng.randrange(2**32) for _ in sizes]
    part_graphs = [
        triangle_free_low_alpha(size, part_method, part_seeds[i])
        for i, size in enumerate(sizes)
    ]

    parts = tuple(tuple(range(i * base, i * base + size)) for i, size in enumerate(sizes))
    # part 0 sends red edges to every other part; the rest is blue: the part
    # graphs, and the edges between the other parts
    full = (1 << n) - 1
    first = (1 << sizes[0]) - 1
    red: list[int] = []
    blue: list[int] = []
    for i, (size, pg) in enumerate(zip(sizes, part_graphs)):
        start = i * base
        own = ((1 << size) - 1) << start
        cross_red, cross_blue = (full ^ own, 0) if i == 0 else (first, full ^ first ^ own)
        for x in range(size):
            red.append(cross_red)
            blue.append(cross_blue | pg.neighbors_mask(x) << start)
    adj = [r | b for r, b in zip(red, blue)]
    cg = ColoredGraph(Graph._from_adj(n, adj), red, blue)

    achieved = cg.graph.min_degree()
    if achieved < delta_target:
        raise AssertionError("construction fell below its degree target")

    part_alphas = tuple(
        max_independent_set_exact(pg, budget=ALPHA_BUDGET) for pg in part_graphs
    )
    for pg in part_graphs:
        if not is_triangle_free(pg):
            raise AssertionError("part graph is not triangle-free")

    certificates = [
        UpperBoundCertificate(AVOID_V1, (n - sizes[0]) // 3, (0,))
    ]
    if ell == 3:
        v3 = 2 * delta_target - n  # the last part: n - 2(n - delta_target) vertices
        if 2 * v3 <= sizes[1]:
            certificates.append(UpperBoundCertificate(AVOID_V1_V3, v3, (1, 2)))

    return ExtremalInstance(
        colored_graph=cg,
        parts=parts,
        delta_target=delta_target,
        part_method=part_method,
        seed=seed,
        achieved_min_degree=achieved,
        part_alphas=part_alphas,
        certificates=tuple(certificates),
    )


class FivePartInstance(Record):
    """Five parts of size m with the six bowtie pairs randomly filled."""

    colored_graph: ColoredGraph
    parts: tuple[tuple[int, ...], ...]
    m: int
    requested_density: float
    p_red: float
    seed: int
    pair_densities: dict[tuple[int, int], Fraction]

    @property
    def n(self) -> int:
        return self.colored_graph.n

    def part_mask(self, i: int) -> int:
        return mask_of(self.parts[i])


def five_part_instance(
    m: int, density: float, p_red: float, seed: int
) -> FivePartInstance:
    """Random bowtie blow-up fixture: dense pairs per BOWTIE_PAIRS only."""
    if m < 1:
        raise ValueError(f"part size must be positive, got {m}")
    if not 0 < density <= 1:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    if not 0 <= p_red <= 1:
        raise ValueError(f"p_red must lie in [0, 1], got {p_red}")
    rng = random.Random(seed)
    parts = tuple(tuple(range(i * m, (i + 1) * m)) for i in range(5))
    red = _zeros(5 * m)
    blue = _zeros(5 * m)
    pairs = []
    densities = {}
    for i, j in BOWTIE_PAIRS:
        count = 0
        for u in parts[i]:
            for v in parts[j]:
                if rng.random() < density:
                    pairs.append((u, v))
                    count += 1
        densities[(i, j)] = Fraction(count, m * m)
    # the pairs are distinct, and each joins two parts: no check is needed
    for u, v in pairs:
        side = red if rng.random() < p_red else blue
        side[u] |= 1 << v
        side[v] |= 1 << u
    adj = [r | b for r, b in zip(red, blue)]
    return FivePartInstance(
        colored_graph=ColoredGraph(Graph._from_adj(5 * m, adj), red, blue),
        parts=parts,
        m=m,
        requested_density=density,
        p_red=p_red,
        seed=seed,
        pair_densities=densities,
    )


def sidecar_text(entries: list[tuple[str, str]]) -> str:
    lines = [f"{key} = {value}" for key, value in entries]
    return "\n".join(lines) + "\n"


def extremal_sidecar(inst: ExtremalInstance) -> str:
    base = len(inst.parts[0])
    part_of_vertex = [v // base for v in range(inst.n)]
    entries = [
        ("kind", "extremal"),
        ("n", str(inst.n)),
        ("delta_target", str(inst.delta_target)),
        ("ell", str(inst.ell)),
        ("seed", str(inst.seed)),
        ("part_method", inst.part_method),
        ("achieved_min_degree", str(inst.achieved_min_degree)),
        ("part_sizes", " ".join(str(len(p)) for p in inst.parts)),
        ("part_of_vertex", " ".join(map(str, part_of_vertex))),
    ]
    for i, res in enumerate(inst.part_alphas):
        flag = "exact" if res.exact else "budgeted"
        entries.append((f"alpha_{i}", f"{res.alpha} {flag}"))
    for i, cert in enumerate(inst.certificates):
        parts = ",".join(map(str, cert.parts))
        entries.append(
            (f"certificate_{i}", f"{cert.kind} bound={cert.bound} parts={parts}")
        )
    return sidecar_text(entries)


def five_part_sidecar(inst: FivePartInstance) -> str:
    part_of_vertex = [v // inst.m for v in range(inst.n)]
    entries = [
        ("kind", "five_part"),
        ("m", str(inst.m)),
        ("requested_density", str(inst.requested_density)),
        ("p_red", str(inst.p_red)),
        ("seed", str(inst.seed)),
        ("part_of_vertex", " ".join(map(str, part_of_vertex))),
    ]
    for (i, j), d in sorted(inst.pair_densities.items()):
        entries.append((f"pair_density_{i}_{j}", str(rational_json(d))))
    return sidecar_text(entries)
