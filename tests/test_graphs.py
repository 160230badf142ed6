"""Graph core: construction, validation, triangle scans, witnesses."""

import random
from itertools import combinations

import pytest

from monotile import graphs
from monotile.graphs import (
    BLUE,
    MIXED,
    RED,
    STRONG,
    WEAK,
    ColoredGraph,
    DepthFirst,
    DuplicateEdgeError,
    Graph,
    GraphError,
    SelfLoopError,
    Tiling,
    Triangle,
    VertexOutOfRangeError,
    build_colored_graph,
    color_class_views,
    edges_inside,
    enumerate_mono_triangles,
    first_mono_triangle,
    iter_bits,
    mask_of,
    mono_triangle_witness,
    scan_mono_pairs,
    scan_mono_triangles,
    triangle_color,
)

import oracles


def random_colored(n: int, p_edge: float, p_red: float, seed: int) -> ColoredGraph:
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_edge:
                edges.append((u, v, RED if rng.random() < p_red else BLUE))
    return build_colored_graph(n, edges)


# A hand-built tree, by children in branching order; preorder r a c d b e f.
TREE = {"r": "ab", "a": "cd", "b": "e", "e": "f"}


def walk(budget=None, prune=""):
    search = DepthFirst("r", budget)
    seen = ""
    for node in search:
        seen += node
        if node not in prune:
            search.push(TREE.get(node, ""))
    return seen, search.nodes, search.exact


class TestDepthFirst:
    def test_expands_in_preorder(self):
        assert walk() == ("racdbef", 7, True)

    def test_a_node_without_a_push_is_pruned(self):
        assert walk(prune="a") == ("rabef", 5, True)
        assert walk(prune="r") == ("r", 1, True)

    @pytest.mark.parametrize(
        "budget, want",
        [(0, ("", 1, False)), (1, ("r", 2, False)), (6, ("racdbe", 7, False)), (7, ("racdbef", 7, True))],
    )
    def test_budget_stops_at_node_budget_plus_one(self, budget, want):
        assert walk(budget) == want

    def test_children_are_drawn_only_when_reached(self):
        drawn = []

        def children(node):
            for child in TREE.get(node, ""):
                drawn.append(child)
                yield child

        search = DepthFirst("r", budget=2)
        for node in search:
            search.push(children(node))
        assert drawn == ["a", "c"]  # c is node 3, drawn and not expanded

    def test_break_keeps_exact(self):
        search = DepthFirst("r", budget=5)
        seen = ""
        for node in search:
            seen += node
            if node == "d":
                break
            search.push(TREE.get(node, ""))
        assert (seen, search.nodes, search.exact) == ("racd", 4, True)


class TestGraphBasics:
    def test_construction_and_adjacency(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.num_edges == 3
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.neighbors_mask(1) == 0b101
        assert g.degree(1) == 2
        assert g.min_degree() == 1

    def test_edges_are_canonical(self):
        g = Graph(4, [(3, 2), (1, 0), (2, 0)])
        assert g.edges == ((0, 1), (0, 2), (2, 3))

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Graph(3, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            Graph(3, [(0, 1), (1, 0)])

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRangeError):
            Graph(3, [(0, 3)])
        with pytest.raises(VertexOutOfRangeError):
            Graph(3, [(-1, 2)])

    def test_graph_errors_are_value_errors(self):
        assert issubclass(SelfLoopError, GraphError)
        assert issubclass(GraphError, ValueError)

    def test_min_degree_empty_graph_raises(self):
        with pytest.raises(ValueError):
            Graph(0, []).min_degree()

    def test_equality_and_hash(self):
        g1 = Graph(3, [(0, 1)])
        g2 = Graph(3, [(1, 0)])
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != Graph(3, [(0, 2)])

    def test_mask_helpers(self):
        assert mask_of([0, 2, 5]) == 0b100101
        assert list(iter_bits(0b100101)) == [0, 2, 5]
        assert list(iter_bits(0)) == []


def built(build, n, edges):
    """What a builder makes of an edge list: the graph's kind, n and edges,
    or the exception's type name and message."""
    try:
        g = build(n, edges)
    except Exception as exc:  # the tables pin the type, whatever it is
        return type(exc).__name__, str(exc)
    if isinstance(g, Graph):
        return "plain", g.n, g.edges
    return "colored", g.n, oracles.colored_edges(g)


# Recorded with the per-edge builders, before the bulk checks existed: lists
# with several defects must still name the first bad edge.
GRAPH_BUILD_PINS = [
    pytest.param(3, [(0, 5), (1, 1)], ("VertexOutOfRangeError", "edge (0, 5) outside 0..2"), id="range-then-loop"),
    pytest.param(3, [(1, 1), (0, 5)], ("SelfLoopError", "self-loop at 1"), id="loop-then-range"),
    pytest.param(3, [(0, 1), (1, 0), (2, 2)], ("DuplicateEdgeError", "duplicate edge (1, 0)"), id="duplicate-then-loop"),
    pytest.param(3, [(2, 2), (0, 1), (1, 0)], ("SelfLoopError", "self-loop at 2"), id="loop-then-duplicate"),
    pytest.param(3, [(-1, 0), (0, 1), (1, 0)], ("VertexOutOfRangeError", "edge (-1, 0) outside 0..2"), id="negative-then-duplicate"),
    pytest.param(3, [(0, 1), (1, 0), (0, -1)], ("DuplicateEdgeError", "duplicate edge (1, 0)"), id="duplicate-then-negative"),
    pytest.param(4, [(0, 1), (1, 2), (2, 1), (0, 9)], ("DuplicateEdgeError", "duplicate edge (2, 1)"), id="late-duplicate-then-range"),
    pytest.param(-1, [(0, 1)], ("VertexOutOfRangeError", "negative vertex count -1"), id="negative-n"),
    pytest.param(3, [(0, 1), (0, 1, 2)], ("ValueError", "too many values to unpack (expected 2)"), id="three-entries"),
    pytest.param(3, [(0, 1), (0,)], ("ValueError", "not enough values to unpack (expected 2, got 1)"), id="one-entry"),
    pytest.param(3, [(0, 1), (0, 1.5)], ("TypeError", "unsupported operand type(s) for >>: 'int' and 'float'"), id="float-vertex"),
    pytest.param(3, [(0, 1), ("a", 1)], ("TypeError", "'<=' not supported between instances of 'int' and 'str'"), id="string-vertex"),
    pytest.param(3, [(True, 2)], ("plain", 3, ((1, 2),)), id="bool-vertex"),
]

COLORED_BUILD_PINS = [
    pytest.param(3, [(0, 1, "x"), (0, 5, "r")], ("GraphError", "edge color must be 'r' or 'b', got 'x'"), id="color-then-range"),
    pytest.param(3, [(0, 5, "r"), (0, 1, "x")], ("VertexOutOfRangeError", "edge (0, 5) outside 0..2"), id="range-then-color"),
    pytest.param(3, [(0, 1, "r"), (1, 0, "x")], ("DuplicateEdgeError", "duplicate edge (1, 0)"), id="duplicate-before-its-color"),
    pytest.param(3, [(1, 1, "x")], ("SelfLoopError", "self-loop at 1"), id="loop-before-its-color"),
    pytest.param(3, [(0, 1, "r"), (1, 0, "b"), (2, 2, "r")], ("DuplicateEdgeError", "duplicate edge (1, 0)"), id="duplicate-then-loop"),
    pytest.param(3, [(2, 2, "r"), (0, 1, "r"), (1, 0, "b")], ("SelfLoopError", "self-loop at 2"), id="loop-then-duplicate"),
    pytest.param(3, [(0, -1, "r"), (0, 1, "x")], ("VertexOutOfRangeError", "edge (0, -1) outside 0..2"), id="negative-then-color"),
    pytest.param(3, [(0, 1, None)], ("GraphError", "edge color must be 'r' or 'b', got None"), id="none-color"),
    pytest.param(3, [(0, 1, ["r"])], ("GraphError", "edge color must be 'r' or 'b', got ['r']"), id="list-color"),
    pytest.param(3, [(0, 1, "r"), (0, 1)], ("ValueError", "not enough values to unpack (expected 3, got 2)"), id="two-entries"),
    # 0 <= 1.5 < 3 passes the bulk range check, so the float reaches the bulk
    # OR loop, whose TypeError sends the list to the per-edge replay
    pytest.param(3, [(0, 1.5, "r")], ("TypeError", "unsupported operand type(s) for >>: 'int' and 'float'"), id="float-vertex"),
    pytest.param(-1, [(0, 1, "r")], ("VertexOutOfRangeError", "negative vertex count -1"), id="negative-n"),
    pytest.param(-1, [], ("VertexOutOfRangeError", "negative vertex count -1"), id="negative-n-no-edges"),
    pytest.param(0, [], ("colored", 0, ()), id="n-zero"),
    pytest.param(4, [(2, 3, "b"), (1, 0, "r"), (3, 0, "r")], ("colored", 4, ((0, 1, "r"), (0, 3, "r"), (2, 3, "b"))), id="valid"),
]


@pytest.mark.parametrize("n, edges, expected", GRAPH_BUILD_PINS)
def test_graph_build_pins(n, edges, expected):
    assert built(Graph, n, edges) == expected
    if edges and all(len(e) == 2 for e in edges):
        assert built(lambda n, e: Graph.from_columns(n, *zip(*e)), n, edges) == expected


@pytest.mark.parametrize("n, edges, expected", COLORED_BUILD_PINS)
def test_colored_build_pins(n, edges, expected):
    assert built(graphs._colored_edge_by_edge, n, edges) == expected
    assert built(build_colored_graph, n, edges) == expected
    if all(len(e) == 3 for e in edges):
        columns = list(zip(*edges)) or [[], [], []]
        assert built(lambda n, _: ColoredGraph.from_columns(n, *columns), n, edges) == expected


def test_graph_takes_any_iterable():
    assert Graph(4, ((i, i + 1) for i in range(3))).edges == ((0, 1), (1, 2), (2, 3))


@pytest.mark.parametrize("seed", range(40))
def test_bulk_builders_agree_with_edge_by_edge(seed):
    # random edge lists with a few random defects: the builders and the
    # per-edge loop they fall back to give the same graph or the same error
    rng = random.Random(seed)
    n = rng.randrange(1, 12)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    rng.shuffle(pairs)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
    for _ in range(rng.randrange(3)):
        at = rng.randrange(len(edges) + 1)
        u = rng.randrange(-1, n + 1)
        edges.insert(at, rng.choice([(u, u), (u, n), (-1, u), edges[at - 1] if edges else (0, 0)]))
    colors = [rng.choice((RED, BLUE)) for _ in edges]
    if colors and rng.random() < 0.3:
        colors[rng.randrange(len(colors))] = "g"
    triples = [(u, v, c) for (u, v), c in zip(edges, colors)]
    def edge_by_edge(n, edges):
        return graphs._colored_edge_by_edge(n, ((u, v, BLUE) for u, v in edges)).graph

    assert built(Graph, n, edges) == built(edge_by_edge, n, edges)
    assert built(build_colored_graph, n, triples) == built(graphs._colored_edge_by_edge, n, triples)


def test_huge_vertex_count_is_a_graph_error():
    # the allocation fails at once for this count; no smaller one is tried
    with pytest.raises(GraphError, match="vertex count 1000000000000000 is too large"):
        Graph(10**15)
    with pytest.raises(GraphError, match="too large"):
        build_colored_graph(10**20, [(0, 1, RED)])


class TestColoredGraph:
    def test_color_lookup(self):
        cg = build_colored_graph(3, [(0, 1, RED), (1, 2, BLUE)])
        assert cg.color_of(1, 0) == RED
        assert cg.color_of(1, 2) == BLUE

    def test_missing_edge_raises(self):
        cg = build_colored_graph(3, [(0, 1, RED)])
        with pytest.raises(GraphError):
            cg.color_of(0, 2)

    def test_bad_color_rejected(self):
        with pytest.raises(ValueError):
            build_colored_graph(3, [(0, 1, "g")])

    def test_duplicate_colored_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_colored_graph(3, [(0, 1, RED), (1, 0, BLUE)])

    def test_masks_partition_edges(self):
        cg = random_colored(10, 0.5, 0.5, seed=1)
        for u, v in cg.graph.edges:
            bit_in_red = bool(cg.red_mask(u) >> v & 1)
            bit_in_blue = bool(cg.blue_mask(u) >> v & 1)
            assert bit_in_red != bit_in_blue
            assert (cg.color_of(u, v) == RED) == bit_in_red

    def test_color_class_views(self):
        cg = build_colored_graph(4, [(0, 1, RED), (1, 2, BLUE), (2, 3, RED)])
        red_view, blue_view = color_class_views(cg)
        assert red_view.edges == ((0, 1), (2, 3))
        assert blue_view.edges == ((1, 2),)

    def test_colored_edges_canonical(self):
        cg = build_colored_graph(4, [(3, 1, BLUE), (1, 0, RED)])
        assert cg.graph.edges == ((0, 1), (1, 3))
        assert (cg.color_of(0, 1), cg.color_of(1, 3)) == (RED, BLUE)


class TestTriangle:
    def test_vertices_sorted(self):
        t = Triangle((5, 1, 3), RED)
        assert t.vertices == (1, 3, 5)
        assert t.mask == (1 << 1) | (1 << 3) | (1 << 5)

    def test_distinct_vertices_required(self):
        with pytest.raises(ValueError):
            Triangle((1, 1, 2), RED)

    def test_color_validated(self):
        with pytest.raises(ValueError):
            Triangle((0, 1, 2), "purple")

    def test_triangle_record_from_color(self):
        cg = build_colored_graph(3, [(0, 1, RED), (0, 2, RED), (1, 2, RED)])
        assert Triangle((2, 0, 1), triangle_color(cg, 2, 0, 1)) == Triangle((0, 1, 2), RED)
        cg2 = build_colored_graph(3, [(0, 1, RED), (0, 2, RED), (1, 2, BLUE)])
        assert Triangle((0, 1, 2), triangle_color(cg2, 0, 1, 2)) == Triangle((0, 1, 2), MIXED)
        cg3 = build_colored_graph(3, [(0, 1, RED), (0, 2, RED)])
        assert triangle_color(cg3, 0, 1, 2) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_triangle_color_matches_edge_colors(self, seed):
        cg = random_colored(7, 0.7, 0.5, seed)
        for a, b, c in combinations(range(7), 3):
            pairs = ((a, b), (a, c), (b, c))
            if all(cg.graph.has_edge(u, v) for u, v in pairs):
                colors = {cg.color_of(u, v) for u, v in pairs}
                expected = colors.pop() if len(colors) == 1 else MIXED
            else:
                expected = None
            assert triangle_color(cg, a, b, c) == expected
            assert triangle_color(cg, c, a, b) == expected

    @pytest.mark.parametrize(
        "triple", [(0, 1, 7), (-1, 1, 2), (0, 1, 2.0), ("a", "b", "c"), (False, 1, 2), (0, 0, 1)]
    )
    def test_triangle_color_rejects_non_vertices(self, triple):
        cg = random_colored(7, 1.0, 0.5, seed=0)  # complete, so only the input is at fault
        assert triangle_color(cg, *triple) is None


class TestEdgesInside:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_sorted_brute_force(self, seed):
        # every adj-edge with both ends in the mask, each once as x < y, in
        # (x, y) order
        cg = random_colored(9, 0.6, 0.5, seed)
        rng = random.Random(seed)
        views = [
            [cg.red_mask(v) for v in range(9)],
            [cg.blue_mask(v) for v in range(9)],
            [cg.graph.neighbors_mask(v) for v in range(9)],
        ]
        for _ in range(20):
            inside = rng.getrandbits(9)
            members = [v for v in range(9) if inside >> v & 1]
            for adj in views:
                expected = sorted(
                    (x, y) for x in members for y in members
                    if x < y and adj[x] >> y & 1
                )
                assert list(edges_inside(adj, inside)) == expected


class TestTiling:
    def test_size_and_len(self):
        t = Tiling((Triangle((0, 1, 2), RED),), WEAK)
        assert t.size == 1
        assert len(t) == 1

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            Tiling((), "loose")
        Tiling((), STRONG)
        assert MIXED not in (WEAK, STRONG)


class TestMonoTriangleScan:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        cg = random_colored(9, 0.6, 0.5, seed)
        assert enumerate_mono_triangles(cg) == oracles.mono_triangles(cg)

    @pytest.mark.parametrize("seed", range(25))
    def test_scanned_records_equal_validated_ones(self, seed):
        # the scan builds its records without the public constructor's checks
        cg = random_colored(9, 0.6, 0.5, seed)
        for t in scan_mono_triangles(cg):
            assert t == Triangle(t.vertices, t.color)

    def test_enumeration_is_lexicographic(self):
        cg = random_colored(10, 0.7, 0.5, seed=3)
        tris = enumerate_mono_triangles(cg)
        assert tris == sorted(tris, key=lambda t: t.vertices)

    def test_first_is_head_of_enumeration(self):
        for seed in range(10):
            cg = random_colored(8, 0.7, 0.5, seed)
            tris = enumerate_mono_triangles(cg)
            first = first_mono_triangle(cg)
            assert first == (tris[0] if tris else None)
            rng = random.Random(seed)
            for _ in range(20):
                live = rng.getrandbits(cg.n)
                inside = [t for t in oracles.mono_triangles(cg) if t.mask & live == t.mask]
                assert list(scan_mono_triangles(cg, live)) == inside
                assert first_mono_triangle(cg, live) == (inside[0] if inside else None)

    @pytest.mark.parametrize("seed", range(10))
    def test_pair_scan_expands_to_the_triangles(self, seed):
        # one tuple per edge uv that closes a triangle, u < v in
        # lexicographic order, each expanding to the triangles u, v, w
        cg = random_colored(8, 0.7, 0.5, seed)
        rng = random.Random(seed)
        for live in [None] + [rng.getrandbits(cg.n) for _ in range(20)]:
            pairs = list(scan_mono_pairs(cg, live))
            assert all(closing >> (v + 1) << (v + 1) == closing != 0 for _, v, _, closing in pairs)
            assert [(u, v) for u, v, _, _ in pairs] == sorted({(u, v) for u, v, _, _ in pairs})
            expanded = [
                Triangle((u, v, w), color)
                for u, v, color, closing in pairs
                for w in iter_bits(closing)
            ]
            inside = [
                t for t in oracles.mono_triangles(cg)
                if live is None or t.mask & live == t.mask
            ]
            assert expanded == inside

    def test_live_mask_restricts_scan(self):
        cg = build_colored_graph(
            4,
            [(0, 1, RED), (0, 2, RED), (1, 2, RED), (1, 3, BLUE)],
        )
        assert first_mono_triangle(cg) == Triangle((0, 1, 2), RED)
        live = mask_of([1, 2, 3])
        assert first_mono_triangle(cg, live=live) is None


class TestWitness:
    def test_single_vertex_form(self):
        cg = build_colored_graph(
            4, [(0, 1, RED), (0, 2, RED), (1, 2, RED), (0, 3, BLUE)]
        )
        t = mono_triangle_witness(cg, 0)
        assert t == Triangle((0, 1, 2), RED)

    def test_single_vertex_blue_fallback(self):
        cg = build_colored_graph(
            4, [(0, 1, RED), (0, 2, BLUE), (0, 3, BLUE), (2, 3, BLUE)]
        )
        assert mono_triangle_witness(cg, 0) == Triangle((0, 2, 3), BLUE)

    def test_single_vertex_no_triangle(self):
        cg = build_colored_graph(3, [(0, 1, RED), (0, 2, BLUE)])
        assert mono_triangle_witness(cg, 0) is None

    def test_bad_vertices_rejected(self):
        cg = build_colored_graph(3, [(0, 1, RED), (0, 2, RED), (1, 2, RED)])
        with pytest.raises(VertexOutOfRangeError, match="vertex 3 outside 0..2"):
            mono_triangle_witness(cg, 3)
        with pytest.raises(VertexOutOfRangeError, match="vertex -1 outside 0..2"):
            mono_triangle_witness(cg, 0, -1)
        with pytest.raises(GraphError, match="distinct vertices"):
            mono_triangle_witness(cg, 1, 1)

    def test_two_vertex_form_finds_red_or_blue(self):
        # 2 and 3 sit in N_red(0) and N_blue(1); the red edge 2-3 closes a
        # red triangle at the red anchor.
        cg = build_colored_graph(
            5,
            [
                (0, 2, RED),
                (0, 3, RED),
                (1, 2, BLUE),
                (1, 3, BLUE),
                (2, 3, RED),
            ],
        )
        t = mono_triangle_witness(cg, 0, 1)
        assert t == Triangle((0, 2, 3), RED)

    def test_two_vertex_form_blue_edge_closes_at_blue_anchor(self):
        cg = build_colored_graph(
            5,
            [
                (0, 2, RED),
                (0, 3, RED),
                (1, 2, BLUE),
                (1, 3, BLUE),
                (2, 3, BLUE),
            ],
        )
        assert mono_triangle_witness(cg, 0, 1) == Triangle((1, 2, 3), BLUE)

    def test_two_vertex_alpha_guard(self):
        # The common neighborhood holds only 2 vertices; a bound of 2 means
        # an edgeless common neighborhood is still plausible, so the witness
        # must decline rather than search.
        cg = build_colored_graph(
            4,
            [(0, 2, RED), (0, 3, RED), (1, 2, BLUE), (1, 3, BLUE), (2, 3, RED)],
        )
        assert mono_triangle_witness(cg, 0, 1, alpha_bound=2) is None
        assert mono_triangle_witness(cg, 0, 1, alpha_bound=1) is not None

    @pytest.mark.parametrize("seed", range(15))
    def test_witness_is_always_monochromatic(self, seed):
        cg = random_colored(9, 0.7, 0.5, seed)
        for u in range(9):
            t = mono_triangle_witness(cg, u)
            if t is not None:
                assert u in t.vertices
                a, b, c = t.vertices
                assert (
                    cg.color_of(a, b) == cg.color_of(a, c) == cg.color_of(b, c) == t.color
                )

    @pytest.mark.parametrize("seed", range(15))
    def test_two_vertex_form_takes_first_common_edge(self, seed):
        # the lexicographically first edge xy inside N_R(u) & N_B(v); a red
        # xy closes at u, a blue one at v
        cg = random_colored(9, 0.7, 0.5, seed)
        for u, v in combinations(range(9), 2):
            for a, b in ((u, v), (v, u)):
                common = [
                    x for x in range(9)
                    if x not in (a, b)
                    and cg.graph.has_edge(a, x) and cg.graph.has_edge(b, x)
                    and cg.color_of(a, x) == RED and cg.color_of(b, x) == BLUE
                ]
                pairs = [p for p in combinations(common, 2) if cg.graph.has_edge(*p)]
                expected = None
                if pairs:
                    x, y = pairs[0]
                    color = cg.color_of(x, y)
                    expected = Triangle((a if color == RED else b, x, y), color)
                assert mono_triangle_witness(cg, a, b) == expected
