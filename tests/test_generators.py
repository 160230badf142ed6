"""Instance generators: catalog parts, colorings, certified constructions."""

from fractions import Fraction
from itertools import combinations

import pytest

from monotile.generators import (
    AVOID_V1,
    AVOID_V1_V3,
    BOWTIE_PAIRS,
    InfeasibleSizesError,
    circulant,
    complete_graph,
    extremal_instance,
    extremal_sidecar,
    five_part_instance,
    five_part_sidecar,
    petersen,
    random_coloring,
    triangle_free_low_alpha,
    triangle_free_process,
)
from monotile.graphs import BLUE, RED
from monotile.independence import is_triangle_free, max_independent_set_exact

import oracles

EXTREMAL_CASES = [(26, 13), (31, 16), (39, 22), (30, 18)]


class TestCatalogGraphs:
    def test_circulant_structure(self):
        c5 = circulant(5, (1,))
        assert c5.num_edges == 5
        assert all(c5.degree(v) == 2 for v in range(5))

    def test_catalog_entries_are_triangle_free_with_known_alpha(self):
        expectations = [
            (triangle_free_low_alpha(5), 2),
            (triangle_free_low_alpha(10), 4),
            (triangle_free_low_alpha(13), 4),
        ]
        for g, alpha in expectations:
            assert is_triangle_free(g)
            assert max_independent_set_exact(g).alpha == alpha

    def test_petersen_is_the_ten_vertex_entry(self):
        assert triangle_free_low_alpha(10) == petersen()

    def test_complete_graph(self):
        k6 = complete_graph(6)
        assert k6.num_edges == 15
        assert k6.min_degree() == 5

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            triangle_free_low_alpha(9, method="magic")

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            triangle_free_low_alpha(0)


class TestTriangleFreeProcess:
    @pytest.mark.parametrize("seed", range(10))
    def test_output_is_triangle_free(self, seed):
        g = triangle_free_process(12, seed)
        assert is_triangle_free(g)

    @pytest.mark.parametrize("seed", range(10))
    def test_output_is_maximal(self, seed):
        # adding any missing edge must close a triangle
        g = triangle_free_process(11, seed)
        adj = [g.neighbors_mask(v) for v in range(g.n)]
        for u, v in combinations(range(g.n), 2):
            if not g.has_edge(u, v):
                assert adj[u] & adj[v], f"edge ({u},{v}) extends the graph"

    def test_deterministic_per_seed(self):
        assert triangle_free_process(12, 7) == triangle_free_process(12, 7)
        assert triangle_free_process(12, 7) != triangle_free_process(12, 8)


class TestRandomColoring:
    def test_covers_all_edges(self):
        cg = random_coloring(complete_graph(9), 0.5, seed=1)
        assert cg.graph == complete_graph(9)
        assert len(oracles.colored_edges(cg)) == cg.graph.num_edges

    def test_extreme_probabilities(self):
        all_red = random_coloring(complete_graph(6), 1.0, seed=0)
        assert all(c == RED for _, _, c in oracles.colored_edges(all_red))
        all_blue = random_coloring(complete_graph(6), 0.0, seed=0)
        assert all(c == BLUE for _, _, c in oracles.colored_edges(all_blue))

    def test_out_of_range_probability(self):
        with pytest.raises(ValueError):
            random_coloring(complete_graph(4), 1.5, seed=0)

    def test_deterministic_per_seed(self):
        a = random_coloring(complete_graph(10), 0.5, seed=5)
        b = random_coloring(complete_graph(10), 0.5, seed=5)
        assert a == b


class TestRandomBipartite:
    def test_edges_cross_only(self):
        g = oracles.random_bipartite(6, 7, 0.5, seed=2)
        assert g.n == 13
        for u, v in g.edges:
            assert u < 6 <= v

    def test_density_extremes(self):
        assert oracles.random_bipartite(4, 5, 1.0, seed=0).num_edges == 20
        assert oracles.random_bipartite(4, 5, 0.0, seed=0).num_edges == 0


class TestExtremalInstance:
    @pytest.mark.parametrize("n,delta", EXTREMAL_CASES)
    def test_construction_invariants(self, n, delta):
        inst = extremal_instance(n, delta, seed=1)
        g = inst.colored_graph.graph
        assert inst.n == n
        assert sorted(v for part in inst.parts for v in part) == list(range(n))
        assert inst.achieved_min_degree == g.min_degree()
        assert g.min_degree() >= delta
        # parts are triangle-free in the underlying graph
        for part in inst.parts:
            sub = set(part)
            for a, b, c in combinations(sorted(sub), 3):
                assert not (
                    g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
                )

    @pytest.mark.parametrize("n,delta", EXTREMAL_CASES)
    def test_no_mono_triangle_meets_first_part(self, n, delta):
        inst = extremal_instance(n, delta, seed=1)
        v1 = inst.part_mask(0)
        for t in oracles.mono_triangles(inst.colored_graph):
            assert not t.mask & v1

    @pytest.mark.parametrize("n,delta", EXTREMAL_CASES)
    def test_certificate_premises_verify(self, n, delta):
        inst = extremal_instance(n, delta, seed=1)
        assert oracles.verify_certificate_premises(inst)

    def test_two_part_shape_at_half(self):
        inst = extremal_instance(26, 13, seed=1)
        assert [len(p) for p in inst.parts] == [13, 13]
        assert [c.kind for c in inst.certificates] == [AVOID_V1]
        assert inst.certificates[0].bound == (26 - 13) // 3

    def test_three_part_shapes(self):
        expected = {
            (31, 16): ([15, 15, 1], 5, 1),
            (39, 22): ([17, 17, 5], 7, 5),
            (30, 18): ([12, 12, 6], 6, 6),
        }
        for (n, delta), (sizes, avoid_bound, budget_bound) in expected.items():
            inst = extremal_instance(n, delta, seed=1)
            assert [len(p) for p in inst.parts] == sizes
            kinds = {c.kind: c.bound for c in inst.certificates}
            assert kinds[AVOID_V1] == avoid_bound
            assert kinds[AVOID_V1_V3] == budget_bound
            assert budget_bound == 2 * delta - n

    def test_budget_certificate_needs_room(self):
        # |V3| must stay small next to |V2|; when it does not, only the
        # avoidance certificate is issued
        inst = extremal_instance(30, 18, seed=1)
        sizes = [len(p) for p in inst.parts]
        assert 2 * sizes[2] <= sizes[1]

    def test_infeasible_sizes(self):
        with pytest.raises(InfeasibleSizesError):
            extremal_instance(20, 9, seed=0)  # 2*delta < n
        with pytest.raises(InfeasibleSizesError):
            extremal_instance(20, 20, seed=0)  # delta >= n

    def test_deterministic_per_seed(self):
        a = extremal_instance(31, 16, seed=9)
        b = extremal_instance(31, 16, seed=9)
        assert a.colored_graph == b.colored_graph

    def test_part_alphas_are_exact_and_small(self):
        inst = extremal_instance(31, 16, seed=1)
        for part, res in zip(inst.parts, inst.part_alphas):
            assert res.exact
            assert res.alpha <= len(part)


class TestFivePartInstance:
    def test_complete_blowup_pair_densities(self):
        inst = five_part_instance(4, 1.0, 1.0, seed=0)
        assert inst.n == 20
        assert set(inst.pair_densities) == set(BOWTIE_PAIRS)
        assert all(d == 1 for d in inst.pair_densities.values())

    def test_edges_respect_bowtie_pattern(self):
        inst = five_part_instance(5, 0.8, 0.5, seed=3)
        part_of = {}
        for i, part in enumerate(inst.parts):
            for v in part:
                part_of[v] = i
        allowed = {tuple(sorted(p)) for p in BOWTIE_PAIRS}
        for u, v in inst.colored_graph.graph.edges:
            pu, pv = part_of[u], part_of[v]
            assert pu != pv
            assert tuple(sorted((pu, pv))) in allowed

    def test_pair_densities_are_exact_counts(self):
        inst = five_part_instance(6, 0.7, 0.5, seed=4)
        g = inst.colored_graph.graph
        for (i, j), d in inst.pair_densities.items():
            cross = sum(
                1
                for u in inst.parts[i]
                for v in inst.parts[j]
                if g.has_edge(u, v)
            )
            assert d == Fraction(cross, 36)

    def test_all_red_blowup_is_all_red(self):
        inst = five_part_instance(3, 1.0, 1.0, seed=1)
        assert all(c == RED for _, _, c in oracles.colored_edges(inst.colored_graph))

    def test_bad_m(self):
        with pytest.raises(ValueError):
            five_part_instance(0, 1.0, 0.5, seed=0)


# extremal_sidecar text at seed 1 for shapes whose last part is short
SIDECAR_PINS = {
    (10, 6): (
        "kind = extremal\nn = 10\ndelta_target = 6\nell = 3\nseed = 1\n"
        "part_method = circulant_catalog\nachieved_min_degree = 7\n"
        "part_sizes = 4 4 2\npart_of_vertex = 0 0 0 0 1 1 1 1 2 2\n"
        "alpha_0 = 3 exact\nalpha_1 = 2 exact\nalpha_2 = 1 exact\n"
        "certificate_0 = AvoidV1 bound=2 parts=0\n"
        "certificate_1 = AvoidV1AndV3Budget bound=2 parts=1,2\n"
    ),
    (23, 20): (
        "kind = extremal\nn = 23\ndelta_target = 20\nell = 8\nseed = 1\n"
        "part_method = circulant_catalog\nachieved_min_degree = 21\n"
        "part_sizes = 3 3 3 3 3 3 3 2\n"
        "part_of_vertex = 0 0 0 1 1 1 2 2 2 3 3 3 4 4 4 5 5 5 6 6 6 7 7\n"
        + "".join(f"alpha_{i} = 2 exact\n" for i in range(7))
        + "alpha_7 = 1 exact\ncertificate_0 = AvoidV1 bound=6 parts=0\n"
    ),
    (43, 40): (
        "kind = extremal\nn = 43\ndelta_target = 40\nell = 15\nseed = 1\n"
        "part_method = circulant_catalog\nachieved_min_degree = 41\n"
        "part_sizes = 3 3 3 3 3 3 3 3 3 3 3 3 3 3 1\n"
        "part_of_vertex = 0 0 0 1 1 1 2 2 2 3 3 3 4 4 4 5 5 5 6 6 6 7 7 7 8 8 8 "
        "9 9 9 10 10 10 11 11 11 12 12 12 13 13 13 14\n"
        + "".join(f"alpha_{i} = 2 exact\n" for i in range(14))
        + "alpha_14 = 1 exact\ncertificate_0 = AvoidV1 bound=13 parts=0\n"
    ),
}


class TestSidecars:
    def test_extremal_sidecar_round_trip(self):
        inst = extremal_instance(31, 16, seed=1)
        meta = oracles.parse_sidecar(extremal_sidecar(inst))
        assert meta["kind"] == "extremal"
        assert meta["n"] == "31"
        assert meta["delta_target"] == "16"
        assert meta["part_sizes"] == "15 15 1"
        assert meta["achieved_min_degree"] == str(inst.achieved_min_degree)
        assert meta["certificate_0"].startswith("AvoidV1 ")

    def test_five_part_sidecar_round_trip(self):
        inst = five_part_instance(4, 1.0, 0.5, seed=2)
        meta = oracles.parse_sidecar(five_part_sidecar(inst))
        assert meta["kind"] == "five_part"
        assert meta["m"] == "4"
        assert meta["pair_density_0_1"] == "1"

    def test_parse_ignores_comments_and_blanks(self):
        meta = oracles.parse_sidecar("# note\n\na = 1\nb = two words\n")
        assert meta == {"a": "1", "b": "two words"}

    @pytest.mark.parametrize("shape", SIDECAR_PINS, ids=lambda shape: "n%d-delta%d" % shape)
    def test_pinned_extremal_sidecar(self, shape):
        assert extremal_sidecar(extremal_instance(*shape, seed=1)) == SIDECAR_PINS[shape]
