"""Instance generators: catalog parts, colorings, certified constructions."""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

from monotile.cli import run_cli
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
from monotile.graphio import dump_colored_graph
from monotile.graphs import BLUE, RED, Graph, build_colored_graph
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


def masks(cg):
    return [
        (cg.graph.neighbors_mask(v), cg.red_mask(v), cg.blue_mask(v)) for v in range(cg.n)
    ]


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_coloring(complete_graph(0), 0.5, seed=0),
        lambda: random_coloring(complete_graph(1), 0.5, seed=0),
        lambda: random_coloring(complete_graph(23), 0.3, seed=2),
        lambda: random_coloring(oracles.random_bipartite(9, 14, 0.4, seed=3), 0.6, seed=4),
        lambda: random_coloring(Graph(90, [(u, u + 45) for u in range(45)]), 0.5, seed=5),
        lambda: extremal_instance(26, 13, seed=1).colored_graph,
        lambda: extremal_instance(43, 40, seed=1).colored_graph,
        lambda: extremal_instance(31, 16, "triangle_free_process", seed=2).colored_graph,
        lambda: five_part_instance(5, 0.7, 0.4, seed=6).colored_graph,
        lambda: five_part_instance(3, 1.0, 1.0, seed=0).colored_graph,
    ],
    ids=[
        "random-k0", "random-k1", "random-k23", "random-bipartite", "random-matching",
        "extremal-26-13", "extremal-43-40", "extremal-process", "five-part", "five-part-red",
    ],
)
def test_masks_match_the_checked_builder(build):
    # the generators fill their masks directly; the per-edge builder, fed the
    # same coloured edges, checks them and must give the same masks
    cg = build()
    assert masks(cg) == masks(build_colored_graph(cg.n, oracles.colored_edges(cg)))


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


# graphs that are not complete, for random_coloring pins
NON_COMPLETE = {
    "edgeless-5": lambda: Graph(5),
    "petersen": petersen,
    "circulant-13": lambda: circulant(13, (1, 5)),
    "bipartite-6-7": lambda: oracles.random_bipartite(6, 7, 0.5, seed=2),
    "matching-120": lambda: Graph(120, [(u, u + 60) for u in range(60)] + [(0, 1), (0, 119)]),
}


def generated(key, tmp_path):
    """The edges text and the sidecar text a GENERATE_PINS key stands for: a
    key starting with "coloring" names a NON_COMPLETE graph, a p_red and a
    seed for random_coloring, and has no sidecar; any other key is the argv
    of `generate` without --out."""
    if key[0] == "coloring":
        _, name, p_red, seed = key
        return dump_colored_graph(random_coloring(NON_COMPLETE[name](), float(p_red), int(seed))), None
    out = tmp_path / "x.edges"
    assert run_cli(["generate", *key, "--out", str(out)]) == 0
    return out.read_text(), (tmp_path / "x.edges.meta").read_text()


def sha(text):
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


# sha256 of the edges file and of the sidecar for each key of `generated`,
# recorded before the generators built their colour masks directly
GENERATE_PINS = {
    ("--random", "--n", "0", "--seed", "0"): (
        "0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101",
        "41e8a6373a92f145c2fddd4ee4ba41f8615715294963c7bbdc848c4f803ca683",
    ),
    ("--random", "--n", "1", "--seed", "0"): (
        "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7",
        "ba1f06de958ab1497cd13782e54f493dbb583f25d3f93bcadeaa3bd1bd524b4c",
    ),
    ("--random", "--n", "2", "--seed", "0"): (
        "4513e173e5fa53bf8353626c01b6c1a47489248195e9b5afc7d5de319952828e",
        "c44d9b459ca748132b1bc4c9793a201c1a5396add6a4ea9c397beecb252cbdef",
    ),
    ("--random", "--n", "2", "--seed", "5"): (
        "4513e173e5fa53bf8353626c01b6c1a47489248195e9b5afc7d5de319952828e",
        "b967ebf8bbfd82422b38996e24181a5d967e0c1a16b043c091a5c0405db71bdf",
    ),
    ("--random", "--n", "9", "--seed", "1"): (
        "b20c630b849d0849ed326c85deb0eafe4d1fc9267d50e81e57ddcd5309e8de9c",
        "d1ef3ebdfe9f1be5da9cceef079ac645af1039a47c7162c927bc58db773f038b",
    ),
    ("--random", "--n", "9", "--seed", "2", "--p-red", "0"): (
        "ede4e9e9f8730a381f237935ae5acc1cd8297df0e3989b8eb3bffee93e6b110b",
        "82092a240507e72076c77daba024e90d6d360aacf222034d8e7da4e53080e4c9",
    ),
    ("--random", "--n", "9", "--seed", "2", "--p-red", "1"): (
        "dfc81f9b909453b8a86adf043e7c9e0cee41641e36a98fce7da40bed92ea27e6",
        "d5c3d9922f50421ccd20f89f7088416c11a6923d61b6af1bc928d5d475f54399",
    ),
    ("--random", "--n", "9", "--seed", "3", "--p-red", "0.3"): (
        "026f398e6ae83511a5db63b316b6a080ff78221ed6e3249c279e438e57072c79",
        "43d2f68bfd072dd5779f7802bedc0f73a77ae3ed327e5b178d3f410010c4639c",
    ),
    ("--random", "--n", "60", "--seed", "7"): (
        "3a2790842e1d4dfa329c1e6a878d34817e804a892721a5db86905701cbfd8f1d",
        "cc4501de8d65ad54ac66bf367e70b86aa69cb4d1bfe10d85cfca1afcc2b36e6a",
    ),
    ("--random", "--n", "60", "--seed", "3"): (
        "79b9d2e36417618e1d8610037b52bec95b0e334f30b5edf0f432cc889fadce96",
        "75c678036aa8cf10d7bd225295b0d5c57d8aa5c6027e221512acdc699799e32d",
    ),
    ("--random", "--n", "60", "--seed", "11", "--p-red", "0.9"): (
        "709b524e6d22b95b4721597dbedd59d974445f1717561f47255a4f6fe41eb8bc",
        "bc8b9f29946cf5212d7f977e3ea91d308a6ce2cdf21ee8e3b99118e8e2a64a3e",
    ),
    ("coloring", "edgeless-5", "0.5", "0"): (
        "b6389159960d2522854674449b0124aa3b2302556663a40cf47c7225c47f71ca",
        None,
    ),
    ("coloring", "petersen", "0.5", "1"): (
        "ee471a024982f9b5ff8499a96be1f324167058e6431d40cb486e48234625f301",
        None,
    ),
    ("coloring", "circulant-13", "0.3", "2"): (
        "cd449d90f70878f354b8051e34e8ce7c87065562658775ea450be1fd5ad903b8",
        None,
    ),
    ("coloring", "bipartite-6-7", "0.5", "3"): (
        "afee493db89e6cd7c653d296ed08cfc4847bfcb2bc016355184869738ccf07bd",
        None,
    ),
    ("coloring", "matching-120", "0.5", "4"): (
        "85b58a9e21a715f7a25151b5e93604c092232560931d107a7274cad4b8780ade",
        None,
    ),
    ("--extremal", "--n", "26", "--delta", "13", "--seed", "1"): (
        "96236ffc2c28f1094ee56bdd5c99c959805eee831486ca558f11748c1abaf7bb",
        "663b05c2946fc8c584a18822de3063ffa3a2578b652fef1a237e28b2d2c7a332",
    ),
    ("--extremal", "--n", "40", "--delta", "22", "--seed", "1"): (
        "fb417f48da498d324fe1c3ca1f1f69c05000f355a1493bf3b9e22187ee0cbb34",
        "ea0246fbb7d918ad68dc5b133490c38ef04850bda942eba123fe49e8c2c438a5",
    ),
    ("--extremal", "--n", "60", "--delta", "33", "--seed", "2"): (
        "a58552c7cfc0e8eee1cf0dcfa360c50ea76d63029095fac7f0ee5075da80fe6c",
        "ce9856c2622a9e3a50083099bf3ec02747030d164d66f12e56414adf3e2419c5",
    ),
    ("--extremal", "--n", "90", "--delta", "50", "--seed", "5"): (
        "cb052efc22cd838cc7daed7a3dafec67ee07d887e8ed228817ceaa51ac41d262",
        "e1dbe31068aafd9c0fbbb8eabd765bcfe4d7b538d95749c72c9a9dbc2b12d435",
    ),
    ("--extremal", "--n", "31", "--delta", "16", "--seed", "1"): (
        "87e5f093f673ca3f36f23742b55365d9a7e0a6c0aa107561de845afe72355010",
        "323d4fa01ecf900548f2567a6b040a28d0611e87831bd848ce73cb2d61abc2a6",
    ),
    ("--extremal", "--n", "39", "--delta", "22", "--seed", "1"): (
        "0b2119b37fde4c50fd5cf4bb0eda52343e7f267e61b519526ec7bc85506ddd95",
        "d96ef29f0bb9fdfbc5a542f6e49edce891e958afbc9aceb63a9dadeb1226c80f",
    ),
    ("--extremal", "--n", "30", "--delta", "18", "--seed", "1"): (
        "6be88f0e140001525e576208acfde6ba1d8cc08b3e8cb07e0dbdb0ad9e710122",
        "07e7759a89a2bd569924a9f7b6cb502ece7256245d5761cbfb9f5a20adeed061",
    ),
    ("--extremal", "--n", "10", "--delta", "6", "--seed", "1"): (
        "53754f8ba977ffef87d69883038d37d9d593f7fc7ea445762e6f8fc860ec3d0c",
        "d78a564569234b733432159bc9a636ff7291e393722003603683f8d176f3d9ef",
    ),
    ("--extremal", "--n", "23", "--delta", "20", "--seed", "1"): (
        "b195677003f458ee6b87a88bfcf3d2fc020e885b80ce7f9c90b9b04714e08484",
        "54954765be6dbf0c7bc1348dceadb9a0248544fc75b5fb606e4d56e4108927a2",
    ),
    ("--extremal", "--n", "43", "--delta", "40", "--seed", "1"): (
        "0aca79c85c2353d6578308f9347a7279fcbbca6de0e96375d6f68e1e7f060bb6",
        "b3c7200c7fca325f361449f5f83c4b6fbdd528e9f506d10c89579fea23df38a4",
    ),
    ("--extremal", "--n", "40", "--delta", "22", "--seed", "1", "--part-method", "triangle_free_process"): (
        "fb417f48da498d324fe1c3ca1f1f69c05000f355a1493bf3b9e22187ee0cbb34",
        "ed7eeb418e8389ccb8d360c29c75f7ae17e056cad390c7ba387a582a402ae23e",
    ),
    ("--extremal", "--n", "31", "--delta", "16", "--seed", "4", "--part-method", "triangle_free_process"): (
        "676b9cb4843814e97b4acd19d3e08d7eec72ffc9855c2334c6780683b4b514bd",
        "6affec795ebb0aa2208a1ffde7b2751c3570282b4b7aa44009f6ae6afd697d14",
    ),
    ("--five-part", "--m", "8", "--density", "0.6", "--p-red", "0.5", "--seed", "1"): (
        "8e284e657b3312b059f61b420b19bc4c5ec99fd82037e98e744b86c2fbc2ba57",
        "2b0b68df95d09b718a0aacbbcdf9ec8737e0ea9d71167e4d72e21e19577359bd",
    ),
    ("--five-part", "--m", "9", "--density", "0.6", "--p-red", "0.5", "--seed", "3"): (
        "c9cba9d36094d10dc44b4c3dce9247d31c5cb7a580993ff1aa882b3f143d6bb8",
        "572380c415c9212c508705c6702bbdd4adcd2f655b81e79184c077786aacd18e",
    ),
    ("--five-part", "--m", "5", "--density", "1.0", "--p-red", "0.5", "--seed", "0"): (
        "4972bc8d443e71fba8da0a1473bfef73493b81a808270ff116d94fc4c7a70857",
        "349f05e8daa36e9f654110d52a6cf6bdacc9bb3f988ea6567c1ee58bed78a210",
    ),
    ("--five-part", "--m", "4", "--density", "1.0", "--p-red", "0.0", "--seed", "2"): (
        "3f07898d641698b1db8c3f483d31922172a0e3baa0bf4588dffc68374ab6483a",
        "f5271ea24532913c83996cec665f50de84f7dd27724e3b7366eda31b78a9533f",
    ),
    ("--five-part", "--m", "4", "--density", "1.0", "--p-red", "1.0", "--seed", "2"): (
        "17fae95f67b23780dd1e71bd5288f20a34b9112d995ecc7d8d99dfaa882e1a93",
        "da4b3aae250084f384d5974ff1d4b261080a3afc703e7c6da42c8357ff921f73",
    ),
    ("--five-part", "--m", "6", "--density", "0.5", "--p-red", "0.0", "--seed", "7"): (
        "6d64c77638964427f6c95a15de5069bce02a024f2641d782b00e36da7a7ec7ca",
        "d0cb6a206cc01843574106ba9b248cf18727adf84e20f1a65d1c2e7e384b2001",
    ),
    ("--five-part", "--m", "6", "--density", "0.5", "--p-red", "1.0", "--seed", "7"): (
        "095f355c052e16b649f618a3e65720e8306a3b2e499c618487970f972ebf4c44",
        "e1a6ce9229eed7d43af45c536be230275cc208577aeaeac31f1cef95fa7f8b8e",
    ),
}


@pytest.mark.parametrize(
    "key", GENERATE_PINS, ids=lambda key: "-".join(part.lstrip("-") for part in key)
)
def test_pinned_generate_output(key, tmp_path):
    edges, meta = generated(key, tmp_path)
    assert (sha(edges), sha(meta)) == GENERATE_PINS[key]
