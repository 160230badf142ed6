"""Tiling solvers: exact vs brute force, heuristics, peeling, bound tables."""

import random
import types
from fractions import Fraction

import pytest

from monotile.errors import ParameterOutOfRangeError
from monotile.generators import (
    complete_graph,
    extremal_instance,
    five_part_instance,
    random_coloring,
)
from monotile.graphs import (
    BLUE,
    RED,
    STRONG,
    WEAK,
    Tiling,
    Triangle,
    build_colored_graph,
    iter_bits,
)
from monotile import graphs, solver
from monotile.solver import (
    _cover,
    _index,
    _minimal,
    _near,
    _reminimised,
    _searches,
    _transversal,
    bound_table,
    heuristic_tiling,
    max_mono_tiling_exact,
    peel_to_three_fifths,
    solve_report,
    verify_tiling,
)

import oracles


def random_colored(n: int, p_edge: float, p_red: float, seed: int):
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_edge:
                edges.append((u, v, RED if rng.random() < p_red else BLUE))
    return build_colored_graph(n, edges)


class TestExactSolver:
    @pytest.mark.parametrize("seed", range(30))
    def test_weak_matches_brute_force(self, seed):
        cg = random_colored(10, 0.6, 0.5, seed)
        res = max_mono_tiling_exact(cg, WEAK)
        assert res.exact
        assert res.tiling.size == oracles.max_weak_size(cg)
        assert verify_tiling(cg, res.tiling)

    @pytest.mark.parametrize("seed", range(30))
    def test_strong_matches_brute_force(self, seed):
        cg = random_colored(10, 0.6, 0.5, seed)
        res = max_mono_tiling_exact(cg, STRONG)
        assert res.exact
        assert res.tiling.size == oracles.max_strong_size(cg)
        assert verify_tiling(cg, res.tiling)

    def test_strong_at_most_weak(self):
        for seed in range(20):
            cg = random_colored(9, 0.7, 0.5, seed)
            weak = max_mono_tiling_exact(cg, WEAK).tiling.size
            strong = max_mono_tiling_exact(cg, STRONG).tiling.size
            assert strong <= weak

    def test_strong_tie_prefers_red(self):
        # one red and one blue triangle, vertex-disjoint: both colors give
        # size 1, so the reported strong tiling must be the red one
        cg = build_colored_graph(
            6,
            [
                (0, 1, RED),
                (0, 2, RED),
                (1, 2, RED),
                (3, 4, BLUE),
                (3, 5, BLUE),
                (4, 5, BLUE),
            ],
        )
        res = max_mono_tiling_exact(cg, STRONG)
        assert res.tiling.size == 1
        assert res.tiling.triangles[0].color == RED

    def test_empty_and_tiny_graphs(self):
        empty = build_colored_graph(0, [])
        assert max_mono_tiling_exact(empty).tiling.size == 0
        two = build_colored_graph(2, [(0, 1, RED)])
        assert max_mono_tiling_exact(two).tiling.size == 0

    def test_all_red_complete_graphs(self):
        for n, want in [(3, 1), (6, 2), (9, 3), (10, 3)]:
            cg = random_coloring(complete_graph(n), 1.0, seed=0)
            assert max_mono_tiling_exact(cg).tiling.size == want

    def test_bad_mode_rejected(self):
        cg = build_colored_graph(3, [])
        with pytest.raises(ValueError):
            max_mono_tiling_exact(cg, "mixed")

    def test_budget_exhaustion_reported(self):
        # ten disjoint red K4: the root bound is 13, the optimum 10
        cg = oracles.red_cliques(10, 4)
        res = max_mono_tiling_exact(cg, WEAK, budget=50)
        assert not res.exact
        assert verify_tiling(cg, res.tiling)

    def test_extremal_proven_within_small_budget(self):
        # the root transversal meets the certificate bound, so the search
        # closes long before the budget runs out
        inst = extremal_instance(39, 22, seed=1)
        res = max_mono_tiling_exact(inst.colored_graph, WEAK, budget=50)
        assert res.exact
        assert res.tiling.size == res.upper_bound_used == inst.best_bound()

    @pytest.mark.parametrize("mode", [WEAK, STRONG])
    def test_budget_0_reports_the_root_bound(self, mode):
        # no node is expanded, but the root bound comes from the root cover
        cg = five_part_instance(8, 0.5, 0.5, 0).colored_graph
        res = max_mono_tiling_exact(cg, mode, budget=0)
        assert not res.exact
        assert res.upper_bound_used == max_mono_tiling_exact(cg, mode).upper_bound_used == 7

    @pytest.mark.parametrize("mode, nodes", [(WEAK, 1), (STRONG, 2)])
    def test_budget_1_closes_at_the_root(self, mode, nodes):
        # the seeded incumbent meets the root bound, so the root (one per
        # colour in strong mode) is the whole proof
        cg = five_part_instance(8, 0.5, 0.5, 0).colored_graph
        res = max_mono_tiling_exact(cg, mode, budget=1)
        assert (res.exact, res.nodes_expanded) == (True, nodes)
        assert res.tiling.size == res.upper_bound_used == 7

    def test_node_budget_still_verifies(self):
        cg = random_colored(12, 0.8, 0.5, seed=0)
        res = max_mono_tiling_exact(cg, WEAK, budget=2)
        assert verify_tiling(cg, res.tiling)


def pinned_instance(spec):
    kind, *args = spec
    if kind == "extremal":
        n, delta, seed = args
        return extremal_instance(n, delta, seed=seed).colored_graph
    if kind == "traps":
        return oracles.greedy_traps(*args)
    if kind == "cliques":
        return oracles.red_cliques(*args)
    if kind == "random":
        n, p_red, seed = args
        return random_coloring(complete_graph(n), p_red, seed=seed)
    if kind == "gnp":
        n, p_edge, seed = args
        return random_colored(n, p_edge, 0.5, seed)
    m, density, seed = args
    return five_part_instance(m, density, 0.5, seed).colored_graph


TRAPS_10_TILING = " ".join(
    f"{o}-{o + 3}-{o + 4}r {o + 1}-{o + 2}-{o + 5}r" for o in range(0, 60, 6)
)

# (instance, mode, budget) -> (size, exact, nodes_expanded, upper_bound_used,
# tiling as "a-b-c<color>" words).  The node counts and the budgeted
# incumbents depend on the seeded incumbent (the heuristic's local search
# with its defaults), the branching order (triangles through the first
# covered vertex by id, then discarding it), the greedy tail taking the
# lowest-id live triangle first, and the root transversal (most live
# triangles first, lowest vertex on ties, then made minimal highest vertex
# first), carried to each node and made minimal again there.  A search whose incumbent meets the root bound stops at node 1.
# On disjoint red K4s the root bound exceeds the optimum, so a budget still
# runs out there.
SEARCH_ORDER_PINS = [
    (("extremal", 40, 22, 1), "weak", 1000, 4, True, 1, 4,
     "18-19-36b 20-23-37b 21-25-38b 22-24-39b"),
    (("extremal", 60, 33, 1), "weak", 1000, 6, True, 1, 6,
     "27-29-54b 28-30-55b 31-33-56b 32-35-57b 34-37-58b 36-40-59b"),
    (("traps", 10), "weak", None, 20, True, 1, 20,
     TRAPS_10_TILING),
    (("traps", 10), "strong", None, 20, True, 2, 20,
     TRAPS_10_TILING),
    (("five-part", 8, 0.5, 0), "weak", None, 7, True, 1, 7,
     "0-26-34r 1-12-22b 3-8-23b 4-28-33r 5-14-21r 6-13-17b 7-25-32r"),
    (("five-part", 8, 0.5, 0), "weak", 50, 7, True, 1, 7,
     "0-26-34r 1-12-22b 3-8-23b 4-28-33r 5-14-21r 6-13-17b 7-25-32r"),
    (("five-part", 8, 0.5, 0), "strong", None, 7, True, 2, 7,
     "0-27-34r 1-26-36r 2-12-17r 3-30-38r 4-28-33r 5-14-21r 7-25-32r"),
    (("five-part", 8, 0.5, 0), "strong", 50, 7, True, 2, 7,
     "0-27-34r 1-26-36r 2-12-17r 3-30-38r 4-28-33r 5-14-21r 7-25-32r"),
    (("five-part", 8, 0.5, 1), "weak", None, 7, True, 1, 7,
     "0-11-16b 1-8-21b 2-12-19r 3-14-18b 5-15-20b 6-29-34r 7-24-35r"),
    (("five-part", 8, 0.5, 1), "weak", 50, 7, True, 1, 7,
     "0-11-16b 1-8-21b 2-12-19r 3-14-18b 5-15-20b 6-29-34r 7-24-35r"),
    (("five-part", 8, 0.5, 1), "strong", None, 7, True, 2, 7,
     "0-13-18r 1-27-39r 2-12-19r 3-9-16r 5-28-35r 6-29-34r 7-24-36r"),
    (("five-part", 8, 0.5, 1), "strong", 50, 7, True, 2, 7,
     "0-13-18r 1-27-39r 2-12-19r 3-9-16r 5-28-35r 6-29-34r 7-24-36r"),
    (("five-part", 8, 0.5, 2), "weak", None, 8, True, 1, 8,
     "0-10-23b 1-12-16b 2-11-17r 3-26-34r 4-25-33b 5-13-18b 6-8-21r 7-27-32r"),
    (("five-part", 8, 0.5, 2), "weak", 50, 8, True, 1, 8,
     "0-10-23b 1-12-16b 2-11-17r 3-26-34r 4-25-33b 5-13-18b 6-8-21r 7-27-32r"),
    (("five-part", 8, 0.5, 2), "strong", None, 5, True, 2, 5,
     "2-11-17r 3-26-34r 4-27-32r 6-8-21r 7-13-20r"),
    (("five-part", 8, 0.5, 2), "strong", 50, 5, True, 2, 5,
     "2-11-17r 3-26-34r 4-27-32r 6-8-21r 7-13-20r"),
    (("five-part", 9, 0.6, 7), "weak", None, 9, True, 1, 9,
     "0-32-39r 1-12-25r 2-14-20r 3-13-21r 4-28-43b 5-16-26r 6-10-22r 7-11-19b 8-15-24b"),
    (("cliques", 10, 4), "weak", 50, 10, False, 51, 13,
     " ".join(f"{o}-{o + 1}-{o + 2}r" for o in range(0, 40, 4))),
    # the greedy transversal has a vertex to spare here (9 -> 8 in weak mode
    # and red, 10 -> 9 for (9, 0.6, 3) weak and red), so only the minimal
    # one meets the optimum at the root
    (("five-part", 8, 0.6, 0), "weak", None, 8, True, 1, 8,
     "0-11-20b 1-8-19b 2-25-34r 3-14-16b 4-13-17r 5-28-32r 6-26-33r 7-9-18r"),
    (("five-part", 8, 0.6, 0), "strong", None, 8, True, 2, 8,
     "0-27-32r 1-28-39r 2-25-34r 3-10-19r 4-13-16r 5-8-17r 6-26-33r 7-9-18r"),
    (("five-part", 9, 0.6, 3), "weak", None, 9, True, 1, 9,
     "0-10-20r 1-27-38r 2-12-26r 3-33-36b 4-16-18r 5-11-21r 6-14-22r 7-31-37r 8-9-25b"),
    (("five-part", 9, 0.6, 3), "strong", None, 9, True, 24, 9,
     "0-10-20r 1-27-38r 2-16-18r 3-9-26r 4-28-41r 5-11-21r 6-32-42r 7-31-37r 8-14-22r"),
    # a greedy completion below the root reaches the root bound; the search
    # stops there instead of drawing the 12 nodes still stacked
    (("five-part", 9, 0.6, 9), "strong", None, 9, True, 9, 9,
     "0-14-25r 1-17-18r 2-28-36r 3-12-23r 4-27-39r 5-29-43r 6-15-24r 7-13-19r 8-30-38r"),
]


# (instance, mode, iters, seed) -> (size, tiling as "a-b-c<color>" words).
# The tilings depend on the insertion pass taking ids in ascending order, on
# the (1,2)-swap taking the lexicographically first disjoint pair, and on the
# order of the ids a kick draws from.  With iters=0 the greedy-trap row is
# reached by (1,2)-swaps alone: canonical greedy gets 10.  The K_21 row is the
# one that changes when a swap pairs i with the highest disjoint id above it.
# Of the last four rows, the K_60 ones stay on vertex masks (the weak one's
# first greedy stops at 19, so its swaps run there) and the other two pass
# the vertex-mask search's cap and start over on the index.
HEURISTIC_PINS = [
    (("random", 21, 0.5, 3), "strong", 32, 3, 7,
     "0-1-14r 2-5-7r 3-15-17r 4-6-18r 8-11-12r 9-10-19r 13-16-20r"),
    (("random", 30, 0.5, 0), "weak", 32, 0, 10,
     "0-1-28b 2-23-26b 3-4-6b 5-7-9r 8-10-12b 11-13-17b 14-15-25b 16-19-21b 18-20-29b 22-24-27b"),
    (("random", 30, 0.5, 0), "strong", 32, 0, 10,
     "0-3-25r 1-5-10r 2-11-15r 4-12-19r 6-8-9r 7-27-28r 13-18-21r 14-17-22r 16-20-26r 23-24-29r"),
    (("random", 30, 0.5, 3), "weak", 32, 3, 10,
     "0-1-28r 2-3-6b 4-5-13b 7-25-27r 8-9-11b 10-12-18r 14-15-20b 16-17-24b 19-21-23b 22-26-29r"),
    (("random", 30, 0.5, 3), "strong", 32, 3, 10,
     "0-1-7r 2-10-11r 3-4-8r 5-22-28r 6-9-25r 12-13-15r 14-19-26r 16-18-23r 17-21-29r 20-24-27r"),
    (("random", 60, 0.5, 0), "weak", 32, 0, 20,
     "0-1-58b 2-54-56b 3-4-7r 5-6-8r 9-10-18b 11-12-23b 13-14-16r 15-17-19b 20-21-22b 24-25-31b 26-27-39b 28-29-33r 30-32-34r 35-36-40b 37-38-45b 41-42-55b 43-44-52b 46-47-51r 48-49-50b 53-57-59r"),
    (("random", 60, 0.5, 0), "strong", 32, 0, 20,
     "0-3-4r 1-8-10r 2-7-11r 5-6-12r 9-13-14r 15-16-18r 17-21-24r 19-23-26r 20-25-27r 22-29-58r 28-57-59r 30-31-45r 32-34-37r 33-35-42r 36-39-49r 38-40-43r 41-44-46r 47-48-51r 50-52-54r 53-55-56r"),
    (("random", 60, 0.5, 3), "weak", 32, 3, 20,
     "0-1-7r 2-3-6b 4-5-9b 8-10-12b 11-13-14r 15-16-21b 17-18-23b 19-20-30r 22-24-35b 25-26-28r 27-29-31b 32-33-37r 34-36-39b 38-40-45r 41-42-46r 43-44-49b 47-48-56b 50-51-53r 52-55-59b 54-57-58b"),
    (("random", 60, 0.5, 3), "strong", 32, 3, 20,
     "0-1-56r 2-5-59r 3-4-8r 6-11-13r 7-55-58r 9-10-15r 12-44-52r 14-20-22r 16-18-19r 17-25-27r 21-23-29r 24-28-31r 26-34-37r 30-32-40r 33-35-39r 36-45-54r 38-46-53r 41-42-47r 43-48-50r 49-51-57r"),
    (("five-part", 8, 0.5, 0), "weak", 32, 0, 7,
     "0-26-34r 1-12-22b 3-8-23b 4-28-33r 5-14-21r 6-13-17b 7-25-32r"),
    (("extremal", 60, 39, 1), "weak", 32, 0, 13,
     "21-22-58b 23-25-43b 24-26-44b 27-29-45b 28-33-46b 30-34-47b 31-42-56b 32-39-49b 35-48-55b 36-40-50b 37-51-57b 38-52-54b 41-53-59b"),
    (("traps", 10), "weak", 0, 0, 20,
     "0-3-4r 1-2-5r 6-9-10r 7-8-11r 12-15-16r 13-14-17r 18-21-22r 19-20-23r 24-27-28r 25-26-29r 30-33-34r 31-32-35r 36-39-40r 37-38-41r 42-45-46r 43-44-47r 48-51-52r 49-50-53r 54-57-58r 55-56-59r"),
    (("random", 60, 0.5, 1), "weak", 32, 0, 20,
     "0-1-12r 2-3-5b 4-7-59b 6-52-54r 8-9-10b 11-13-17b 14-15-20b 16-18-19r 21-22-23r 24-25-31r 26-27-32r 28-29-30r 33-34-44r 35-36-37r 38-39-43b 40-41-46b 42-45-51b 47-48-50r 49-53-55r 56-57-58r"),
    (("random", 60, 0.5, 2), "strong", 32, 0, 20,
     "0-3-8r 1-4-5r 2-9-25r 6-7-14r 10-12-15r 11-16-20r 13-17-19r 18-21-22r 23-24-30r 26-31-38r 27-29-35r 28-34-36r 32-39-42r 33-37-44r 40-41-43r 45-47-50r 46-49-51r 48-52-53r 54-55-57r 56-58-59r"),
    (("extremal", 40, 22, 0), "weak", 32, 0, 4,
     "18-19-36b 20-21-37b 22-25-38b 23-27-39b"),
    (("five-part", 8, 0.6, 1), "strong", 32, 0, 8,
     "0-27-32b 1-8-18b 2-24-38b 3-9-16b 4-28-39b 5-10-17b 6-15-21b 7-25-33b"),
]


class TestSearchOrder:
    @pytest.mark.parametrize(
        "spec, mode, budget, size, exact, nodes, bound, tiling", SEARCH_ORDER_PINS
    )
    def test_pinned_search(self, spec, mode, budget, size, exact, nodes, bound, tiling):
        cg = pinned_instance(spec)
        res = max_mono_tiling_exact(cg, mode, budget)
        got = " ".join(
            "%d-%d-%d%s" % (*t.vertices, t.color) for t in res.tiling.triangles
        )
        assert (res.tiling.size, res.exact, res.nodes_expanded, res.upper_bound_used) == (
            size, exact, nodes, bound,
        )
        assert got == tiling


class TestTransversal:
    @pytest.mark.parametrize("seed", range(20))
    def test_hits_every_triangle_and_bounds_the_packing(self, seed):
        # one index over every triangle, searched under the weak, red and
        # blue masks, as the solver searches it
        cg = random_colored(11, 0.7, 0.5, seed)
        (_, hits, _, _), masks = _searches(cg, WEAK, heuristic=True)
        triangles = oracles.mono_triangles(cg)
        for live in masks:
            searched = [t for i, t in enumerate(triangles) if live >> i & 1]
            hitting = _transversal(hits, live)
            assert all(t.mask & hitting for t in searched)
            assert not hitting & ~_cover(hits, live)
            assert hitting.bit_count() >= oracles.max_packing_size(searched)
            assert hitting == oracles.greedy_transversal([t.vertices for t in searched])

    def test_no_triangles_no_vertices(self):
        assert _transversal([], 0) == 0
        assert _minimal([], 0, 0) == 0

    @pytest.mark.parametrize("mode", [WEAK, STRONG])
    @pytest.mark.parametrize(
        "spec", sorted({row[0] for row in SEARCH_ORDER_PINS}, key=str),
        ids=lambda spec: "-".join(map(str, spec)),
    )
    def test_root_transversal_is_minimal(self, spec, mode):
        # the greedy stage is the oracle's greedy; the pass after it keeps a
        # part of it that still hits every searched triangle and from which
        # no single vertex can be dropped, and the solver's root bound is
        # read off that part
        cg = pinned_instance(spec)
        (verts, hits, _, _), masks = _searches(cg, mode)
        bounds = []
        for live in masks:
            triples = [t for i, t in enumerate(verts) if live >> i & 1]
            greedy = _transversal(hits, live)
            assert greedy == oracles.greedy_transversal(triples)
            hitting = _minimal(hits, greedy, live)
            assert not hitting & ~greedy
            assert oracles.is_minimal_transversal(triples, hitting)
            bounds.append(min(_cover(hits, live).bit_count() // 3, hitting.bit_count()))
        assert max_mono_tiling_exact(cg, mode, budget=0).upper_bound_used == max(bounds)

    @pytest.mark.parametrize("n, delta", [(40, 22), (60, 33), (90, 50)])
    def test_extremal_classes_proven_at_budget_1000(self, n, delta):
        # the extremal classes of the benchmark's extremal-budget workload:
        # the root bound meets the certificate, so every search is proven
        for seed in range(5):
            inst = extremal_instance(n, delta, seed=seed)
            res = max_mono_tiling_exact(inst.colored_graph, WEAK, budget=1000)
            assert res.exact
            assert res.tiling.size == inst.best_bound()


class TestCarriedTransversal:
    @pytest.mark.parametrize("seed", range(30))
    def test_each_step_reminimises_as_the_full_pass(self, seed):
        # from a minimal root set, random cover and discard steps down to no
        # live triangle: the set carried from the parent and retried on the
        # touched vertices is the full pass's set, and it is minimal
        rng = random.Random(seed)
        cg = random_colored(rng.randint(6, 13), 0.8, 0.5, seed)
        index, masks = _searches(cg, WEAK, heuristic=True)
        verts, hits, _, _ = index
        for live in masks:
            near = _near(index, live)
            hit = _minimal(hits, _transversal(hits, live), live)
            while live:
                v = rng.choice(list(iter_bits(_cover(hits, live))))
                i = rng.choice([*iter_bits(hits[v] & live), None])
                touched = 0
                for u in (v,) if i is None else verts[i]:
                    live &= ~hits[u]
                    touched |= near[u]
                parent = hit & _cover(hits, live)
                hit = _reminimised(hits, near, parent, touched, live)
                assert hit == _minimal(hits, parent, live)
                assert oracles.is_minimal_transversal([verts[j] for j in iter_bits(live)], hit)

    def test_carried_bound_closes_the_slowest_pool_search(self):
        # with the root set cut to the cover as the only bound below the
        # root, this strong search spent its 5000 nodes unproven
        cg = five_part_instance(9, 0.6, 0.5, 96).colored_graph
        res = max_mono_tiling_exact(cg, STRONG, budget=5000)
        assert (res.exact, res.tiling.size) == (True, 9)


class TestIndex:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_a_per_triangle_build(self, seed):
        cg = random_colored(4 + seed, 0.8, 0.5, seed)
        triangles = oracles.mono_triangles(cg)
        hits, near, cover = [0] * cg.n, [0] * cg.n, 0
        for i, t in enumerate(triangles):
            cover |= t.mask
            for v in t.vertices:
                hits[v] |= 1 << i
                near[v] |= t.mask
        index = verts, got_hits, red, adj = _index(cg)
        assert verts == [t.vertices for t in triangles]
        assert got_hits == hits
        assert [red >> i & 1 for i in range(len(triangles))] == [
            t.color == RED for t in triangles
        ]
        assert adj == [cg.graph.neighbors_mask(v) for v in range(cg.n)]
        every = (1 << len(triangles)) - 1
        # the exact search's near masks, built from hits alone
        assert [_cover(got_hits, h) for h in got_hits] == near
        assert _near(index, every) == near
        assert _cover(got_hits, every) == cover

    def test_no_triangles(self):
        assert _index(build_colored_graph(0, [])) == ([], [], 0, [])
        assert _index(build_colored_graph(3, [(0, 1, RED)])) == ([], [0, 0, 0], 0, [2, 1, 0])

    @pytest.mark.parametrize("seed", range(12))
    def test_colour_masks_partition_every_triangle(self, seed):
        cg = random_colored(10, 0.8, 0.5, seed)
        triangles = oracles.mono_triangles(cg)
        _, (every,) = _searches(cg, WEAK)
        assert every == (1 << len(triangles)) - 1
        assert _searches(cg, STRONG)[1] == _searches(cg, WEAK, heuristic=True)[1][1:]
        red, blue = _searches(cg, STRONG)[1]
        assert red & blue == 0 and red | blue == every
        assert [red >> i & 1 for i in range(len(triangles))] == [
            t.color == RED for t in triangles
        ]

    @pytest.mark.parametrize("mode", [WEAK, STRONG])
    @pytest.mark.parametrize(
        "spec", sorted({row[0] for row in SEARCH_ORDER_PINS}, key=str),
        ids=lambda spec: "-".join(map(str, spec)),
    )
    def test_near_from_neighbours_matches_the_full_build(self, spec, mode):
        # near[v] tests only v and its neighbours; the full build tests
        # every vertex
        index, masks = _searches(pinned_instance(spec), mode)
        _, hits, _, _ = index
        for live in masks:
            assert _near(index, live) == [_cover(hits, h & live) for h in hits]

    @pytest.mark.parametrize("mode", [WEAK, STRONG])
    def test_heuristic_passes_the_work_cap_on_random_colored_12(self, mode, monkeypatch):
        # an exact solve builds one index; the heuristic builds one only past
        # its work cap, which random_colored(12, 0.8, 0.5, seed=1) passes
        built = []
        monkeypatch.setattr(solver, "_index", lambda cg: built.append(cg) or _index(cg))
        cg = random_colored(12, 0.8, 0.5, seed=1)
        max_mono_tiling_exact(cg, mode)
        assert len(built) == 1
        heuristic_tiling(cg, mode, iters=4)
        assert len(built) == 2

    @pytest.mark.parametrize("mode", [WEAK, STRONG])
    @pytest.mark.parametrize(
        "solve",
        [lambda cg, mode: max_mono_tiling_exact(cg, mode).tiling, heuristic_tiling],
        ids=["exact", "heuristic"],
    )
    def test_records_built_only_for_the_answer(self, solve, mode, monkeypatch):
        # the searches carry ids; a Triangle is made for each returned
        # triangle, whether by the public constructor or by the scan
        built = []
        post_init = Triangle.__post_init__
        scanned = graphs._scanned_triangle

        def counting(tri):
            built.append(tri)
            post_init(tri)

        monkeypatch.setattr(Triangle, "__post_init__", counting)
        monkeypatch.setattr(graphs, "_scanned_triangle", lambda *a: built.append(a) or scanned(*a))
        cg = five_part_instance(8, 0.5, 0.5, 0).colored_graph
        tiling = solve(cg, mode)
        assert tiling.size == 7
        assert len(built) == tiling.size


def words(tiling):
    return " ".join("%d-%d-%d%s" % (*t.vertices, t.color) for t in tiling.triangles)


def index_path(cg, mode, iters, seed):
    """heuristic_tiling's searches over the triangle index alone."""
    return solver._checked_tiling(cg, solver._best_of(solver._id_searches(cg, mode), iters, seed), mode)


# Random colourings of K_n, coloured G(n, p), five-part blow-ups and an
# extremal instance: graphs where the vertex-mask search stays under its cap
# and graphs where it starts over on the index.
DIFFERENTIAL_FAMILY = (
    [("random", n, p_red, n) for n in range(0, 41, 4) for p_red in (0.1, 0.5, 0.9)]
    + [("gnp", n, p_edge, n) for n in (6, 13, 21, 30) for p_edge in (0.3, 0.6, 0.9)]
    + [("five-part", m, 0.6, m) for m in range(3, 10)]
    + [("extremal", 40, 22, 1)]
)


class TestHeuristicPaths:
    @pytest.mark.parametrize("mode", [WEAK, STRONG])
    @pytest.mark.parametrize("spec", DIFFERENTIAL_FAMILY, ids=str)
    def test_vertex_masks_match_the_index(self, spec, mode, monkeypatch):
        # heuristic_tiling, and the vertex-mask search with no cap at all,
        # make the index search's choices
        cg = pinned_instance(spec)
        for iters in (0, 1, 32):
            for seed in (0, 3):
                want = index_path(cg, mode, iters, seed)
                assert heuristic_tiling(cg, mode, iters, seed) == want
                with monkeypatch.context() as patch:
                    patch.setattr(solver._Cap, "spend", lambda self, work: None)
                    chosen = solver._best_of(solver._vertex_searches(cg, mode), iters, seed)
                assert solver._checked_tiling(cg, chosen, mode) == want

    def test_dense_weak_solve_builds_no_index(self, monkeypatch):
        def refuse(cg):
            raise AssertionError("the triangle index was built")

        monkeypatch.setattr(solver, "_index", refuse)
        t = heuristic_tiling(pinned_instance(("random", 30, 0.5, 0)), WEAK)
        assert t.size == 10

    def test_past_the_cap_returns_the_index_tiling(self, monkeypatch):
        built = []
        monkeypatch.setattr(solver, "_index", lambda cg: built.append(cg) or _index(cg))
        cg = pinned_instance(("extremal", 40, 22, 0))
        t = heuristic_tiling(cg, WEAK)
        assert len(built) == 1
        assert t == index_path(cg, WEAK, 32, 0)

    @pytest.mark.parametrize("path", [heuristic_tiling, index_path], ids=["vertex", "index"])
    def test_weak_stops_once_the_first_search_closes(self, path, monkeypatch):
        # the all-colour search reaches floor(30/3); the red and blue
        # searches cannot pass it, so they do not run
        calls = []
        local_search = solver._local_search
        monkeypatch.setattr(solver, "_local_search", lambda *a: calls.append(a) or local_search(*a))
        t = path(pinned_instance(("random", 30, 0.5, 0)), WEAK, 32, 0)
        assert len(calls) == 1
        assert words(t) == (
            "0-1-28b 2-23-26b 3-4-6b 5-7-9r 8-10-12b 11-13-17b 14-15-25b 16-19-21b 18-20-29b 22-24-27b"
        )


class TestHeuristic:
    @pytest.mark.parametrize("seed", range(20))
    def test_valid_and_never_above_exact(self, seed):
        cg = random_colored(10, 0.7, 0.5, seed)
        for mode in (WEAK, STRONG):
            t = heuristic_tiling(cg, mode, iters=8, seed=seed)
            assert verify_tiling(cg, t)
            assert t.size <= max_mono_tiling_exact(cg, mode).tiling.size

    @pytest.mark.parametrize("seed", range(20))
    def test_weak_never_trails_strong(self, seed):
        cg = random_colored(11, 0.8, 0.5, seed)
        weak = heuristic_tiling(cg, WEAK, iters=4, seed=0)
        strong = heuristic_tiling(cg, STRONG, iters=4, seed=0)
        assert strong.size <= weak.size

    @pytest.mark.parametrize("spec, mode, iters, seed, size, tiling", HEURISTIC_PINS)
    def test_pinned_choices(self, spec, mode, iters, seed, size, tiling):
        t = heuristic_tiling(pinned_instance(spec), mode, iters=iters, seed=seed)
        got = " ".join("%d-%d-%d%s" % (*x.vertices, x.color) for x in t.triangles)
        assert (t.size, got) == (size, tiling)

    @pytest.mark.parametrize(
        "edges, kicks",
        [
            # K_9 in red: greedy takes 012, 345, 678 = floor(9/3), no kick left to try
            ([(u, v) for u in range(9) for v in range(u + 1, 9)], 0),
            # 012, 024, 045 and 234 pairwise meet: one triangle, below floor(6/3)
            ([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5), (0, 4), (0, 5)], 5),
        ],
    )
    def test_kicks_stop_at_the_cover_bound(self, edges, kicks, monkeypatch):
        drawn = []

        class Counting(random.Random):
            def randrange(self, *args):
                drawn.append(args)
                return super().randrange(*args)

        monkeypatch.setattr(solver, "random", types.SimpleNamespace(Random=Counting))
        cg = build_colored_graph(1 + max(v for _, v in edges), [(u, v, RED) for u, v in edges])
        heuristic_tiling(cg, STRONG, iters=5)
        assert len(drawn) == kicks

    def test_deterministic(self):
        cg = random_colored(11, 0.8, 0.5, seed=3)
        a = heuristic_tiling(cg, WEAK, iters=16, seed=4)
        b = heuristic_tiling(cg, WEAK, iters=16, seed=4)
        assert a == b

    def test_finds_obvious_packing(self):
        cg = random_coloring(complete_graph(9), 1.0, seed=0)
        assert heuristic_tiling(cg, WEAK, iters=8, seed=0).size == 3


class TestVerifyTiling:
    def make(self, triangles, mode=WEAK):
        return Tiling(tuple(triangles), mode)

    def setup_method(self):
        self.cg = build_colored_graph(
            7,
            [
                (0, 1, RED),
                (0, 2, RED),
                (1, 2, RED),
                (3, 4, BLUE),
                (3, 5, BLUE),
                (4, 5, BLUE),
                (0, 3, RED),
                (1, 4, RED),
            ],
        )

    def test_accepts_valid_weak(self):
        t = self.make(
            [Triangle((0, 1, 2), RED), Triangle((3, 4, 5), BLUE)]
        )
        assert verify_tiling(self.cg, t)

    def test_rejects_overlap(self):
        t = self.make(
            [Triangle((0, 1, 2), RED), Triangle((2, 3, 4), BLUE)]
        )
        assert not verify_tiling(self.cg, t)

    def test_rejects_wrong_color_tag(self):
        t = self.make([Triangle((0, 1, 2), BLUE)])
        assert not verify_tiling(self.cg, t)

    def test_rejects_missing_edge(self):
        t = self.make([Triangle((0, 1, 6), RED)])
        assert not verify_tiling(self.cg, t)

    def test_rejects_out_of_range_vertex(self):
        t = self.make([Triangle((5, 6, 7), RED)])
        assert not verify_tiling(self.cg, t)

    def test_rejects_two_colors_in_strong(self):
        t = self.make(
            [Triangle((0, 1, 2), RED), Triangle((3, 4, 5), BLUE)], STRONG
        )
        assert not verify_tiling(self.cg, t)

    def test_accepts_single_color_strong(self):
        t = self.make([Triangle((0, 1, 2), RED)], STRONG)
        assert verify_tiling(self.cg, t)


class TestPeel:
    def test_all_red_k10_trace(self):
        cg = random_coloring(complete_graph(10), 1.0, seed=0)
        res = peel_to_three_fifths(cg)
        assert res.tiling.size == 3
        assert res.residual_order == 1
        assert res.reason == "min_degree"
        assert res.window_ok is True
        orders = [step.order for step in res.trace]
        assert orders == [10, 7, 4]
        for step in res.trace:
            assert 5 * step.min_degree >= 3 * step.order

    def test_no_mono_triangle_stop(self):
        edges = [
            (u, v, RED if (v - u) % 5 in (1, 4) else BLUE)
            for u in range(5)
            for v in range(u + 1, 5)
        ]
        cg = build_colored_graph(5, edges)
        res = peel_to_three_fifths(cg)
        assert res.tiling.size == 0
        assert res.reason == "no_mono_triangle"
        assert res.window_ok is None
        assert res.residual_order == 5

    def test_red_triangle_peels_to_nothing(self):
        cg = build_colored_graph(3, [(0, 1, RED), (0, 2, RED), (1, 2, RED)])
        res = peel_to_three_fifths(cg)
        assert res.tiling.triangles == (Triangle((0, 1, 2), RED),)
        assert res.reason == "no_mono_triangle"
        assert res.window_ok is None
        assert res.residual_order == 0
        assert res.residual_min_degree is None

    def test_sparse_input_stops_immediately(self):
        cg = build_colored_graph(6, [(0, 1, RED)])
        res = peel_to_three_fifths(cg)
        assert res.tiling.size == 0
        assert res.reason == "min_degree"
        assert res.residual == frozenset(range(6))

    def test_peeled_triangles_are_disjoint_and_mono(self):
        for seed in range(10):
            cg = random_coloring(complete_graph(11), 0.5, seed=seed)
            res = peel_to_three_fifths(cg)
            assert verify_tiling(cg, res.tiling)
            used = 0
            for t in res.tiling.triangles:
                assert not used & t.mask
                used |= t.mask


class TestBoundTable:
    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRangeError):
            bound_table(0, 0)
        with pytest.raises(ParameterOutOfRangeError):
            bound_table(10, 10)
        with pytest.raises(ParameterOutOfRangeError):
            bound_table(10, -1)

    def test_below_half_degrees(self):
        rep = bound_table(100, 49)
        assert rep.thm3_lower == 0
        assert rep.remarkA_upper is None
        assert rep.bft_weak == 0

    def test_at_half(self):
        rep = bound_table(100, 50)
        assert rep.thm3_lower == 0
        assert rep.remarkA_upper == Fraction(50, 3)

    def test_linear_window(self):
        rep = bound_table(100, 55)
        assert rep.thm3_lower == 10
        assert rep.remarkA_upper == 10
        assert rep.bft_weak == 0

    def test_above_three_fifths(self):
        rep = bound_table(100, 90)
        assert rep.thm3_lower == 30
        assert rep.remarkA_upper == 30

    def test_gamma_shifts_lower_bound(self):
        rep = bound_table(100, 55, gamma=Fraction(1, 100))
        assert rep.thm3_lower == 2 * 55 - 100 - 1

    def test_gamma_floor_at_zero(self):
        rep = bound_table(100, 51, gamma=Fraction(1, 10))
        assert rep.thm3_lower == 0

    def test_negative_gamma_rejected(self):
        # -gamma*n would lift thm3_lower past the matching remarkA_upper
        with pytest.raises(ParameterOutOfRangeError):
            bound_table(10, 6, gamma=-1)

    def test_window_decomposition_bft(self):
        # below 4n/5: zero; then the three pieces in order
        assert bound_table(100, 79).bft_weak == 0
        assert bound_table(100, 80).bft_weak == 0
        assert bound_table(100, 83).bft_weak == 15
        assert bound_table(100, 86).bft_weak == 22
        assert bound_table(100, 88).bft_weak == 25
        assert bound_table(100, 99).bft_weak == (2 * 99 - 100) // 3

    def test_piece_boundaries_are_continuous_enough(self):
        # the guarantee never decreases in delta at fixed n
        values = [bound_table(60, d).bft_weak for d in range(30, 60)]
        assert values == sorted(values)

    def test_thm3_below_remarkA(self):
        for n in (40, 60, 100):
            for d in range(n // 2, n):
                rep = bound_table(n, d)
                assert rep.remarkA_upper is not None
                assert rep.thm3_lower <= rep.remarkA_upper

    def test_as_dict_rationals(self):
        d = bound_table(100, 50).as_dict()
        assert d["remarkA_upper"] == "50/3"
        assert d["thm3_lower"] == 0
        rep = bound_table(100, 90).as_dict()
        assert rep["thm3_lower"] == 30


class TestSolveReport:
    def test_schema_and_values(self):
        cg = random_coloring(complete_graph(9), 1.0, seed=0)
        res = max_mono_tiling_exact(cg, WEAK)
        rep = solve_report(cg, res)
        assert rep["n"] == 9
        assert rep["delta"] == 8
        assert rep["mode"] == WEAK
        assert rep["size"] == 3
        assert rep["exact"] is True
        assert len(rep["tiling"]) == 3
        for a, b, c, color in rep["tiling"]:
            assert a < b < c
            assert color in (RED, BLUE)
        assert set(rep["bounds"]) == {"thm3", "remarkA", "bft"}

    def test_report_is_json_ready(self):
        import json

        cg = random_colored(8, 0.6, 0.5, seed=1)
        rep = solve_report(cg, max_mono_tiling_exact(cg))
        json.dumps(rep)  # no Fraction leakage

    def test_empty_graph_report(self):
        cg = build_colored_graph(0, [])
        rep = solve_report(cg, max_mono_tiling_exact(cg))
        assert rep["n"] == 0
        assert rep["size"] == 0

    def test_negative_gamma_rejected_on_empty_graph(self):
        cg = build_colored_graph(0, [])
        with pytest.raises(ParameterOutOfRangeError):
            solve_report(cg, max_mono_tiling_exact(cg), gamma=-1)
