"""Independence number solver against exhaustive subset enumeration."""

import random
from itertools import combinations

import pytest

from monotile.generators import triangle_free_process
from monotile.graphs import Graph, iter_bits
from monotile.independence import (
    _clique_cover_bound,
    greedy_independent,
    is_triangle_free,
    max_independent_set_exact,
)

import oracles


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
    )


class TestTriangleFree:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        g = random_graph(10, 0.25, seed)
        assert is_triangle_free(g) == oracles.is_triangle_free(g)

    def test_known_cases(self):
        c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert is_triangle_free(c5)
        k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert not is_triangle_free(k3)


class TestGreedyIndependent:
    @pytest.mark.parametrize("seed", range(8))
    def test_independent_maximal_and_taken_in_order(self, seed):
        g = random_graph(14, 0.35, seed)
        adj = [g.neighbors_mask(v) for v in range(g.n)]
        shuffled = list(range(g.n))
        random.Random(seed).shuffle(shuffled)
        for order in (range(g.n), shuffled):
            taken = []  # reference: take v unless a taken vertex is adjacent
            for v in order:
                if not any(g.has_edge(u, v) for u in taken):
                    taken.append(v)
            assert greedy_independent(adj, order) == sum(1 << v for v in taken)
            assert not any(g.has_edge(u, v) for u, v in combinations(taken, 2))
            for v in set(range(g.n)) - set(taken):
                assert any(g.has_edge(u, v) for u in taken)


class TestCliqueCoverBound:
    def test_matches_first_fit_partition(self):
        rng = random.Random(16)
        for trial in range(300):
            n = rng.randint(0, 30)
            # edgeless and complete graphs every tenth trial, else any density
            p = {0: 0.0, 1: 1.0}.get(trial % 10, rng.random())
            g = random_graph(n, p, trial)
            adj = [g.neighbors_mask(v) for v in range(n)]
            candidates = 0 if trial % 7 == 0 else rng.getrandbits(n)
            cliques = oracles.first_fit_clique_cover(adj, candidates)
            assert sum(cliques) == candidates
            for clique in cliques:
                assert all(clique & ~adj[v] == 1 << v for v in iter_bits(clique))
            assert _clique_cover_bound(adj, candidates) == len(cliques), trial


class TestExactIndependence:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_alpha_matches_brute_force(self, seed, p):
        g = random_graph(11, p, seed)
        res = max_independent_set_exact(g)
        assert res.exact
        assert res.alpha == oracles.max_independent_size(g)

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_is_independent_and_max(self, seed):
        g = random_graph(12, 0.5, seed)
        res = max_independent_set_exact(g)
        assert len(res.witness) == res.alpha
        for u in res.witness:
            for v in res.witness:
                assert u == v or not g.has_edge(u, v)

    def test_empty_and_edgeless(self):
        assert max_independent_set_exact(Graph(0, [])).alpha == 0
        res = max_independent_set_exact(Graph(6, []))
        assert res.alpha == 6
        assert sorted(res.witness) == list(range(6))

    def test_complete_graph(self):
        g = Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
        assert max_independent_set_exact(g).alpha == 1

    def test_budget_exhaustion_flagged(self):
        # seed 0 at this density needs ~33 nodes to close; one node cannot
        g = random_graph(16, 0.4, seed=0)
        res = max_independent_set_exact(g, budget=1)
        assert not res.exact
        assert res.alpha >= 1  # greedy seed still reported
        full = max_independent_set_exact(g)
        assert full.exact
        assert full.alpha >= res.alpha

    def test_node_count_reported(self):
        g = random_graph(12, 0.5, seed=3)
        res = max_independent_set_exact(g)
        assert res.nodes_expanded >= 1


def pinned_graph(spec):
    kind, *args = spec
    if kind == "process":
        return triangle_free_process(*args)
    return random_graph(*args)


# (graph, budget) -> (alpha, witness, exact, nodes_expanded).  The node
# counts and the budgeted witnesses depend on the branching order: the
# highest-degree candidate (ties to the lowest id), taken before it is
# excluded, with the ascending-id greedy set as the first incumbent.
ALPHA_PINS = [
    (("process", 20, 0), None, 8, "1 2 7 9 11 14 16 18", True, 43),
    (("process", 20, 0), 0, 7, "0 3 5 10 12 17 19", False, 1),
    (("process", 20, 0), 1, 7, "0 3 5 10 12 17 19", False, 2),
    (("process", 20, 0), 40, 8, "1 2 7 9 11 14 16 18", False, 41),
    (("process", 30, 1), None, 10, "2 4 6 8 11 16 17 19 21 23", True, 95),
    (("process", 30, 1), 40, 9, "4 9 11 13 20 23 24 25 28", False, 41),
    (("process", 40, 2), None, 13, "4 6 12 14 15 16 25 26 29 31 34 35 39", True, 255),
    (("process", 40, 2), 5, 9, "0 1 2 3 5 8 21 33 37", False, 6),
    (("process", 40, 2), 40, 10, "1 3 7 9 10 11 18 21 22 24", False, 41),
    (("random", 16, 0.4, 0), None, 6, "2 4 8 12 13 15", True, 33),
    (("random", 16, 0.4, 0), 1, 5, "0 1 3 9 11", False, 2),
    (("random", 16, 0.4, 0), 40, 6, "2 4 8 12 13 15", True, 33),
    (("random", 24, 0.3, 5), None, 8, "0 4 5 6 8 10 16 20", True, 63),
    (("random", 24, 0.3, 5), 5, 6, "0 1 3 9 10 21", False, 6),
    (("random", 24, 0.3, 5), 40, 7, "0 1 6 9 10 16 21", False, 41),
    (("random", 30, 0.5, 7), None, 6, "5 6 7 13 14 25", True, 67),
    (("random", 30, 0.5, 7), 0, 3, "0 3 17", False, 1),
    (("random", 30, 0.5, 7), 40, 5, "2 3 10 12 17", False, 41),
]


class TestSearchOrder:
    @pytest.mark.parametrize("spec, budget, alpha, witness, exact, nodes", ALPHA_PINS)
    def test_pinned_search(self, spec, budget, alpha, witness, exact, nodes):
        res = max_independent_set_exact(pinned_graph(spec), budget)
        got = " ".join(map(str, sorted(res.witness)))
        assert (res.alpha, got, res.exact, res.nodes_expanded) == (
            alpha, witness, exact, nodes,
        )
