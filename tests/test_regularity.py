"""Density testing, regularity refutation, typicality, dominating covers."""

import random
from fractions import Fraction

import pytest

from monotile.graphs import Graph
from monotile import regularity
from monotile.rationals import as_fraction
from monotile.regularity import (
    EXHAUSTIVE_SIDE_LIMIT,
    DegenerateParametersError,
    EmptySideError,
    OverlappingSidesError,
    density,
    dominating_greedy,
    reduced_min_degree_bound,
    regularity_refuter,
    t_bound,
    typical_vertex_filter,
)

import oracles
from oracles import random_bipartite


def bipartite_from_pairs(n: int, pairs) -> Graph:
    return Graph(n, sorted(pairs))


class TestDensity:
    def test_complete_pair(self):
        g = random_bipartite(4, 4, 1.0, seed=0)
        assert density(g, range(4), range(4, 8)) == 1

    def test_exact_fraction(self):
        g = bipartite_from_pairs(4, [(0, 2), (1, 2), (1, 3)])
        assert density(g, [0, 1], [2, 3]) == Fraction(3, 4)

    def test_empty_side_rejected(self):
        g = Graph(4, [])
        with pytest.raises(EmptySideError):
            density(g, [], [1])

    def test_overlap_rejected(self):
        g = Graph(4, [])
        with pytest.raises(OverlappingSidesError):
            density(g, [0, 1], [1, 2])

    def test_vertex_outside_graph_rejected(self):
        with pytest.raises(ValueError, match="side contains a vertex outside the graph"):
            density(Graph(4, []), [0], [7])


class TestRefuter:
    def test_complete_pair_is_regular(self):
        g = random_bipartite(6, 6, 1.0, seed=0)
        assert regularity_refuter(g, range(6), range(6, 12), Fraction(1, 4)) is None

    def test_empty_pair_is_regular(self):
        g = Graph(12, [])
        assert regularity_refuter(g, range(6), range(6, 12), Fraction(1, 4)) is None

    def test_half_split_pair_is_refuted(self):
        # A's first half saturates B, second half sees nothing: wildly
        # irregular at eps = 1/4
        pairs = [(u, v) for u in range(3) for v in range(6, 12)]
        g = bipartite_from_pairs(12, pairs)
        w = regularity_refuter(g, range(6), range(6, 12), Fraction(1, 4))
        assert w is not None
        assert w.deviation > Fraction(1, 4)

    @pytest.mark.parametrize("seed", range(12))
    def test_exhaustive_matches_brute_scan(self, seed):
        rng = random.Random(seed)
        pairs = [
            (u, v) for u in range(6) for v in range(6, 12) if rng.random() < 0.5
        ]
        if not pairs:
            return
        g = bipartite_from_pairs(12, pairs)
        eps = Fraction(1, 5)
        found = regularity_refuter(g, range(6), range(6, 12), eps)
        expected = oracles.regularity_witness_exists(
            g, list(range(6)), list(range(6, 12)), eps
        )
        assert (found is not None) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_witnesses_are_sound(self, seed):
        rng = random.Random(seed)
        pairs = [
            (u, v) for u in range(6) for v in range(6, 12) if rng.random() < 0.3
        ]
        if not pairs:
            return
        g = bipartite_from_pairs(12, pairs)
        eps = Fraction(1, 6)
        w = regularity_refuter(g, range(6), range(6, 12), eps)
        if w is not None:
            base = density(g, range(6), range(6, 12))
            assert abs(density(g, w.X, w.Y) - base) == w.deviation
            assert w.deviation > eps
            assert Fraction(len(w.X)) >= eps * 6
            assert Fraction(len(w.Y)) >= eps * 6

    def test_large_pair_sampled_mode_finds_planted_flaw(self):
        # 20 + 20 sides exceed the exhaustive limit; half of A sees all of
        # B, the other half nothing
        pairs = [(u, v) for u in range(10) for v in range(20, 40)]
        g = bipartite_from_pairs(40, pairs)
        w = regularity_refuter(g, range(20), range(20, 40), Fraction(1, 4))
        assert w is not None
        base = density(g, range(20), range(20, 40))
        assert abs(density(g, w.X, w.Y) - base) == w.deviation

    def test_large_regular_pair_sampled_mode_finds_nothing(self):
        # K_{13,13}: every sub-pair has density 1, so no fixed candidate and
        # no random sample deviates, and the same seed repeats the answer
        assert 13 > EXHAUSTIVE_SIDE_LIMIT
        g = random_bipartite(13, 13, 1.0, seed=0)
        for _ in range(2):
            assert regularity_refuter(g, range(13), range(13, 26), Fraction(1, 4), seed=3) is None

    @pytest.mark.parametrize("sample_count", [0, 5, 200])
    def test_eps_above_one_finds_nothing_in_either_mode(self, sample_count, monkeypatch):
        # no sub-pair reaches eps |A| vertices, so the sampled mode draws no
        # candidate (a sample size from an empty range) and answers as the
        # exhaustive mode does
        eps = Fraction(3, 2)
        small = random_bipartite(6, 6, 0.5, 3)
        assert regularity_refuter(small, range(6), range(6, 12), eps) is None
        monkeypatch.setattr(regularity, "_sampled_candidates", None)
        g = random_bipartite(15, 15, 0.5, 3)
        got = regularity_refuter(g, range(15), range(15, 30), eps, sample_count=sample_count)
        assert got is None

    def test_nonpositive_eps_rejected(self):
        g = random_bipartite(4, 4, 0.5, seed=0)
        with pytest.raises(ValueError):
            regularity_refuter(g, range(4), range(4, 8), 0)


# Sampled-mode answers on random_bipartite(a, b, p, seed), refuted with the
# same seed and the default sample_count: (sorted X, sorted Y, deviation) of
# the first witness, or None.  The rows' first witnesses come from a degree
# slice (13+13 s0, 20+20 s3, 20+20 s0) and from random samples 73, 14 and
# 190 (13+15 s1, 16+16 s27, 16+16 s5).  The refuter tests no neighbourhood
# slice: with the other side whole, the top and bottom degree slices of the
# minimum size bound every such candidate's density, so one never deviates
# first.
SAMPLED_PINS = {
    ((13, 13), 0.2, "1/4", 0): ((8, 9, 10, 11), (13, 19, 22, 25), "735/2704"),
    ((20, 20), 0.5, "1/8", 3): ((2, 5, 10), (22, 27, 29), "341/900"),
    ((20, 20), 0.5, "1/3", 0): (
        (0, 1, 3, 4, 5, 12, 19), (20, 21, 26, 30, 33, 38, 39), "7057/19600"
    ),
    ((13, 15), 0.5, "1/3", 1): ((1, 2, 8, 9, 11), (17, 18, 21, 22, 25), "334/975"),
    ((16, 16), 0.5, "1/4", 27): ((3, 7, 8, 14), (16, 17, 19, 20, 23, 28), "35/128"),
    ((16, 16), 0.8, "1/4", 5): ((1, 6, 7, 10, 14), (19, 27, 29, 30), "75/256"),
    ((13, 30), 0.8, "1/3", 2): None,
    ((13, 13), 0.2, "1/4", 4): None,
}


def _pin_id(key) -> str:
    (a, b), p, eps, seed = key
    return f"{a}+{b}-p{p}-eps{eps.replace('/', '_')}-seed{seed}"


@pytest.mark.parametrize("key", SAMPLED_PINS, ids=_pin_id)
def test_sampled_refuter_pins(key):
    (a, b), p, eps, seed = key
    assert max(a, b) > EXHAUSTIVE_SIDE_LIMIT
    g = random_bipartite(a, b, p, seed)
    w = regularity_refuter(g, range(a), range(a, a + b), Fraction(eps), seed=seed)
    got = None if w is None else (tuple(sorted(w.X)), tuple(sorted(w.Y)), str(w.deviation))
    assert got == SAMPLED_PINS[key]


def test_float_parameters_have_decimal_intent():
    assert as_fraction(0.1) == Fraction(1, 10)
    assert Fraction(0.1) != Fraction(1, 10)


class TestTypicality:
    def test_threshold_is_strict(self):
        # all of A sees exactly half of Y = B: with d - eps = 1/2, ties must
        # land atypical
        pairs = [(u, v) for u in range(4) for v in (4, 5)]
        g = bipartite_from_pairs(8, pairs)
        typical, atypical = typical_vertex_filter(
            g, range(4), range(4, 8), range(4, 8), Fraction(3, 5), Fraction(1, 10)
        )
        assert typical == frozenset()
        assert atypical == frozenset(range(4))

    def test_split_by_degree(self):
        pairs = [(0, v) for v in range(4, 8)] + [(1, 4)]
        g = bipartite_from_pairs(8, pairs)
        typical, atypical = typical_vertex_filter(
            g, range(4), range(4, 8), range(4, 8), Fraction(1, 2), Fraction(1, 10)
        )
        assert 0 in typical
        assert {1, 2, 3} <= atypical

    def test_y_must_be_inside_b(self):
        g = Graph(8, [])
        with pytest.raises(ValueError):
            typical_vertex_filter(
                g, range(4), range(4, 8), [0], Fraction(1, 2), Fraction(1, 10)
            )

    def test_empty_y_rejected(self):
        g = Graph(8, [])
        with pytest.raises(EmptySideError):
            typical_vertex_filter(
                g, range(4), range(4, 8), [], Fraction(1, 2), Fraction(1, 10)
            )


class TestTBound:
    def test_reference_values(self):
        assert t_bound(Fraction(1, 2), Fraction(1, 10)) == 7
        assert t_bound(Fraction(9, 10), Fraction(1, 10)) == 2

    def test_values_against_direct_powering(self):
        for d, eps in [
            (Fraction(1, 2), Fraction(1, 10)),
            (Fraction(9, 10), Fraction(1, 10)),
            (Fraction(2, 3), Fraction(1, 12)),
            (Fraction(4, 5), Fraction(1, 20)),
        ]:
            t = t_bound(d, eps)
            base = 1 - (d - 2 * eps)
            assert base**t < eps
            assert base ** (t - 1) >= eps

    def test_boundary_equality_needs_one_more_step(self):
        # gamma = 1/2, eps = 1/4: (1/2)^2 equals eps exactly, so the strict
        # inequality first holds at t = 3
        assert t_bound(1, Fraction(1, 4)) == 3

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(DegenerateParametersError):
            t_bound(Fraction(1, 10), Fraction(1, 10))
        with pytest.raises(DegenerateParametersError):
            t_bound(Fraction(1, 2), 0)


class TestDominatingGreedy:
    def test_covers_complete_pair_in_one_pick(self):
        g = random_bipartite(5, 8, 1.0, seed=0)
        res = dominating_greedy(g, range(5), range(5, 13), Fraction(1, 2), Fraction(1, 10))
        assert len(res.picks) == 1
        assert len(res.covered) == 8
        assert res.irregular_steps == ()

    def test_deterministic(self):
        g = random_bipartite(30, 30, 0.5, seed=4)
        r1 = dominating_greedy(g, range(30), range(30, 60), Fraction(1, 2), Fraction(1, 10))
        r2 = dominating_greedy(g, range(30), range(30, 60), Fraction(1, 2), Fraction(1, 10))
        assert r1 == r2

    def test_uncovered_trace_shape(self):
        g = random_bipartite(40, 40, 0.5, seed=1)
        res = dominating_greedy(g, range(40), range(40, 80), Fraction(1, 2), Fraction(1, 10))
        assert len(res.uncovered_sizes) == len(res.picks) + 1
        assert res.uncovered_sizes[0] == 40
        # each recorded pick shrinks the uncovered side
        assert all(
            later < earlier
            for earlier, later in zip(res.uncovered_sizes, res.uncovered_sizes[1:])
        )

    def test_respects_t_target(self):
        g = random_bipartite(50, 50, 0.3, seed=2)
        res = dominating_greedy(g, range(50), range(50, 100), Fraction(1, 2), Fraction(1, 10))
        assert len(res.picks) <= res.t_target == 7

    def test_edgeless_pair_flags_every_step(self):
        g = Graph(8, [])
        res = dominating_greedy(g, range(4), range(4, 8), Fraction(1, 2), Fraction(1, 10))
        # nothing can cover anything: every pick is an irregular fallback
        assert res.picks != ()
        assert res.irregular_steps == tuple(range(len(res.picks)))
        assert len(res.covered) == 0

    def test_geometric_shrink_when_unflagged(self):
        g = random_bipartite(60, 60, 0.6, seed=5)
        res = dominating_greedy(g, range(60), range(60, 120), Fraction(1, 2), Fraction(1, 10))
        gamma = Fraction(1, 2) - 2 * Fraction(1, 10)
        for i, (before, after) in enumerate(
            zip(res.uncovered_sizes, res.uncovered_sizes[1:])
        ):
            if i not in res.irregular_steps:
                assert Fraction(after) <= (1 - gamma) * before


class TestReducedMinDegree:
    def test_formula(self):
        got = reduced_min_degree_bound(60, 100, Fraction(1, 10), Fraction(1, 100), 50)
        assert got == (Fraction(60, 100) - Fraction(11, 100)) * 50

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            reduced_min_degree_bound(10, 0, 0, 0, 5)
        with pytest.raises(ValueError):
            reduced_min_degree_bound(10, 20, 0, 0, 0)
