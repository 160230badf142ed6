"""Chromatic profiles, bowtie reductions, constrained triangle finding."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from monotile import theory
from monotile.errors import ParameterOutOfRangeError
from monotile.generators import (
    circulant,
    complete_graph,
    five_part_instance,
    random_coloring,
)
from monotile.graphs import BLUE, RED, Graph, build_colored_graph
from monotile.regularity import t_bound
from monotile.theory import (
    ArithmeticConstraintViolatedError,
    CountIdentityViolatedError,
    F2Copy,
    NotPerfectError,
    TooLargeError,
    admissible_C,
    auxiliary_reduction,
    bowtie_graph,
    chromatic_parameters,
    classify_f2_copies,
    f2_tiling_exact,
    five_part_tiler,
    three_part_mono_finder,
)

import oracles


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
    )


def dense_reduction(k: int, seed: int):
    """Seeded dense base whose padding hypothesis holds."""
    rng = random.Random(seed)
    p = 0.66 if k == 20 else 0.62
    for _ in range(300):
        g = Graph(
            k,
            [
                (u, v)
                for u in range(k)
                for v in range(u + 1, k)
                if rng.random() < p
            ],
        )
        d = g.min_degree()
        if 2 * d > k and 5 * d <= 3 * k:
            C = admissible_C(k, d, 0)
            red = auxiliary_reduction(g, C, 0)
            if red.hypothesis_ok:
                return red
    raise AssertionError(f"no usable base graph for k={k}, seed={seed}")


class TestChromaticParameters:
    def test_bowtie_profile(self):
        p = chromatic_parameters(bowtie_graph())
        assert (p.chi, p.sigma) == (3, 1)
        assert p.chi_cr == Fraction(5, 2)
        assert p.hcf_chi == 1
        assert p.hcf_c is None  # connected: no component-order gaps
        assert p.hcf == 1
        assert p.chi_star == Fraction(5, 2)

    def test_triangle_profile(self):
        p = chromatic_parameters(complete_graph(3))
        assert (p.chi, p.sigma) == (3, 1)
        assert p.chi_cr == 3
        assert p.hcf_chi is None  # all classes size 1
        assert p.hcf is None
        assert p.chi_star == 3

    def test_single_edge_profile(self):
        p = chromatic_parameters(Graph(2, [(0, 1)]))
        assert (p.chi, p.sigma) == (2, 1)
        assert p.chi_cr == 2
        assert p.chi_star == 2

    def test_disconnected_components_feed_hcf(self):
        # triangle plus an edge: component orders 3 and 2 differ by 1
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        p = chromatic_parameters(g)
        assert p.hcf_c == 1

    def test_two_equal_components_are_inf(self):
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        p = chromatic_parameters(g)
        assert p.hcf_c is None

    @pytest.mark.parametrize("seed", range(10))
    def test_chi_sigma_match_brute_force(self, seed):
        g = random_graph(7, 0.5, seed)
        if g.num_edges == 0:
            return
        chi, sigma, diffs = oracles.sigma_and_differences(g)
        p = chromatic_parameters(g)
        assert p.chi == chi
        assert p.sigma == sigma
        nonzero = {x for x in diffs if x}
        if nonzero:
            import math

            assert p.hcf_chi == math.gcd(*nonzero)
        else:
            assert p.hcf_chi is None

    def test_chi_cr_identity(self):
        for seed in range(6):
            g = random_graph(7, 0.6, seed)
            if g.num_edges == 0:
                continue
            p = chromatic_parameters(g)
            assert p.chi_cr == Fraction((p.chi - 1) * g.n, g.n - p.sigma)

    def test_size_limit(self):
        with pytest.raises(TooLargeError):
            chromatic_parameters(Graph(13, [(0, 1)]))

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            chromatic_parameters(Graph(3, []))


class TestAdmissibleC:
    def test_reference_values(self):
        assert admissible_C(60, 33, 0) == Fraction(25, 2)
        assert admissible_C(20, 12, 0) == 10

    def test_out_of_range(self):
        with pytest.raises(ParameterOutOfRangeError):
            admissible_C(20, 10, 0)  # delta <= k/2
        with pytest.raises(ParameterOutOfRangeError):
            admissible_C(20, 13, 0)  # delta > (3/5)k

    @pytest.mark.parametrize(
        "k,delta,c_f2",
        [(60, 33, 0), (20, 12, 0), (25, 13, 0), (40, 22, Fraction(1, 2)), (50, 27, 2)],
    )
    def test_minimality_and_conditions(self, k, delta, c_f2):
        C = admissible_C(k, delta, c_f2)
        w = Fraction(3, 2) * k - Fraction(5, 2) * delta + C
        total = Fraction(5, 2) * k - Fraction(5, 2) * delta + C

        def satisfies(c):
            wv = Fraction(3, 2) * k - Fraction(5, 2) * delta + c
            tv = Fraction(5, 2) * k - Fraction(5, 2) * delta + c
            return (
                c >= Fraction(5, 2) * c_f2 + 10
                and wv.denominator == 1
                and wv >= 0
                and tv.denominator == 1
                and tv % 5 == 0
            )

        assert satisfies(C)
        assert w.denominator == 1 and w >= 0
        assert total % 5 == 0
        # nothing smaller on the half-integer lattice works
        candidate = Fraction(1, 2)
        while candidate < C:
            assert not satisfies(candidate)
            candidate += Fraction(1, 2)


class TestAuxiliaryReduction:
    def test_matching_complement_arithmetic(self):
        # K20 minus a perfect matching: 18-regular, arithmetic-valid at C=25
        edges = [
            (u, v)
            for u in range(20)
            for v in range(u + 1, 20)
            if not (u % 2 == 0 and v == u + 1)
        ]
        g = Graph(20, edges)
        assert g.min_degree() == 18
        red = auxiliary_reduction(g, 25, 0)
        assert red.w_size == 10
        assert red.aux.n == 30

    def test_regular_circulant_degrees(self):
        g = circulant(60, tuple(range(1, 17)) + (30,))
        assert g.min_degree() == 33
        red = auxiliary_reduction(g, Fraction(25, 2), 0)
        assert red.w_size == 20
        assert red.aux.n == 80
        assert red.aux_min_degree == 53

    def test_padding_is_independent_and_complete_to_base(self):
        red = dense_reduction(20, seed=0)
        aux = red.aux
        base = range(red.k)
        for w in red.w_vertices:
            for w2 in red.w_vertices:
                assert not aux.has_edge(w, w2) if w != w2 else True
            for v in base:
                assert aux.has_edge(w, v)

    def test_arithmetic_violation(self):
        g = complete_graph(6)
        with pytest.raises(ArithmeticConstraintViolatedError):
            auxiliary_reduction(g, Fraction(1, 3), 0)

    def test_padded_order_not_divisible_by_5(self):
        # the 5-cycle: |W| = 15/2 - 5 + 1/2 = 3 is an integer, but 5 + 3 = 8
        with pytest.raises(ArithmeticConstraintViolatedError, match="padded order 8 is not divisible by 5"):
            auxiliary_reduction(circulant(5, (1,)), Fraction(1, 2))

    def test_hypothesis_flag_false_when_padding_starves(self):
        # k=20 with delta=11 forces |W|=15 and a 35-vertex auxiliary graph
        # whose padded degree min(20, 11+15)=20 misses the (3/5)*35 = 21
        # threshold; an 11-regular circulant realizes this deterministically
        g = circulant(20, (1, 2, 3, 4, 5, 10))
        assert g.min_degree() == 11
        red = auxiliary_reduction(g, admissible_C(20, 11, 0), 0)
        assert red.w_size == 15
        assert red.aux.n == 35
        assert red.aux_min_degree == 20
        assert not red.hypothesis_ok


class TestF2Tiling:
    def test_bowtie_itself(self):
        res = f2_tiling_exact(bowtie_graph(), require_perfect=True)
        assert res.perfect
        assert len(res.copies) == 1

    def test_two_disjoint_bowties(self):
        pattern = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]
        g = Graph(10, pattern + [(a + 5, b + 5) for a, b in pattern])
        res = f2_tiling_exact(g, require_perfect=True)
        assert res.perfect
        assert len(res.copies) == 2

    def test_k5_spans_one_copy(self):
        res = f2_tiling_exact(complete_graph(5))
        assert len(res.copies) == 1
        assert res.perfect

    def test_wrong_order_fails_fast(self):
        res = f2_tiling_exact(complete_graph(6), require_perfect=True)
        assert not res.perfect
        assert res.nodes_expanded == 0

    def test_cycle_has_no_copy(self):
        c5 = circulant(5, (1,))
        assert f2_tiling_exact(c5).copies == ()
        assert not f2_tiling_exact(c5, require_perfect=True).perfect

    @pytest.mark.parametrize("seed", range(12))
    def test_max_matches_brute_force(self, seed):
        g = random_graph(10, 0.55, seed)
        res = f2_tiling_exact(g)
        assert res.exact
        assert len(res.copies) == oracles.max_bowtie_packing(g)

    @pytest.mark.parametrize("spec, require_perfect", [
        pytest.param(("random", 12, 0.6, 3), False, id="random-maximum"),
        pytest.param(("reduction", 20, 0), True, id="reduction-perfect"),
    ])
    def test_copies_are_valid_and_disjoint(self, spec, require_perfect):
        g = pinned_f2_graph(spec)
        res = f2_tiling_exact(g, require_perfect)
        assert res.copies
        used = 0
        for copy in res.copies:
            assert not used & copy.mask
            used |= copy.mask
            (a1, a2), (b1, b2) = copy.wings
            for x, y in [
                (copy.center, a1),
                (copy.center, a2),
                (a1, a2),
                (copy.center, b1),
                (copy.center, b2),
                (b1, b2),
            ]:
                assert g.has_edge(x, y)

    @pytest.mark.parametrize("spec, require_perfect", [
        pytest.param(("random", 15, 0.7, 2), False, id="random-maximum"),
        pytest.param(("reduction", 20, 0), True, id="reduction-perfect"),
    ])
    def test_records_built_only_for_the_answer(self, monkeypatch, spec, require_perfect):
        # the search carries masks; an F2Copy is made for each returned copy
        built = []
        post_init = F2Copy.__post_init__

        def counting(copy):
            built.append(copy)
            post_init(copy)

        monkeypatch.setattr(F2Copy, "__post_init__", counting)
        res = f2_tiling_exact(pinned_f2_graph(spec), require_perfect)
        assert res.copies
        assert len(built) == len(res.copies)

    def test_budget_exhaustion(self):
        red = dense_reduction(25, seed=0)
        res = f2_tiling_exact(red.aux, require_perfect=True, budget=10)
        assert not res.exact
        assert not res.perfect


def pinned_f2_graph(spec):
    kind, *args = spec
    if kind == "reduction":
        return dense_reduction(*args).aux
    return random_graph(*args)


def copy_words(copies):
    return " ".join(
        "%d:%d-%d/%d-%d" % (c.center, *c.wings[0], *c.wings[1]) for c in copies
    )


# (graph, require_perfect, budget) -> (copies as "center:a-b/c-d" words,
# perfect, exact, nodes_expanded).  The node counts and the budgeted packings
# depend on the branching order: the free vertex with fewest free neighbours
# (ties to the lowest id), its bowties in generation order (as centre, then
# in a wing), then discarding it in maximum mode.
F2_PINS = [
    (("random", 10, 0.55, 1), False, None, "4:0-1/3-8 2:5-6/7-9", True, True, 46),
    (("random", 10, 0.55, 1), False, 0, "", False, False, 1),
    (("random", 10, 0.55, 1), False, 3, "4:0-1/3-8 2:5-6/7-9", True, False, 4),
    (("random", 10, 0.55, 1), True, None, "4:0-1/3-8 2:5-6/7-9", True, True, 3),
    (("random", 10, 0.55, 1), True, 0, "", False, False, 1),
    (("random", 12, 0.6, 3), False, None, "2:0-7/1-6 4:5-8/10-11", False, True, 23),
    (("random", 12, 0.6, 3), False, 3, "2:0-7/1-6", False, False, 4),
    (("random", 12, 0.6, 3), True, None, "", False, True, 0),
    (("random", 14, 0.5, 4), False, None, "1:0-2/3-9 7:4-11/5-8", False, True, 89),
    (("random", 14, 0.5, 4), False, 50, "1:0-2/3-9 7:4-11/5-8", False, False, 51),
    (("random", 15, 0.7, 2), False, None,
     "3:0-7/2-10 4:5-9/12-13 14:1-8/6-11", True, True, 344),
    (("random", 15, 0.7, 2), False, 3, "3:0-7/2-10 4:5-9/12-13", False, False, 4),
    (("random", 15, 0.7, 2), False, 50,
     "3:0-7/2-10 4:5-9/12-13 14:1-8/6-11", True, False, 51),
    (("random", 15, 0.7, 2), True, None,
     "3:0-7/2-10 4:5-9/12-13 14:1-8/6-11", True, True, 4),
    (("random", 15, 0.7, 2), True, 3, "", False, False, 4),
    (("reduction", 20, 0), True, None,
     "20:0-2/1-3 21:4-5/6-7 9:8-22/10-23 12:11-24/13-25 15:14-26/17-27 "
     "19:16-28/18-29", True, True, 1040),
    (("reduction", 20, 1), False, 300,
     "20:0-1/2-3 21:4-7/5-6 22:8-9/10-12 23:11-13/14-16 24:15-18/17-19",
     False, False, 301),
    (("reduction", 25, 0), True, 10_000, "", False, False, 10_001),
    (("reduction", 25, 1), False, 10_000,
     "25:0-1/2-3 26:4-6/5-7 27:8-9/10-11 28:12-14/13-15 18:16-29/17-30 "
     "20:19-31/22-32 23:21-33/24-34", False, False, 10_001),
]


class TestF2SearchOrder:
    @pytest.mark.parametrize(
        "spec, require_perfect, budget, copies, perfect, exact, nodes", F2_PINS
    )
    def test_pinned_search(
        self, spec, require_perfect, budget, copies, perfect, exact, nodes
    ):
        res = f2_tiling_exact(pinned_f2_graph(spec), require_perfect, budget)
        assert (copy_words(res.copies), res.perfect, res.exact, res.nodes_expanded) == (
            copies, perfect, exact, nodes,
        )

    def test_deep_search_needs_no_recursion(self):
        # 600 disjoint edges: no bowtie, and every vertex is discarded one
        # level deeper than the last
        g = Graph(1200, [(2 * i, 2 * i + 1) for i in range(600)])
        res = f2_tiling_exact(g)
        assert (res.copies, res.perfect, res.exact, res.nodes_expanded) == (
            (), False, True, 1197,
        )


class TestF2Copy:
    def test_wings_sorted_and_distinct(self):
        c = F2Copy(3, ((9, 1), (7, 5)))
        assert c.wings == ((1, 9), (5, 7))
        assert c.vertex_set == frozenset({1, 3, 5, 7, 9})

    def test_overlapping_vertices_rejected(self):
        with pytest.raises(ValueError):
            F2Copy(0, ((0, 1), (2, 3)))
        with pytest.raises(ValueError):
            F2Copy(0, ((1, 2), (2, 3)))

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match="negative vertex -1"):
            F2Copy(-1, ((1, 2), (3, 4)))
        with pytest.raises(ValueError, match="negative vertex -4"):
            F2Copy(0, ((1, 2), (3, -4)))


class TestClassification:
    @pytest.mark.parametrize("k", [20, 25])
    def test_pipeline_identities(self, k):
        red = dense_reduction(k, seed=1)
        res = f2_tiling_exact(red.aux, require_perfect=True, budget=500_000)
        assert res.perfect
        cls = classify_f2_copies(
            res.copies, red.w_vertices, red.k, red.delta, red.C
        )
        assert 2 * cls.s + cls.t == red.w_size
        assert 3 * cls.s + 4 * cls.t + 5 * cls.ell == red.k
        assert cls.ell_minus_s == 2 * red.delta - red.k - Fraction(4, 5) * red.C
        assert cls.ell >= cls.lower_guarantee

    def test_degenerate_empty_padding(self):
        # 6-regular circulant on 10 vertices: 3k = 5*delta, so C=0 adds no
        # padding and every copy is padding-free
        g = circulant(10, (1, 2, 3))
        red = auxiliary_reduction(g, 0, 0)
        assert red.w_size == 0
        res = f2_tiling_exact(red.aux, require_perfect=True)
        assert res.perfect
        cls = classify_f2_copies(res.copies, red.w_vertices, red.k, red.delta, red.C)
        assert (cls.s, cls.t, cls.ell) == (0, 0, 2)

    def test_not_perfect_rejected(self):
        copies = (F2Copy(0, ((1, 2), (3, 4))),)
        with pytest.raises(NotPerfectError):
            classify_f2_copies(copies, frozenset(), 10, 6, 0)

    def test_overlapping_copies_rejected(self):
        copies = (
            F2Copy(0, ((1, 2), (3, 4))),
            F2Copy(4, ((5, 6), (7, 8))),
        )
        with pytest.raises(NotPerfectError):
            classify_f2_copies(copies, frozenset(), 9, 5, 0)

    def test_three_padding_vertices_rejected(self):
        # fabricated: one copy swallows five padding vertices, which a true
        # independent padding set cannot do
        copies = (
            F2Copy(5, ((6, 7), (8, 9))),
            F2Copy(0, ((1, 2), (3, 4))),
        )
        with pytest.raises(CountIdentityViolatedError):
            classify_f2_copies(copies, frozenset({5, 6, 7, 8, 9}), 5, 3, 5)

    def test_padding_count_mismatch_rejected(self):
        # both copies use two padding vertices, and padding vertex 100 is in
        # no copy
        copies = (F2Copy(0, ((1, 5), (2, 6))), F2Copy(3, ((4, 7), (8, 9))))
        with pytest.raises(CountIdentityViolatedError, match=r"2s \+ t = 4 but \|W\| = 5"):
            classify_f2_copies(copies, [5, 6, 7, 8, 100], 5, 3, 0)

    def test_padding_size_formula_rejected(self):
        # |W| = 0, but (3/2)k - (5/2)delta + C = 5
        copies = (F2Copy(0, ((1, 2), (3, 4))),)
        with pytest.raises(CountIdentityViolatedError, match="inconsistent"):
            classify_f2_copies(copies, [], 5, 3, 5)

    def test_guarantee_rejected(self):
        # |W| = 15/2 - 5 - 5/2 = 0 holds, but ell = 1 < 2*delta - k - C = 3/2
        copies = (F2Copy(0, ((1, 2), (3, 4))),)
        with pytest.raises(CountIdentityViolatedError, match="ell = 1 below the guaranteed 3/2"):
            classify_f2_copies(copies, [], 5, 2, Fraction(-5, 2))


class TestThreePartFinder:
    def qualifying_exists(self, cg, P, Q, S):
        ps, qs, ss = set(P), set(Q), set(S)
        pool = sorted(ps | qs | ss)
        for tri in oracles.mono_triangles(cg):
            vs = set(tri.vertices)
            if not vs <= set(pool):
                continue
            if len(vs & ss) <= 1 and len(vs & ps) <= 2 and len(vs & qs) <= 2:
                return True
        return False

    @pytest.mark.parametrize("seed", range(10))
    def test_complete_answer_matches_enumeration(self, seed):
        rng = random.Random(seed)
        n = 12
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.55:
                    edges.append((u, v, RED if rng.random() < 0.5 else BLUE))
        cg = build_colored_graph(n, edges)
        P, Q, S = range(4), range(4, 8), range(8, 12)
        tri = three_part_mono_finder(
            cg, P, Q, S, Fraction(3, 10), Fraction(1, 100)
        )
        assert (tri is not None) == self.qualifying_exists(cg, P, Q, S)
        if tri is not None:
            vs = set(tri.vertices)
            assert len(vs & set(S)) <= 1
            assert len(vs & set(P)) <= 2
            assert len(vs & set(Q)) <= 2

    def lex_first_qualifying(self, cg, P, Q, S):
        ps, qs, ss = set(P), set(Q), set(S)
        for tri in oracles.mono_triangles(cg):
            vs = set(tri.vertices)
            if vs <= ps | qs | ss and len(vs & ss) <= 1 and len(vs & ps) <= 2 and len(vs & qs) <= 2:
                return tri
        return None

    def test_empty_s_falls_back_to_first_qualifying(self):
        # with S empty neither the dominating nor the transversal path can
        # fire, so the answer comes from the enumeration fallback; (0,1,2)
        # sits inside P and (0,1,4) is mixed, so the first qualifying
        # triangle is the blue (0,4,6), ahead of the red (1,2,5)
        edges = [
            (0, 1, RED), (0, 2, RED), (1, 2, RED),
            (0, 4, BLUE), (1, 4, BLUE),
            (0, 6, BLUE), (4, 6, BLUE),
            (1, 5, RED), (2, 5, RED),
        ]
        cg = build_colored_graph(8, edges)
        P, Q = range(4), range(4, 8)
        tri = three_part_mono_finder(cg, P, Q, [], Fraction(3, 10), Fraction(1, 100))
        assert tri == self.lex_first_qualifying(cg, P, Q, [])
        assert tri.vertices == (0, 4, 6) and tri.color == BLUE

    @pytest.mark.parametrize("seed", range(10))
    def test_empty_s_matches_brute_force(self, seed):
        rng = random.Random(100 + seed)
        edges = [
            (u, v, RED if rng.random() < 0.5 else BLUE)
            for u, v in combinations(range(10), 2)
            if rng.random() < 0.5
        ]
        cg = build_colored_graph(10, edges)
        P, Q = range(5), range(5, 10)
        tri = three_part_mono_finder(cg, P, Q, [], Fraction(3, 10), Fraction(1, 100))
        assert tri == self.lex_first_qualifying(cg, P, Q, [])

    def test_all_red_blowup(self):
        cg = random_coloring(complete_graph(18), 1.0, seed=0)
        tri = three_part_mono_finder(
            cg,
            range(6),
            range(6, 12),
            range(12, 18),
            Fraction(3, 10),
            Fraction(1, 100),
            alpha_bound=3,
        )
        assert tri is not None
        assert tri.color == RED

    def test_degenerate_parameters_take_the_transversal_path(self):
        # beta = eps leaves no pick count, so the dominating path, which
        # would close (0, 3, 4) inside P's red class, is skipped
        cg = random_coloring(complete_graph(9), 1.0, seed=0)
        P, Q, S = range(3, 6), range(6, 9), range(3)
        tri = three_part_mono_finder(cg, P, Q, S, Fraction(1, 10), Fraction(1, 10))
        assert (tri.vertices, tri.color) == ((0, 3, 6), RED)
        tri = three_part_mono_finder(cg, P, Q, S, Fraction(1, 2), Fraction(1, 10))
        assert (tri.vertices, tri.color) == ((0, 3, 4), RED)

    def test_alpha_premise_changes_the_answer(self):
        # vertex 0's red class inside P is the edge 12; with alpha_bound 2 a
        # class of two vertices is skipped and the transversal 0-1-3 is found
        edges = [(0, 1, RED), (0, 2, RED), (1, 2, RED), (0, 3, RED), (1, 3, RED)]
        cg = build_colored_graph(5, edges)
        beta, eps = Fraction(1, 2), Fraction(1, 100)
        tri = three_part_mono_finder(cg, [1, 2], [3, 4], [0], beta, eps)
        assert (tri.vertices, tri.color) == ((0, 1, 2), RED)
        tri = three_part_mono_finder(cg, [1, 2], [3, 4], [0], beta, eps, alpha_bound=2)
        assert (tri.vertices, tri.color) == ((0, 1, 3), RED)

    def test_none_without_mono_triangle(self):
        edges = [(u, v, RED) for u in range(4) for v in range(4, 8)]
        cg = build_colored_graph(8, edges)
        assert (
            three_part_mono_finder(
                cg, range(4), range(4, 8), [], Fraction(3, 10), Fraction(1, 100)
            )
            is None
        )

    def test_overlapping_parts_rejected(self):
        cg = build_colored_graph(6, [])
        with pytest.raises(ValueError):
            three_part_mono_finder(
                cg, [0, 1], [1, 2], [3], Fraction(3, 10), Fraction(1, 100)
            )


def tiling_words(tiling):
    return " ".join("%d-%d-%d%s" % (*t.vertices, t.color) for t in tiling.triangles)


# (m, density, seed) of five_part_instance at p_red = 1/2 and the tiler's eps
# -> (phase1_count, phase2_count, target_reached, triangles as "a-b-c colour")
FIVE_PART_PINS = {
    ((3, 0.6, 0), Fraction(1, 25)): (0, 0, False, ""),
    ((3, 0.6, 1), Fraction(1, 25)): (0, 1, False, "2-10-12b"),
    ((3, 0.9, 0), Fraction(1, 25)): (1, 2, True, "0-9-12b 1-3-8b 2-10-14b"),
    ((3, 0.9, 1), Fraction(1, 25)): (3, 0, True, "0-5-7r 1-4-6b 2-3-8r"),
    ((8, 0.6, 0), Fraction(1, 25)): (
        5, 3, True,
        "0-11-20b 1-8-19b 2-25-34r 3-14-16b 4-13-17r 5-28-32r 6-26-33r 7-9-18r",
    ),
    ((8, 0.6, 1), Fraction(1, 25)): (
        5, 3, True,
        "0-8-16r 1-13-17r 2-24-38b 3-26-35b 4-10-20r 5-29-34r 6-14-18b 7-12-23r",
    ),
    ((8, 0.9, 0), Fraction(1, 25)): (
        7, 0, True, "0-15-18r 1-12-16r 2-14-21r 3-9-19r 4-8-17r 5-10-22r 6-13-23r",
    ),
    ((8, 0.9, 1), Fraction(1, 25)): (
        7, 0, True, "0-8-19r 1-10-18r 2-15-20r 3-11-16r 4-12-23b 5-9-21b 7-13-17b",
    ),
    ((12, 0.6, 0), Fraction(1, 25)): (
        9, 3, True,
        "0-16-34r 1-20-33b 2-13-26r 3-17-28r 4-18-25b 5-22-27r 6-23-24b "
        "7-45-54r 8-15-31r 9-19-30b 10-46-50r 11-40-57r",
    ),
    ((12, 0.6, 1), Fraction(1, 25)): (
        9, 2, True,
        "0-21-31r 1-13-25r 2-16-24r 3-40-51r 4-14-35r 5-12-26b 6-23-34b "
        "7-15-29b 8-22-27r 10-17-33r 11-36-49r",
    ),
    ((12, 0.9, 0), Fraction(1, 25)): (
        11, 0, True,
        "0-15-34r 1-13-31r 2-12-30r 3-14-25r 4-18-24r 5-19-35r 6-17-27r "
        "7-16-26r 8-23-29r 9-20-28r 10-22-33b",
    ),
    ((12, 0.9, 1), Fraction(1, 25)): (
        11, 0, True,
        "0-13-28r 1-20-30r 2-12-25r 3-19-27r 4-14-34r 5-18-31r 6-15-26r "
        "7-21-35r 8-17-29r 9-23-33r 10-22-32r",
    ),
}


class TestFivePartTiler:
    @pytest.mark.parametrize("m", [3, 6])
    def test_complete_mono_blowup_reaches_m(self, m):
        inst = five_part_instance(m, 1.0, 1.0, seed=0)
        res = five_part_tiler(inst, Fraction(1, 100))
        assert res.tiling.size == m
        assert res.target_reached
        v1 = inst.part_mask(0)
        for t in res.tiling.triangles:
            assert (t.mask & v1).bit_count() <= 1

    def test_phase_counts_sum(self):
        inst = five_part_instance(8, 1.0, 1.0, seed=2)
        res = five_part_tiler(inst, Fraction(1, 100))
        assert res.phase1_count + res.phase2_count == res.tiling.size

    def test_dense_random_hits_target(self):
        inst = five_part_instance(12, 0.85, 0.5, seed=5)
        res = five_part_tiler(inst, Fraction(1, 25))
        # (1 - sqrt(eps)) * m = 0.8 * 12
        assert res.target_reached == (
            (inst.m - res.tiling.size) ** 2 <= Fraction(1, 25) * inst.m**2
        )

    def test_triangles_respect_blowup_structure(self):
        inst = five_part_instance(6, 0.9, 0.5, seed=7)
        res = five_part_tiler(inst, Fraction(1, 25))
        used = 0
        for t in res.tiling.triangles:
            assert not used & t.mask
            used |= t.mask

    def test_pick_count_computed_once_per_phase(self, monkeypatch):
        calls = []

        def counted(d, eps):
            calls.append((d, eps))
            return t_bound(d, eps)

        monkeypatch.setattr(theory, "t_bound", counted)
        res = five_part_tiler(five_part_instance(8, 0.6, 0.5, 0), Fraction(1, 25))
        assert res.phase1_count > 1 and res.phase2_count > 0
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "key", FIVE_PART_PINS, ids=lambda key: "m%d-d%s-seed%d-eps%s" % (*key[0], key[1])
    )
    def test_pinned_tiling(self, key):
        (m, density, seed), eps = key
        res = five_part_tiler(five_part_instance(m, density, 0.5, seed), eps)
        assert (
            res.phase1_count, res.phase2_count, res.target_reached, tiling_words(res.tiling)
        ) == FIVE_PART_PINS[key]
