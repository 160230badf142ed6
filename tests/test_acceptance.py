"""Acceptance suite: eleven shipped guarantees, one verdict line each.

Every test prints ``[criterion NN] PASS/FAIL — summary`` before asserting, so
``pytest tests/test_acceptance.py -s`` gives a one-line-per-criterion report.
All randomness is seeded; no test depends on another.
"""

import random
import time
from fractions import Fraction

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
    Graph,
    build_colored_graph,
)
from monotile.regularity import dominating_greedy, t_bound
from monotile.solver import (
    bound_table,
    heuristic_tiling,
    max_mono_tiling_exact,
    peel_to_three_fifths,
    verify_tiling,
)
from monotile.theory import (
    admissible_C,
    auxiliary_reduction,
    bowtie_graph,
    chromatic_parameters,
    classify_f2_copies,
    f2_tiling_exact,
    five_part_tiler,
)

import oracles


def verdict(num: int, ok: bool, summary: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} — {summary}"
    print(line)
    assert ok, line


def seeded_colored_graph(n: int, edge_p: float, p_red: float, seed: int):
    rng = random.Random(seed)
    g = Graph(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_p],
    )
    return random_coloring(g, p_red, seed)


def test_criterion_01_exact_solver_matches_enumeration_oracle():
    """Exact weak and strong optima equal brute-force packing enumeration."""
    start = time.perf_counter()
    mismatches = 0
    for seed in range(100):
        cg = seeded_colored_graph(8 + seed % 5, 0.5, 0.5, seed)
        for mode, oracle in ((WEAK, oracles.max_weak_size), (STRONG, oracles.max_strong_size)):
            result = max_mono_tiling_exact(cg, mode)
            if not result.exact or result.tiling.size != oracle(cg):
                mismatches += 1
    elapsed = time.perf_counter() - start
    verdict(
        1,
        mismatches == 0 and elapsed < 120,
        f"exact solver == enumeration oracle on 100 seeded graphs, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_construction_certificates_are_sound():
    """Certificate bounds dominate the solver and match the bound table."""
    cases = ((26, 13), (31, 16), (39, 22), (30, 18))
    problems = []
    for n, delta in cases:
        inst = extremal_instance(n, delta, "circulant_catalog", 1)
        v1 = set(inst.parts[0])
        if any(set(t.vertices) & v1 for t in oracles.mono_triangles(inst.colored_graph)):
            problems.append(f"({n},{delta}): a monochromatic triangle meets part 0")

        certs = {c.kind: c for c in inst.certificates}
        avoid = certs["AvoidV1"]
        if avoid.bound != (n - len(inst.parts[0])) // 3:
            problems.append(f"({n},{delta}): AvoidV1 bound formula mismatch")
        upper = bound_table(n, delta).remarkA_upper
        if inst.ell == 2:
            # at delta = n/2 the table reports delta/3 = (n - |V1|)/3 exactly
            if Fraction(n - len(inst.parts[0]), 3) != upper:
                problems.append(f"({n},{delta}): two-part certificate != bound table")
        else:
            budget_cert = certs["AvoidV1AndV3Budget"]
            if budget_cert.bound != 2 * delta - n or budget_cert.bound != upper:
                problems.append(f"({n},{delta}): budget certificate != 2*delta-n")

        result = max_mono_tiling_exact(inst.colored_graph, WEAK, budget=20_000)
        if result.tiling.size > inst.best_bound():
            problems.append(f"({n},{delta}): solver beat the certificate bound")
    verdict(
        2,
        not problems,
        "certificate bounds sound on 4 extremal instances "
        f"(scan + formula + solver); problems: {problems or 'none'}",
    )


def test_criterion_03_guaranteed_triangles_in_small_complete_graphs():
    """Every 2-coloring of K_{3m+2} admits m disjoint one-colored triangles."""
    start = time.perf_counter()
    shortfalls = 0
    fallbacks = 0
    for m, rounds in ((2, 10_000), (3, 2_000)):
        base = complete_graph(3 * m + 2)
        for seed in range(rounds):
            cg = random_coloring(base, 0.5, seed)
            size = heuristic_tiling(cg, WEAK, iters=4, seed=seed).size
            if size < m:
                fallbacks += 1
                size = max_mono_tiling_exact(cg, WEAK).tiling.size
            if size < m:
                shortfalls += 1
    elapsed = time.perf_counter() - start
    verdict(
        3,
        shortfalls == 0 and elapsed < 600,
        f"weak tiling >= m on 12,000 seeded colorings of K8/K11 "
        f"({fallbacks} exact fallbacks), {elapsed:.1f}s",
    )


def test_criterion_04_pentagon_coloring_has_no_monochromatic_triangle():
    """The 5-cycle/complement coloring of K5 has weak optimum exactly 0."""
    edges = []
    for u in range(5):
        for v in range(u + 1, 5):
            color = RED if (v - u) in (1, 4) else BLUE
            edges.append((u, v, color))
    cg = build_colored_graph(5, edges)
    result = max_mono_tiling_exact(cg, WEAK)
    verdict(
        4,
        result.exact and result.tiling.size == 0,
        f"K5 pentagon coloring: weak optimum {result.tiling.size} (exact={result.exact})",
    )


def test_criterion_05_greedy_domination_covers_fast():
    """Seven greedy picks cover 90% of the far side of dense random bipartite graphs."""
    passing = 0
    flagged_in_passing = 0
    for seed in range(200):
        g = oracles.random_bipartite(400, 400, 0.5, seed)
        res = dominating_greedy(
            g, range(400), range(400, 800), Fraction(1, 2), Fraction(1, 10)
        )
        if len(res.covered) >= 360 and len(res.picks) <= 7:
            passing += 1
            flagged_in_passing += len(res.irregular_steps)
    verdict(
        5,
        passing >= 195 and flagged_in_passing == 0,
        f"coverage >= 0.9*|B| within 7 picks in {passing}/200 runs, "
        f"{flagged_in_passing} irregular flags among passing",
    )


def test_criterion_06_pick_count_bound_is_exact():
    """t_bound matches direct rational powering, with strict-inequality semantics."""
    problems = []
    for d, eps, expected in (
        (Fraction(1, 2), Fraction(1, 10), 7),
        (Fraction(9, 10), Fraction(1, 10), 2),
    ):
        t = t_bound(d, eps)
        shrink = 1 - (d - 2 * eps)
        if t != expected or not (shrink**t < eps <= shrink ** (t - 1)):
            problems.append(f"t_bound({d},{eps}) = {t}")
    # (1 - shrink)^t == eps exactly must roll over to t + 1
    boundary = t_bound(1, Fraction(1, 4))
    if boundary != 3 or Fraction(1, 2) ** 2 != Fraction(1, 4):
        problems.append(f"boundary case returned {boundary}")
    verdict(6, not problems, f"pick bounds exact; problems: {problems or 'none'}")


def dense_reduction(k: int, seed: int):
    """Seeded dense base graph whose padded-reduction hypothesis holds."""
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
            red = auxiliary_reduction(g, admissible_C(k, d, 0), 0)
            if red.hypothesis_ok:
                return red
    raise AssertionError(f"no usable base graph for k={k}, seed={seed}")


def test_criterion_07_bowtie_counting_identities():
    """Perfect bowtie tilings of padded reductions satisfy the count identities."""
    violations = []
    found = 0
    for k in (20, 25):
        for seed in range(10):
            red = dense_reduction(k, seed)
            tiling = f2_tiling_exact(red.aux, require_perfect=True, budget=400_000)
            if not tiling.perfect:
                violations.append(f"k={k} seed={seed}: no perfect tiling")
                continue
            found += 1
            counts = classify_f2_copies(
                tiling.copies, red.w_vertices, red.k, red.delta, red.C
            )
            if 2 * counts.s + counts.t != red.w_size:
                violations.append(f"k={k} seed={seed}: 2s+t != |W|")
            if 3 * counts.s + 4 * counts.t + 5 * counts.ell != red.k:
                violations.append(f"k={k} seed={seed}: 3s+4t+5l != k")
            if counts.ell_minus_s != 2 * red.delta - red.k - Fraction(4, 5) * red.C:
                violations.append(f"k={k} seed={seed}: l-s identity")
    verdict(
        7,
        found == 20 and not violations,
        f"count identities hold on {found}/20 perfect tilings; "
        f"violations: {violations or 'none'}",
    )


def test_criterion_08_bowtie_chromatic_profile():
    """The bowtie's chromatic tiling profile matches the hand derivation."""
    p = chromatic_parameters(bowtie_graph())
    observed = (p.chi, p.sigma, p.chi_cr, p.hcf, p.chi_star)
    expected = (3, 1, Fraction(5, 2), 1, Fraction(5, 2))
    verdict(8, observed == expected, f"profile {observed} == {expected}")


def test_criterion_09_five_part_tiler_shape_and_density_target():
    """The five-part tiler is perfect on complete instances and near-perfect on dense ones."""
    problems = []
    for m in (6, 10, 14):
        inst = five_part_instance(m, 1.0, 1.0, seed=0)
        res = five_part_tiler(inst, Fraction(1, 25))
        if res.tiling.size != m:
            problems.append(f"m={m}: size {res.tiling.size}")
        v1 = inst.part_mask(0)
        if any((t.mask & v1).bit_count() > 1 for t in res.tiling.triangles):
            problems.append(f"m={m}: a triangle uses 2+ vertices of part 0")
    hits = 0
    for seed in range(50):
        inst = five_part_instance(15, 0.8, 0.5, seed=seed)
        hits += five_part_tiler(inst, Fraction(1, 25)).target_reached
    verdict(
        9,
        not problems and hits >= 45,
        f"complete instances tiled perfectly; dense target hit {hits}/50; "
        f"problems: {problems or 'none'}",
    )


def test_criterion_10_peeling_all_red_k10():
    """Peeling an all-red K10 removes 3 triangles and stops inside the degree window."""
    cg = random_coloring(complete_graph(10), 1.0, seed=0)
    res = peel_to_three_fifths(cg)
    trace_ok = all(5 * step.min_degree >= 3 * step.order for step in res.trace)
    ok = (
        res.tiling.size == 3
        and res.residual_order == 1
        and res.reason == "min_degree"
        and res.window_ok is True
        and trace_ok
        and verify_tiling(cg, res.tiling)
    )
    verdict(
        10,
        ok,
        f"peeled {res.tiling.size} triangles to residual order "
        f"{res.residual_order}, window_ok={res.window_ok}",
    )


def test_criterion_11_fuzzed_invariants_hold():
    """Heuristic tilings always verify, and strong never exceeds weak."""
    violations = 0
    for seed in range(10_000):
        n = 4 + seed % 7
        cg = seeded_colored_graph(n, 0.6, 0.45, seed)
        weak = heuristic_tiling(cg, WEAK, iters=3, seed=seed)
        strong = heuristic_tiling(cg, STRONG, iters=3, seed=seed)
        if (
            not verify_tiling(cg, weak)
            or not verify_tiling(cg, strong)
            or strong.size > weak.size
        ):
            violations += 1
    verdict(
        11,
        violations == 0,
        f"10,000 fuzzed instances: {violations} invariant violations",
    )
