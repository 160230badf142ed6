"""Pair densities, regularity refutation, typicality, dominating greedy.

Regularity of a pair is co-NP-hard to certify, so the refuter here is
one-sided: it either returns a verified witness of irregularity or gives up.
Everything threshold-shaped runs in exact rational arithmetic; boundary
comparisons mirror the defining inequalities exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .graphs import Graph, iter_bits, mask_of
from .rationals import as_fraction


class EmptySideError(ValueError):
    pass


class OverlappingSidesError(ValueError):
    pass


class DegenerateParametersError(ValueError):
    pass


def _side_masks(g: Graph, A: Iterable[int], B: Iterable[int]) -> tuple[int, int]:
    ma, mb = mask_of(A), mask_of(B)
    if not ma or not mb:
        raise EmptySideError("both sides must be nonempty")
    if ma & mb:
        raise OverlappingSidesError("sides overlap")
    if max(ma, mb) >= 1 << g.n:
        raise ValueError("side contains a vertex outside the graph")
    return ma, mb


def _cross_edges(g: Graph, ma: int, mb: int) -> int:
    return sum((g.neighbors_mask(v) & mb).bit_count() for v in iter_bits(ma))


def density(g: Graph, X: Iterable[int], Y: Iterable[int]) -> Fraction:
    """Exact cross density e(X, Y) / (|X| |Y|) for disjoint nonempty sides."""
    mx, my = _side_masks(g, X, Y)
    return Fraction(_cross_edges(g, mx, my), mx.bit_count() * my.bit_count())


@dataclass(frozen=True)
class PairStats:
    A: frozenset[int]
    B: frozenset[int]
    density: Fraction
    eps: Fraction


def pair_stats(g: Graph, A: Iterable[int], B: Iterable[int], eps) -> PairStats:
    A, B = frozenset(A), frozenset(B)
    return PairStats(A, B, density(g, A, B), as_fraction(eps))


@dataclass(frozen=True)
class RegularityWitness:
    """Certified violation: large sub-pair whose density strays beyond eps."""

    X: frozenset[int]
    Y: frozenset[int]
    deviation: Fraction


def _check_witness(
    g: Graph, A: frozenset, B: frozenset, eps: Fraction, X: frozenset, Y: frozenset
) -> Optional[RegularityWitness]:
    if not X or not Y:
        return None
    if Fraction(len(X)) < eps * len(A) or Fraction(len(Y)) < eps * len(B):
        return None
    deviation = abs(density(g, X, Y) - density(g, A, B))
    if deviation > eps:
        return RegularityWitness(X, Y, deviation)
    return None


EXHAUSTIVE_SIDE_LIMIT = 12


def regularity_refuter(
    g: Graph,
    A: Iterable[int],
    B: Iterable[int],
    eps,
    sample_count: int = 200,
    seed: int = 0,
) -> Optional[RegularityWitness]:
    """Search for an eps-regularity violation of the pair (A, B).

    With both sides of size <= 12 the search is exhaustive (a returned None
    certifies regularity); larger pairs get a deterministic family of
    degree-sorted slices and neighborhood slices plus seeded random sampling,
    and None then means only that nothing was found.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise DegenerateParametersError("eps must be positive")
    ma, mb = _side_masks(g, A, B)
    A = frozenset(iter_bits(ma))
    B = frozenset(iter_bits(mb))
    if len(A) <= EXHAUSTIVE_SIDE_LIMIT and len(B) <= EXHAUSTIVE_SIDE_LIMIT:
        return _refute_exhaustive(g, A, B, eps)
    return _refute_sampled(g, A, B, eps, sample_count, seed)


def _refute_exhaustive(
    g: Graph, A: frozenset, B: frozenset, eps: Fraction
) -> Optional[RegularityWitness]:
    # For a fixed X the extreme densities over |Y| = y are attained by the
    # top-y and bottom-y vertices of B ranked by |N(b) cap X|, so scanning
    # ranked prefixes over all X is a complete search.
    a_list = sorted(A)
    b_list = sorted(B)
    d0 = density(g, A, B)
    min_y = _min_side(eps, len(B))
    for bits in range(1, 1 << len(a_list)):
        X = [a_list[i] for i in iter_bits(bits)]
        if Fraction(len(X)) < eps * len(A):
            continue
        mx = mask_of(X)
        ranked = sorted(
            b_list, key=lambda b: ((g.neighbors_mask(b) & mx).bit_count(), b)
        )
        for order in (ranked, ranked[::-1]):
            run = 0
            for y, b in enumerate(order, start=1):
                run += (g.neighbors_mask(b) & mx).bit_count()
                if y < min_y:
                    continue
                dev = abs(Fraction(run, len(X) * y) - d0)
                if dev > eps:
                    return RegularityWitness(frozenset(X), frozenset(order[:y]), dev)
    return None


def _min_side(eps: Fraction, size: int) -> int:
    # smallest integer y with y >= eps * size
    target = eps * size
    y = int(target)
    return y if y >= target else y + 1


def _refute_sampled(
    g: Graph,
    A: frozenset,
    B: frozenset,
    eps: Fraction,
    sample_count: int,
    seed: int,
) -> Optional[RegularityWitness]:
    rng = random.Random(seed)
    a_list = sorted(A)
    b_list = sorted(B)
    min_x = max(1, _min_side(eps, len(A)))
    min_y = max(1, _min_side(eps, len(B)))

    def degree_in(v: int, side_mask: int) -> int:
        return (g.neighbors_mask(v) & side_mask).bit_count()

    mb = mask_of(B)
    ma = mask_of(A)
    by_deg_a = sorted(a_list, key=lambda v: (degree_in(v, mb), v))
    by_deg_b = sorted(b_list, key=lambda v: (degree_in(v, ma), v))

    candidates: list[tuple[frozenset, frozenset]] = []
    a_slices = [
        frozenset(by_deg_a[:min_x]),
        frozenset(by_deg_a[-min_x:]),
        frozenset(by_deg_a[: len(a_list) // 2]),
        frozenset(by_deg_a[len(a_list) // 2 :]),
        frozenset(A),
    ]
    b_slices = [
        frozenset(by_deg_b[:min_y]),
        frozenset(by_deg_b[-min_y:]),
        frozenset(by_deg_b[: len(b_list) // 2]),
        frozenset(by_deg_b[len(b_list) // 2 :]),
        frozenset(B),
    ]
    for xs in a_slices:
        for ys in b_slices:
            candidates.append((xs, ys))
    # single-vertex neighborhood slices
    for a in a_list:
        nb = frozenset(iter_bits(g.neighbors_mask(a) & mb))
        candidates.append((frozenset(A), nb))
        candidates.append((frozenset(A), B - nb))
    for b in b_list:
        na = frozenset(iter_bits(g.neighbors_mask(b) & ma))
        candidates.append((na, frozenset(B)))
        candidates.append((A - na, frozenset(B)))

    for xs, ys in candidates:
        w = _check_witness(g, A, B, eps, xs, ys)
        if w is not None:
            return w

    for _ in range(sample_count):
        x_size = rng.randint(min_x, len(a_list))
        y_size = rng.randint(min_y, len(b_list))
        xs = frozenset(rng.sample(a_list, x_size))
        ys = frozenset(rng.sample(b_list, y_size))
        w = _check_witness(g, A, B, eps, xs, ys)
        if w is not None:
            return w
    return None


def typical_vertex_filter(
    g: Graph, A: Iterable[int], B: Iterable[int], Y: Iterable[int], d, eps
) -> tuple[frozenset[int], frozenset[int]]:
    """Split A by the typicality threshold |N(x) cap Y| > (d - eps)|Y|.

    Vertices exactly on the threshold count as atypical (the defining
    inequality is a strict >); arithmetic is exact.
    """
    ma, mb = _side_masks(g, A, B)
    my = mask_of(Y)
    if not my:
        raise EmptySideError("Y must be nonempty")
    if my & ~mb:
        raise ValueError("Y must be a subset of B")
    d = as_fraction(d)
    eps = as_fraction(eps)
    threshold = (d - eps) * my.bit_count()
    typical, atypical = set(), set()
    for x in iter_bits(ma):
        if Fraction((g.neighbors_mask(x) & my).bit_count()) > threshold:
            typical.add(x)
        else:
            atypical.add(x)
    return frozenset(typical), frozenset(atypical)


def t_bound(d, eps) -> int:
    """Smallest t with (1 - (d - 2*eps))**t < eps, in exact rationals."""
    d = as_fraction(d)
    eps = as_fraction(eps)
    if eps <= 0 or d <= 2 * eps:
        raise DegenerateParametersError(f"need d > 2*eps > 0, got d={d}, eps={eps}")
    base = 1 - (d - 2 * eps)
    power = base
    t = 1
    while power >= eps:
        power *= base
        t += 1
    return t


@dataclass(frozen=True)
class DominatingResult:
    picks: tuple[int, ...]
    covered: frozenset[int]
    t_target: int
    irregular_steps: tuple[int, ...]
    uncovered_sizes: tuple[int, ...]  # |uncovered| before each pick, then final


def dominating_greedy(g: Graph, A: Iterable[int], B: Iterable[int], d, eps) -> DominatingResult:
    """Cover B greedily from A with the geometric-shrink guarantee.

    Each step picks the smallest-id unpicked vertex of A whose neighborhood
    meets at least gamma = d - 2*eps of the current uncovered set; if none
    qualifies the pair is behaving irregularly, and the maximum-coverage
    vertex is taken instead with the step index flagged.  Stops once the
    uncovered set is down to eps*|B| or t_bound(d, eps) picks were made.
    """
    t_target = t_bound(d, eps)  # checks d > 2*eps > 0 first
    d = as_fraction(d)
    eps = as_fraction(eps)
    ma, mb = _side_masks(g, A, B)
    gamma = d - 2 * eps
    b_size = mb.bit_count()

    uncovered = mb
    picked = 0
    picks: list[int] = []
    flags: list[int] = []
    sizes: list[int] = []
    while (
        Fraction(uncovered.bit_count()) > eps * b_size
        and len(picks) < t_target
        and (ma & ~picked)
    ):
        sizes.append(uncovered.bit_count())
        need = gamma * uncovered.bit_count()
        choice = -1
        for a in iter_bits(ma & ~picked):
            if Fraction((g.neighbors_mask(a) & uncovered).bit_count()) >= need:
                choice = a
                break
        if choice < 0:
            flags.append(len(picks))
            best_cover = -1
            for a in iter_bits(ma & ~picked):
                cover = (g.neighbors_mask(a) & uncovered).bit_count()
                if cover > best_cover:
                    best_cover = cover
                    choice = a
        picks.append(choice)
        picked |= 1 << choice
        uncovered &= ~g.neighbors_mask(choice)
    sizes.append(uncovered.bit_count())
    return DominatingResult(
        picks=tuple(picks),
        covered=frozenset(iter_bits(mb & ~uncovered)),
        t_target=t_target,
        irregular_steps=tuple(flags),
        uncovered_sizes=tuple(sizes),
    )


def reduced_min_degree_bound(delta_G: int, n: int, beta, eps, k: int) -> Fraction:
    """Exact reduced-graph degree guarantee (delta_G/n - (beta + eps)) * k."""
    if n <= 0 or k <= 0:
        raise ValueError(f"need n > 0 and k > 0, got n={n}, k={k}")
    return (Fraction(delta_G, n) - (as_fraction(beta) + as_fraction(eps))) * k
