"""Pair densities, regularity refutation, typicality, dominating greedy.

Regularity of a pair is co-NP-hard to certify, so the refuter here is
one-sided: it either returns a verified witness of irregularity or gives up.
Everything threshold-shaped runs in exact rational arithmetic; boundary
comparisons mirror the defining inequalities exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .graphs import Graph, Record, iter_bits, mask_of
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


def _density(g: Graph, mx: int, my: int) -> Fraction:
    edges = sum((g.neighbors_mask(v) & my).bit_count() for v in iter_bits(mx))
    return Fraction(edges, mx.bit_count() * my.bit_count())


def density(g: Graph, X: Iterable[int], Y: Iterable[int]) -> Fraction:
    """Exact cross density e(X, Y) / (|X| |Y|) for disjoint nonempty sides."""
    return _density(g, *_side_masks(g, X, Y))


class RegularityWitness(Record):
    """Certified violation: large sub-pair whose density strays beyond eps."""

    X: frozenset[int]
    Y: frozenset[int]
    deviation: Fraction


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
    degree-sorted slices plus seeded random sampling, and None then means
    only that nothing was found.  Above eps = 1 no sub-pair is large
    enough, and the answer is None in both modes.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise DegenerateParametersError("eps must be positive")
    ma, mb = _side_masks(g, A, B)
    d0 = _density(g, ma, mb)
    # sub-pairs need |X| >= eps |A| and |Y| >= eps |B|, and must be nonempty
    min_x = max(1, _min_side(eps, ma.bit_count()))
    min_y = max(1, _min_side(eps, mb.bit_count()))
    if min_x > ma.bit_count() or min_y > mb.bit_count():
        return None
    if ma.bit_count() <= EXHAUSTIVE_SIDE_LIMIT and mb.bit_count() <= EXHAUSTIVE_SIDE_LIMIT:
        found = _refute_exhaustive(g, ma, mb, d0, eps, min_x, min_y)
    else:
        found = None
        for mx, my in _sampled_candidates(g, ma, mb, min_x, min_y, sample_count, seed):
            if mx.bit_count() >= min_x and my.bit_count() >= min_y:
                dev = abs(_density(g, mx, my) - d0)
                if dev > eps:
                    found = mx, my, dev
                    break
    if found is None:
        return None
    mx, my, dev = found
    return RegularityWitness(frozenset(iter_bits(mx)), frozenset(iter_bits(my)), dev)


def _refute_exhaustive(
    g: Graph, ma: int, mb: int, d0: Fraction, eps: Fraction, min_x: int, min_y: int
) -> Optional[tuple[int, int, Fraction]]:
    # For a fixed X the extreme densities over |Y| = y are attained by the
    # top-y and bottom-y vertices of B ranked by |N(b) cap X|, so scanning
    # ranked prefixes over all X is a complete search.
    mx = 0
    while mx := (mx - ma) & ma:  # every nonempty X inside A, in mask order
        x = mx.bit_count()
        if x < min_x:
            continue
        ranked = sorted(
            iter_bits(mb), key=lambda b: ((g.neighbors_mask(b) & mx).bit_count(), b)
        )
        for order in (ranked, ranked[::-1]):
            run = my = 0
            for y, b in enumerate(order, start=1):
                run += (g.neighbors_mask(b) & mx).bit_count()
                my |= 1 << b
                if y < min_y:
                    continue
                dev = abs(Fraction(run, x * y) - d0)
                if dev > eps:
                    return mx, my, dev
    return None


def _min_side(eps: Fraction, size: int) -> int:
    # smallest integer y with y >= eps * size
    target = eps * size
    y = int(target)
    return y if y >= target else y + 1


def _sampled_candidates(
    g: Graph, ma: int, mb: int, min_x: int, min_y: int, sample_count: int, seed: int
) -> Iterator[tuple[int, int]]:
    """Sub-pair masks (X, Y) in test order: the 5 x 5 products of
    degree-sorted slices, then sample_count seeded random samples.  A side's
    least and most connected slices of the minimum size, with the other side
    whole, bound the density of every (A, Y) and (X, B) candidate, so no such
    pair can deviate first."""
    a_list, b_list = list(iter_bits(ma)), list(iter_bits(mb))

    def slices(side: list[int], other: int, least: int, whole: int) -> list[int]:
        by_deg = sorted(side, key=lambda v: ((g.neighbors_mask(v) & other).bit_count(), v))
        half = len(side) // 2
        parts = (by_deg[:least], by_deg[-least:], by_deg[:half], by_deg[half:])
        return [mask_of(part) for part in parts] + [whole]

    b_slices = slices(b_list, ma, min_y, mb)
    for mx in slices(a_list, mb, min_x, ma):
        for my in b_slices:
            yield mx, my
    rng = random.Random(seed)
    for _ in range(sample_count):
        x_size = rng.randint(min_x, len(a_list))
        y_size = rng.randint(min_y, len(b_list))
        yield mask_of(rng.sample(a_list, x_size)), mask_of(rng.sample(b_list, y_size))


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
    threshold = (as_fraction(d) - as_fraction(eps)) * my.bit_count()
    typical = mask_of(
        x for x in iter_bits(ma) if (g.neighbors_mask(x) & my).bit_count() > threshold
    )
    return frozenset(iter_bits(typical)), frozenset(iter_bits(ma & ~typical))


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


class DominatingResult(Record):
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

    def cover(a: int) -> int:
        return (g.neighbors_mask(a) & uncovered).bit_count()

    while uncovered.bit_count() > eps * b_size and len(picks) < t_target and (ma & ~picked):
        sizes.append(uncovered.bit_count())
        need = gamma * uncovered.bit_count()
        choice = next((a for a in iter_bits(ma & ~picked) if cover(a) >= need), None)
        if choice is None:
            flags.append(len(picks))
            choice = max(iter_bits(ma & ~picked), key=cover)  # lowest id on ties
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
