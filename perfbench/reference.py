"""Reference work: a fixed piece of pure-Python work that gauges how fast the
host runs Python at the moment it is timed.

The benchmark runs on a share of a machine whose speed drifts by tens of
percent over tens of seconds and minutes, as other tenants come and go.  A
run of a few dozen seconds can sit wholly in a slow or a fast stretch, so raw
op times move by far more between runs than any change worth detecting.  The
benchmark therefore times this reference work right before and right after
every op and scales the op's time by REFERENCE_S over the mean of the two:
op times are reported as seconds at reference speed, the speed at which the
reference work takes REFERENCE_S.  The reference work is the benchmark's own
code and never calls the program, so a change to the program moves the op
times and not the yardstick.

The work mixes what the program spends its time on: a bitmask branch and
bound (like the solvers' searches), filtering a list of triangles against a
used-vertex mask (like the exact solver's per-node rebuild) and parsing an
edge-list file (like graphio).  A single kind of loop tracks the drift less
well, because the drift does not slow every kind of work alike.
"""

from __future__ import annotations

import random
import time

from workloads import parse_colored_edges

# Seconds the reference work takes at reference speed; about its time on a
# 2-vCPU cloud VM (Python 3.11) when no neighbour is busy.
REFERENCE_S = 0.004

_rng = random.Random(7)
_N = 34
_ADJ = [0] * _N
for _u in range(_N):
    for _v in range(_u + 1, _N):
        if _rng.random() < 0.5:
            _ADJ[_u] |= 1 << _v
            _ADJ[_v] |= 1 << _u
_EDGES = "60 1770\n" + "".join(
    f"{u} {v} {'r' if _rng.random() < 0.5 else 'b'}\n" for u in range(60) for v in range(u + 1, 60)
)
_TRIANGLES = [
    (a, b, c)
    for a in range(40)
    for b in range(a + 1, 40)
    for c in range(b + 1, 40)
    if (a * b + c) % 3 == 0
]


def _independent_set(limit: int = 1500) -> int:
    best, nodes = 0, 0

    def branch(cand: int, size: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > limit or size + cand.bit_count() <= best:
            return
        if not cand:
            best = size
            return
        v = cand.bit_length() - 1
        branch(cand & ~_ADJ[v] & ~(1 << v), size + 1)
        branch(cand & ~(1 << v), size)

    branch((1 << _N) - 1, 0)
    return best


def _filter_triangles() -> int:
    used, live = 0, _TRIANGLES
    for v in range(0, 40, 4):
        used |= 1 << v
        live = [t for t in live if not (used >> t[0] & 1 or used >> t[1] & 1 or used >> t[2] & 1)]
    return len(live)


def reference_work() -> int:
    return _independent_set() + _filter_triangles() + len(parse_colored_edges(_EDGES)[1])


def time_reference() -> float:
    """Wall time of one pass of the reference work."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
