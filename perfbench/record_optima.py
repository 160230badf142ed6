"""Record the proven optima of the five-part instance pool.

The fivepart-proof workload fails an op whose report says `exact: true` with
a size other than the optimum recorded here.  Every triangle of a five-part
instance uses exactly one vertex of part 0 (the bowtie's centre part), so m
bounds every tiling; an optimum is recorded when the exact search finishes
within CAPS[0] nodes (retrying unsettled instances with CAPS[1]) or when it
finds a tiling of size m.  Instances settled by neither are left out of the
pool.

Run from the repository root:  python3 perfbench/record_optima.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ((8, 0.5), (8, 0.6), (9, 0.5), (9, 0.6))
P_RED = 0.5
SEEDS = range(100)
CAPS = (200_000, 5_000_000)
OUT = Path(__file__).resolve().parent / "fivepart_optima.json"


def settle(cg, mode, m):
    from monotile.solver import max_mono_tiling_exact

    for cap in CAPS:
        result = max_mono_tiling_exact(cg, mode, budget=cap)
        if result.exact:
            return result.tiling.size, "search"
        if result.tiling.size == m:
            return m, "part0-bound"
    return None, None


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from monotile.generators import five_part_instance

    entries = []
    for m, density in CONFIGS:
        for seed in SEEDS:
            cg = five_part_instance(m, density, P_RED, seed).colored_graph
            weak, weak_how = settle(cg, "weak", m)
            strong, strong_how = settle(cg, "strong", m)
            if weak is None or strong is None:
                print(f"m={m} density={density} seed={seed}: unsettled, left out")
                continue
            entries.append(
                {
                    "m": m,
                    "density": density,
                    "seed": seed,
                    "weak": weak,
                    "weak_proof": weak_how,
                    "strong": strong,
                    "strong_proof": strong_how,
                }
            )
            print(entries[-1], flush=True)
    write_table(entries)
    return 0


def write_table(entries) -> None:
    rows = ",\n".join("  " + json.dumps(e) for e in entries)
    head = json.dumps({"p_red": P_RED, "search_caps": CAPS})[:-1]
    OUT.write_text(f'{head}, "entries": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    sys.exit(main())
