"""Command-line front end: generate, solve, verify, bounds, theory, experiment.

Every randomized subcommand requires an explicit seed, and all reported
values are deterministic given the flags; wall-clock runtime is the only
exception and lives in its own field/column.  Exit codes: 0 success, 1
invalid input, 2 internal assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .generators import (
    complete_graph,
    extremal_instance,
    extremal_sidecar,
    five_part_instance,
    five_part_sidecar,
    random_coloring,
    sidecar_text,
)
from .graphio import dump_colored_graph, load_colored_graph, load_graph
from .graphs import MODES, WEAK, Tiling, Triangle
from .rationals import as_fraction, rational_json
from .solver import (
    SolveResult,
    bound_table,
    heuristic_tiling,
    max_mono_tiling_exact,
    solve_report,
    verify_tiling,
)
from .theory import (
    admissible_C,
    auxiliary_reduction,
    chromatic_parameters,
    classify_f2_copies,
    f2_tiling_exact,
)

CSV_COLUMNS = [
    "n",
    "delta",
    "seed",
    "mode",
    "size",
    "exact",
    "thm3_lower",
    "remarkA_upper",
    "bft_weak",
    "runtime_ms",
]


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


@dataclass
class ExperimentConfig:
    """Seeded sweep description loaded from a JSON config file."""

    instances: list[dict]
    modes: list[str]
    budget: Optional[int]
    gamma: Fraction
    part_method: str

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        instances = raw.get("instances")
        if not isinstance(instances, list) or not instances:
            raise ValueError("config needs a nonempty `instances` list")
        for entry in instances:
            if not isinstance(entry, dict):
                raise ValueError(f"instance entries must be objects, got {entry!r}")
            kind = entry.get("kind", "extremal")
            if kind not in ("extremal", "random"):
                raise ValueError(f"unknown instance kind {kind!r}")
            seeds = entry.get("seeds")
            if not (isinstance(seeds, list) and seeds and all(type(s) is int for s in seeds)):
                raise ValueError("every instance entry needs explicit integer `seeds`")
            for key in ("n", "delta") if kind == "extremal" else ("n",):
                if type(entry.get(key)) is not int:
                    raise ValueError(f"{kind} entries need an integer `{key}`")
            if not isinstance(entry.get("p_red", 0.5), (int, float)):
                raise ValueError(f"`p_red` must be a number, got {entry['p_red']!r}")
        modes = raw.get("modes", [WEAK])
        if not isinstance(modes, list):
            raise ValueError(f"`modes` must be a list, got {modes!r}")
        for mode in modes:
            if mode not in MODES:
                raise ValueError(f"bad mode {mode!r} in config")
        budget = raw.get("budget")
        if budget is not None and (type(budget) is not int or budget < 0):
            raise ValueError(f"`budget` must be an integer >= 0 or null, got {budget!r}")
        try:
            gamma = as_fraction(raw.get("gamma", 0))
        except TypeError:
            raise ValueError(f"`gamma` must be a number, got {raw['gamma']!r}") from None
        return cls(
            instances=instances,
            modes=list(modes),
            budget=budget,
            gamma=gamma,
            part_method=raw.get("part_method", "circulant_catalog"),
        )


def _non_negative_int(text: str) -> int:
    """argparse type for node budgets and kick counts: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="monotile", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an instance file plus metadata sidecar")
    gen.add_argument("--kind", choices=("extremal", "random", "five-part"))
    for kind in ("extremal", "random", "five-part"):
        gen.add_argument(
            f"--{kind}",
            dest="kind",
            action="store_const",
            const=kind,
            help=f"shorthand for --kind {kind}",
        )
    gen.add_argument("--n", type=int)
    gen.add_argument("--delta", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--density", type=float, default=1.0)
    gen.add_argument("--p-red", type=float, default=0.5)
    gen.add_argument("--part-method", default="circulant_catalog")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)

    sol = sub.add_parser("solve", help="solve an instance file and write a JSON report")
    sol.add_argument("--instance", required=True)
    sol.add_argument("--mode", choices=MODES, default=WEAK)
    style = sol.add_mutually_exclusive_group()
    style.add_argument(
        "--exact",
        dest="method",
        action="store_const",
        const="exact",
        default="exact",
        help="exact branch-and-bound (default)",
    )
    style.add_argument("--heuristic", dest="method", action="store_const", const="heuristic")
    sol.add_argument("--budget", type=_non_negative_int)
    sol.add_argument("--iters", type=_non_negative_int, default=32)
    sol.add_argument("--seed", type=int, default=0)
    sol.add_argument("--gamma", type=Fraction, default=Fraction(0))
    sol.add_argument("--out")

    ver = sub.add_parser("verify", help="check a solve report's tiling against an instance")
    ver.add_argument("--instance", required=True)
    ver.add_argument("--report", required=True)

    bnd = sub.add_parser("bounds", help="print the bound table for (n, delta)")
    bnd.add_argument("--n", type=int, required=True)
    bnd.add_argument("--delta", type=int, required=True)
    bnd.add_argument("--gamma", type=Fraction, default=Fraction(0))

    thr = sub.add_parser("theory", help="chromatic profiles and bowtie reductions")
    thr_sub = thr.add_subparsers(dest="theory_command", required=True)
    prof = thr_sub.add_parser("profile", help="chromatic tiling profile of a graph file")
    prof.add_argument("--graph", help="uncolored graph file; omit for the bowtie")
    adm = thr_sub.add_parser("admissible-c", help="smallest admissible padding margin")
    adm.add_argument("--k", type=int, required=True)
    adm.add_argument("--delta", type=int, required=True)
    adm.add_argument("--c-f2", type=Fraction, default=Fraction(0))
    red = thr_sub.add_parser("reduce", help="pad a base graph and tile it with bowties")
    red.add_argument("--graph", required=True)
    red.add_argument("--C", type=Fraction, help="padding margin; default admissible_C")
    red.add_argument("--c-f2", type=Fraction, default=Fraction(0))
    red.add_argument("--budget", type=_non_negative_int)

    exp = sub.add_parser("experiment", help="run a seeded sweep, appending CSV rows")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


def _dispatch(args) -> int:
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "bounds":
        return _cmd_bounds(args)
    if args.command == "theory":
        return _cmd_theory(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    raise UsageError(f"unknown command {args.command!r}")


def _cmd_generate(args) -> int:
    out = Path(args.out)
    if args.kind is None:
        args.kind = "extremal"
    if args.kind == "extremal":
        if args.n is None or args.delta is None:
            raise UsageError("generate --kind extremal needs --n and --delta")
        inst = extremal_instance(args.n, args.delta, args.part_method, args.seed)
        out.write_text(dump_colored_graph(inst.colored_graph))
        Path(str(out) + ".meta").write_text(extremal_sidecar(inst))
    elif args.kind == "random":
        if args.n is None:
            raise UsageError("generate --kind random needs --n")
        cg = random_coloring(complete_graph(args.n), args.p_red, args.seed)
        out.write_text(dump_colored_graph(cg))
        meta = sidecar_text(
            [
                ("kind", "random_complete"),
                ("n", str(args.n)),
                ("p_red", str(args.p_red)),
                ("seed", str(args.seed)),
            ]
        )
        Path(str(out) + ".meta").write_text(meta)
    else:
        if args.m is None:
            raise UsageError("generate --kind five-part needs --m")
        inst = five_part_instance(args.m, args.density, args.p_red, args.seed)
        out.write_text(dump_colored_graph(inst.colored_graph))
        Path(str(out) + ".meta").write_text(five_part_sidecar(inst))
    return 0


def _cmd_solve(args) -> int:
    cg = load_colored_graph(Path(args.instance).read_text())
    start = time.perf_counter()
    if args.method == "heuristic":
        tiling = heuristic_tiling(cg, args.mode, iters=args.iters, seed=args.seed)
        result = SolveResult(tiling, exact=False, nodes_expanded=0, upper_bound_used=0)
    else:
        result = max_mono_tiling_exact(cg, args.mode, budget=args.budget)
    runtime_ms = int((time.perf_counter() - start) * 1000)
    report = solve_report(cg, result, gamma=args.gamma)
    report["runtime_ms"] = runtime_ms
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    cg = load_colored_graph(Path(args.instance).read_text())
    report = json.loads(Path(args.report).read_text())
    try:
        triangles = tuple(
            Triangle((a, b, c), color) for a, b, c, color in report["tiling"]
        )
        tiling = Tiling(triangles, report.get("mode", WEAK))
    except (KeyError, TypeError, ValueError) as exc:
        print(f"malformed tiling report: {exc}", file=sys.stderr)
        return 1
    if verify_tiling(cg, tiling):
        print("valid")
        return 0
    print("invalid tiling", file=sys.stderr)
    return 1


def _cmd_bounds(args) -> int:
    report = bound_table(args.n, args.delta, gamma=args.gamma)
    sys.stdout.write(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_theory(args) -> int:
    if args.theory_command == "profile":
        if args.graph:
            g = load_graph(Path(args.graph).read_text())
        else:
            from .theory import bowtie_graph

            g = bowtie_graph()
        p = chromatic_parameters(g)
        out = {
            "chi": p.chi,
            "sigma": p.sigma,
            "chi_cr": rational_json(p.chi_cr),
            "hcf_chi": "inf" if p.hcf_chi is None else p.hcf_chi,
            "hcf_c": "inf" if p.hcf_c is None else p.hcf_c,
            "hcf": "inf" if p.hcf is None else p.hcf,
            "chi_star": rational_json(p.chi_star),
        }
        sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
        return 0
    if args.theory_command == "admissible-c":
        c = admissible_C(args.k, args.delta, args.c_f2)
        sys.stdout.write(json.dumps({"C": rational_json(c)}) + "\n")
        return 0
    g = load_graph(Path(args.graph).read_text())
    c = args.C if args.C is not None else admissible_C(g.n, g.min_degree(), args.c_f2)
    reduction = auxiliary_reduction(g, c, args.c_f2)
    tiling = f2_tiling_exact(reduction.aux, require_perfect=True, budget=args.budget)
    out = {
        "k": reduction.k,
        "delta": reduction.delta,
        "C": rational_json(reduction.C),
        "w_size": reduction.w_size,
        "aux_order": reduction.aux.n,
        "aux_min_degree": reduction.aux_min_degree,
        "hypothesis_ok": reduction.hypothesis_ok,
        "perfect_tiling_found": tiling.perfect,
        "search_exact": tiling.exact,
    }
    if tiling.perfect:
        counts = classify_f2_copies(
            tiling.copies, reduction.w_vertices, reduction.k, reduction.delta, reduction.C
        )
        out["s"] = counts.s
        out["t"] = counts.t
        out["ell"] = counts.ell
        out["ell_minus_s"] = rational_json(counts.ell_minus_s)
    sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    out = Path(args.out)
    write_header = not out.exists() or out.stat().st_size == 0
    with out.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if write_header:
            writer.writerow(CSV_COLUMNS)
        for entry in config.instances:
            for seed in entry["seeds"]:
                cg = _materialize(entry, seed, config)
                delta = cg.graph.min_degree() if cg.n else 0
                bounds = bound_table(cg.n, delta, gamma=config.gamma)
                for mode in config.modes:
                    start = time.perf_counter()
                    result = max_mono_tiling_exact(cg, mode, budget=config.budget)
                    runtime_ms = int((time.perf_counter() - start) * 1000)
                    writer.writerow(
                        [
                            cg.n,
                            delta,
                            seed,
                            mode,
                            result.tiling.size,
                            int(result.exact),
                            _csv_rational(bounds.thm3_lower),
                            _csv_rational(bounds.remarkA_upper),
                            _csv_rational(bounds.bft_weak),
                            runtime_ms,
                        ]
                    )
    return 0


def _materialize(entry: dict, seed: int, config: ExperimentConfig):
    kind = entry.get("kind", "extremal")
    if kind == "extremal":
        inst = extremal_instance(
            entry["n"], entry["delta"], config.part_method, seed
        )
        return inst.colored_graph
    return random_coloring(
        complete_graph(entry["n"]), entry.get("p_red", 0.5), seed
    )


def _csv_rational(value) -> str:
    out = rational_json(value)
    return "" if out is None else str(out)
