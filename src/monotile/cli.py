"""Command-line front end: generate, solve, verify, bounds, theory, experiment.

Every randomized subcommand requires an explicit seed, and all reported
values are deterministic given the flags; wall-clock runtime is the only
exception and lives in its own field/column.  Exit codes: 0 success, 1
invalid input, 2 internal assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
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
from .graphs import MODES, WEAK, ColoredGraph, Tiling, Triangle
from .rationals import as_fraction, rational_json
from .solver import (
    HEURISTIC_ITERS,
    HEURISTIC_SEED,
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
    bowtie_graph,
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
    part_method: Optional[str]

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
            if entry["n"] < 1:
                raise ValueError(f"{kind} entries need `n` >= 1, got {entry['n']}")
            p_red = entry.get("p_red")
            if p_red is not None and type(p_red) not in (int, float):
                raise ValueError(f"`p_red` must be a number, got {p_red!r}")
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
            gamma = _rational(raw.get("gamma", 0))
        except (TypeError, argparse.ArgumentTypeError):
            raise ValueError(f"`gamma` must be a number, got {raw['gamma']!r}") from None
        if gamma < 0:
            raise ValueError(f"need gamma >= 0, got {raw['gamma']!r}")
        return cls(
            instances=instances,
            modes=list(modes),
            budget=budget,
            gamma=gamma,
            part_method=raw.get("part_method"),
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


def _rational(text) -> Fraction:
    """argparse type for exact rationals such as 1/100; a zero denominator is
    a usage error like any other bad literal, not a ZeroDivisionError."""
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _gamma(text) -> Fraction:
    """argparse type for the error term gamma of Theorem 3: a rational >= 0,
    checked before any instance is read or searched."""
    value = _rational(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"need gamma >= 0, got {text!r}")
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
    gen.add_argument("--density", type=float)
    gen.add_argument("--p-red", type=float)
    gen.add_argument("--part-method")
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
    sol.add_argument("--iters", type=_non_negative_int)
    sol.add_argument("--seed", type=int)
    sol.add_argument("--gamma", type=_gamma, default=Fraction(0))
    sol.add_argument("--out")

    ver = sub.add_parser("verify", help="check a solve report's tiling against an instance")
    ver.add_argument("--instance", required=True)
    ver.add_argument("--report", required=True)

    bnd = sub.add_parser("bounds", help="print the bound table for (n, delta)")
    bnd.add_argument("--n", type=int, required=True)
    bnd.add_argument("--delta", type=int, required=True)
    bnd.add_argument("--gamma", type=_gamma, default=Fraction(0))

    thr = sub.add_parser("theory", help="chromatic profiles and bowtie reductions")
    thr_sub = thr.add_subparsers(dest="theory_command", required=True)
    prof = thr_sub.add_parser("profile", help="chromatic tiling profile of a graph file")
    prof.add_argument("--graph", help="uncolored graph file; omit for the bowtie")
    adm = thr_sub.add_parser("admissible-c", help="smallest admissible padding margin")
    adm.add_argument("--k", type=int, required=True)
    adm.add_argument("--delta", type=int, required=True)
    adm.add_argument("--c-f2", type=_rational, default=Fraction(0))
    red = thr_sub.add_parser("reduce", help="pad a base graph and tile it with bowties")
    red.add_argument("--graph", required=True)
    red.add_argument("--C", type=_rational, help="padding margin; default admissible_C")
    red.add_argument("--c-f2", type=_rational, default=Fraction(0))
    red.add_argument("--budget", type=_non_negative_int)

    exp = sub.add_parser("experiment", help="run a seeded sweep, appending CSV rows")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser run_cli parses with: built on first use, not at import, and
    kept for the process, since a parse leaves no state on it."""
    return build_parser()


def run_cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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


# the parameters each kind of instance reads, besides its seed
_READS = {
    "extremal": ("n", "delta", "part_method"),
    "random": ("n", "p_red"),
    "five-part": ("m", "density", "p_red"),
}


def _instance(
    kind: str,
    seed: int,
    n: Optional[int],
    delta: Optional[int] = None,
    m: Optional[int] = None,
    density: Optional[float] = None,
    p_red: Optional[float] = None,
    part_method: Optional[str] = None,
) -> tuple[ColoredGraph, str]:
    """Build one instance of kind; return it with its sidecar text.  A
    parameter left None takes its default, and one set for a kind that never
    reads it is rejected."""
    given = {"n": n, "delta": delta, "m": m, "density": density, "p_red": p_red,
             "part_method": part_method}
    unread = [key for key, value in given.items() if value is not None and key not in _READS[kind]]
    if unread:
        raise UsageError(f"{kind} instances take no {' or '.join(unread)}")
    p_red = 0.5 if p_red is None else p_red
    if kind == "extremal":
        if n is None or delta is None:
            raise UsageError("generate --kind extremal needs --n and --delta")
        method = "circulant_catalog" if part_method is None else part_method
        inst = extremal_instance(n, delta, method, seed)
        return inst.colored_graph, extremal_sidecar(inst)
    if kind == "random":
        if n is None:
            raise UsageError("generate --kind random needs --n")
        cg = random_coloring(complete_graph(n), p_red, seed)
        meta = {"kind": "random_complete", "n": n, "p_red": p_red, "seed": seed}
        return cg, sidecar_text([(key, str(value)) for key, value in meta.items()])
    if m is None:
        raise UsageError("generate --kind five-part needs --m")
    inst = five_part_instance(m, 1.0 if density is None else density, p_red, seed)
    return inst.colored_graph, five_part_sidecar(inst)


def _cmd_generate(args) -> int:
    cg, meta = _instance(
        args.kind or "extremal", args.seed, args.n, args.delta, args.m,
        args.density, args.p_red, args.part_method,
    )
    out = Path(args.out)
    out.write_text(dump_colored_graph(cg))
    Path(str(out) + ".meta").write_text(meta)
    return 0


def _solve(
    cg: ColoredGraph,
    mode: str,
    gamma: Fraction,
    budget: Optional[int] = None,
    heuristic: Optional[tuple[int, int]] = None,
) -> dict:
    """Timed solve of cg, exact or heuristic (iters, seed), as solve_report's
    dict plus the wall-clock runtime_ms of the search alone."""
    start = time.perf_counter()
    if heuristic is None:
        result = max_mono_tiling_exact(cg, mode, budget=budget)
    else:
        iters, seed = heuristic
        tiling = heuristic_tiling(cg, mode, iters=iters, seed=seed)
        result = SolveResult(tiling, exact=False, nodes_expanded=0, upper_bound_used=0)
    runtime_ms = int((time.perf_counter() - start) * 1000)
    report = solve_report(cg, result, gamma=gamma)
    report["runtime_ms"] = runtime_ms
    return report


# the solve flags that only one method reads
_SOLVE_UNREAD = {"exact": ("iters", "seed"), "heuristic": ("budget",)}


def _cmd_solve(args) -> int:
    unread = [f"--{key}" for key in _SOLVE_UNREAD[args.method] if getattr(args, key) is not None]
    if unread:
        raise UsageError(f"solve --{args.method} takes no {' or '.join(unread)}")
    cg = load_colored_graph(Path(args.instance).read_text())
    heuristic = None
    if args.method == "heuristic":
        heuristic = (HEURISTIC_ITERS if args.iters is None else args.iters,
                     HEURISTIC_SEED if args.seed is None else args.seed)
    report = _solve(cg, args.mode, args.gamma, args.budget, heuristic)
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
        g = load_graph(Path(args.graph).read_text()) if args.graph else bowtie_graph()
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
    # build (so the generators check) every instance before the CSV is opened
    runs = [
        (seed, _instance(entry.get("kind", "extremal"), seed, entry["n"], entry.get("delta"),
                         p_red=entry.get("p_red"), part_method=config.part_method)[0])
        for entry in config.instances for seed in entry["seeds"]
    ]
    out = Path(args.out)
    write_header = not out.exists() or out.stat().st_size == 0
    with out.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if write_header:
            writer.writerow(CSV_COLUMNS)
        for seed, cg in runs:
            for mode in config.modes:
                report = _solve(cg, mode, config.gamma, config.budget)
                bounds = report["bounds"]  # csv writes a None bound as ""
                writer.writerow([
                    report["n"], report["delta"], seed, mode, report["size"],
                    int(report["exact"]), bounds["thm3"], bounds["remarkA"],
                    bounds["bft"], report["runtime_ms"],
                ])
    return 0
