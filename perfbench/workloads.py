"""The four benchmark workloads: seeded plans, CLI pipelines and result gates.

A workload turns a seed into a list of instances.  Each instance carries the
argv lists of its pipeline (one op = the whole list, run in order through
`monotile.cli.run_cli`) and what the gate needs to check the outputs.  The
gate never trusts the program: tilings are re-checked against the instance
file here, and every report field it uses is checked for consistency.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


@dataclass
class Instance:
    key: str
    argvs: list[list[str]]
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    tiles: int = 0
    searches: int = 0  # exact searches run
    proven: int = 0  # of those, how many reported a proven result
    counters: dict = field(default_factory=dict)


class GateError(Exception):
    """An op's outputs failed a correctness check."""


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _interleave(groups: list[list[Instance]]) -> list[Instance]:
    # Round-robin over the classes.  Runs time whole passes, so each
    # instance's ops form one cluster of times; an odd instance count puts
    # op_s.p50 inside the middle instance's cluster, not in a gap between two.
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


# ---------------------------------------------------------------- checks


def parse_colored_edges(text: str) -> tuple[int, dict]:
    """Independent reader of the `n m` / `u v c` instance format."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = {}
    for u, v, c in rows[1:]:
        a, b = sorted((int(u), int(v)))
        edges[(a, b)] = c
    if len(edges) != m:
        raise GateError(f"instance declares {m} edges, has {len(edges)}")
    return n, edges


def check_tiling(instance_text: str, report: dict, mode: str) -> None:
    """Raise GateError unless the report's tiling is a valid `mode` tiling."""
    n, edges = parse_colored_edges(instance_text)
    tiling = report["tiling"]
    if report["mode"] != mode:
        raise GateError(f"report mode {report['mode']!r}, expected {mode!r}")
    if report["size"] != len(tiling):
        raise GateError(f"size {report['size']} but {len(tiling)} triangles")
    used: set[int] = set()
    colors = set()
    for a, b, c, color in tiling:
        tri = (a, b, c)
        if not all(isinstance(v, int) and 0 <= v < n for v in tri) or len(set(tri)) != 3:
            raise GateError(f"bad triangle {tri}")
        for u, v in ((a, b), (a, c), (b, c)):
            if edges.get((min(u, v), max(u, v))) != color:
                raise GateError(f"triangle {tri} is not monochromatic {color!r}")
        if used & set(tri):
            raise GateError(f"triangle {tri} overlaps an earlier one")
        used |= set(tri)
        colors.add(color)
    if mode == "strong" and len(colors) > 1:
        raise GateError("strong tiling mixes colors")


def _verified(outputs, index: int) -> None:
    if outputs[index][1].strip() != "valid":
        raise GateError("verify did not print `valid`")


def _report(path: Path) -> dict:
    return json.loads(path.read_text())


# ------------------------------------------------------------ workloads


class ExtremalBudget:
    """Certified extremal instances; budgeted exact search, then verify."""

    name = "extremal-budget"
    classes = {"full": ((90, 50), (60, 33), (40, 22)), "small": ((40, 22),)}
    per_class = {"full": 5, "small": 1}
    budget = {"full": 1000, "small": 50}

    def plan(self, seed: int, size: str, work: Path, modules) -> list[Instance]:
        rng = _rng(self.name, seed)
        inst, meta, rep = str(work / "x.edges"), str(work / "x.edges.meta"), str(work / "x.json")
        budget = str(self.budget[size])
        groups = []
        for n, delta in self.classes[size]:
            group = []
            for _ in range(self.per_class[size]):
                s = rng.randrange(2**31)
                argvs = [
                    ["generate", "--extremal", "--n", str(n), "--delta", str(delta),
                     "--seed", str(s), "--out", inst],
                    ["solve", "--exact", "--budget", budget, "--instance", inst, "--out", rep],
                    ["verify", "--instance", inst, "--report", rep],
                ]
                group.append(Instance(f"n{n}-d{delta}-s{s}", argvs, {"meta": meta}))
            groups.append(group)
        return _interleave(groups)

    def check(self, inst: Instance, outputs) -> Outcome:
        _verified(outputs, 2)
        argv = inst.argvs[1]
        instance_path = Path(argv[argv.index("--instance") + 1])
        report = _report(Path(argv[argv.index("--out") + 1]))
        check_tiling(instance_path.read_text(), report, "weak")
        bounds = [
            int(tok.split("=")[1])
            for line in Path(inst.params["meta"]).read_text().splitlines()
            if line.startswith("certificate_")
            for tok in line.split()
            if tok.startswith("bound=")
        ]
        if not bounds:
            raise GateError("no certificate bound in the sidecar")
        bound = min(bounds)
        size, exact = report["size"], report["exact"]
        if size > bound:
            raise GateError(f"size {size} exceeds the certificate bound {bound}")
        if exact and size < bound:
            raise GateError(f"exact size {size} below the certificate bound {bound}")
        return Outcome(
            True,
            tiles=size,
            searches=1,
            proven=int(exact),
            counters={"size": size, "exact": exact, "nodes": report["nodes"]},
        )


class FivePartProof:
    """Five-part bowtie blow-ups from a pool with recorded optima; exact
    search in weak and strong mode, each followed by verify."""

    name = "fivepart-proof"
    configs = {"full": ((9, 0.6), (9, 0.5), (8, 0.6), (8, 0.5)), "small": ((8, 0.5),)}
    per_config = {"full": 40, "small": 2}
    budget = {"full": 5000, "small": 500}

    def __init__(self):
        table = json.loads((HERE / "fivepart_optima.json").read_text())
        self.p_red = table["p_red"]
        self.optima = {
            (e["m"], e["density"], e["seed"]): {"weak": e["weak"], "strong": e["strong"]}
            for e in table["entries"]
        }

    def plan(self, seed: int, size: str, work: Path, modules) -> list[Instance]:
        rng = _rng(self.name, seed)
        inst = str(work / "x.edges")
        budget = str(self.budget[size])
        groups = []
        for m, density in self.configs[size]:
            pool = sorted(s for mm, d, s in self.optima if (mm, d) == (m, density))
            group = []
            for s in rng.sample(pool, self.per_config[size]):
                argvs = [
                    ["generate", "--five-part", "--m", str(m), "--density", str(density),
                     "--p-red", str(self.p_red), "--seed", str(s), "--out", inst],
                ]
                for mode in ("weak", "strong"):
                    rep = str(work / f"{mode}.json")
                    argvs.append(["solve", "--exact", "--mode", mode, "--budget", budget,
                                  "--instance", inst, "--out", rep])
                    argvs.append(["verify", "--instance", inst, "--report", rep])
                group.append(
                    Instance(f"m{m}-p{density}-s{s}", argvs, {"optimum": self.optima[(m, density, s)]})
                )
            groups.append(group)
        return _interleave(groups)

    def check(self, inst: Instance, outputs) -> Outcome:
        text = Path(inst.argvs[0][-1]).read_text()
        out = Outcome(True)
        for mode, solve_at in (("weak", 1), ("strong", 3)):
            _verified(outputs, solve_at + 1)
            argv = inst.argvs[solve_at]
            report = _report(Path(argv[argv.index("--out") + 1]))
            check_tiling(text, report, mode)
            optimum = inst.params["optimum"][mode]
            if report["size"] > optimum:
                raise GateError(f"{mode} size {report['size']} above the optimum {optimum}")
            if report["exact"] and report["size"] != optimum:
                raise GateError(f"{mode} exact size {report['size']} != optimum {optimum}")
            out.tiles += report["size"]
            out.searches += 1
            out.proven += int(report["exact"])
            out.counters.update(
                {f"{mode}.size": report["size"], f"{mode}.exact": report["exact"],
                 f"{mode}.nodes": report["nodes"]}
            )
        return out


class DenseHeuristic:
    """Random 2-coloured complete graphs; heuristic solve, then verify."""

    name = "dense-heuristic"
    sizes = {"full": (60,), "small": (15,)}
    per_size = {"full": 63, "small": 1}

    def plan(self, seed: int, size: str, work: Path, modules) -> list[Instance]:
        rng = _rng(self.name, seed)
        inst, rep = str(work / "x.edges"), str(work / "x.json")
        groups = []
        for n in self.sizes[size]:
            group = []
            for _ in range(self.per_size[size]):
                s = rng.randrange(2**31)
                argvs = [
                    ["generate", "--random", "--n", str(n), "--seed", str(s), "--out", inst],
                    ["solve", "--heuristic", "--instance", inst, "--out", rep],
                    ["verify", "--instance", inst, "--report", rep],
                ]
                group.append(Instance(f"n{n}-s{s}", argvs))
            groups.append(group)
        return _interleave(groups)

    def check(self, inst: Instance, outputs) -> Outcome:
        _verified(outputs, 2)
        report = _report(Path(inst.argvs[1][-1]))
        check_tiling(Path(inst.argvs[0][-1]).read_text(), report, "weak")
        return Outcome(True, tiles=report["size"], counters={"size": report["size"]})


class BowtieReduce:
    """Dense base graphs padded and tiled with bowties (`theory reduce`)."""

    name = "bowtie-reduce"
    # (k, edge probability, min degree, graphs per pass, node budget).  The
    # min degree is part of the class because it sets the padding and the
    # search's difficulty: at k=35, delta=18 graphs tile in about 50k nodes
    # while delta=19 ones (one accepted sample in seven) run past 1M nodes,
    # so they form their own small class whose budget runs out (unproven).
    # That budget is kept small so these ops stay below the delta=18 ones:
    # op_s.tail then falls inside one class, not on the edge between two.
    classes = {
        "full": (
            (35, 0.62, 18, 8, 100_000),
            (25, 0.62, 13, 16, 100_000),
            (35, 0.62, 19, 1, 5_000),
        ),
        "small": ((20, 0.66, 12, 1, 20_000),),
    }
    tries = 300
    # Seeds whose base graph is in the k=35, delta=19 class, found once by
    # drawing from random.Random("bowtie-reduce:k35-delta19").  Drawing this
    # class's graph from them, not by rejection, keeps setup_s from varying
    # with how many samples a seed wastes (2 to 36 in seven seeds tried).
    seed_pools = {
        (35, 19): (1992054814, 250958111, 727536261, 1817124932, 691843483, 1471496667,
                   1749776216, 1314716459, 1004566567, 661052792, 144307321, 33836732,
                   2088643162, 908734346, 799232757, 787774320),
    }

    def base_graph(self, k: int, p: float, delta: int, seed: int, modules):
        """The recipe of the acceptance tests' dense_reduction: keep the first
        G(k, p) sample with k/2 < delta <= 3k/5 whose padding hypothesis
        holds, here also requiring the class's min degree."""
        Graph, theory = modules["graphs"].Graph, modules["theory"]
        rng = random.Random(seed)
        for _ in range(self.tries):
            edges = [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < p]
            g = Graph(k, edges)
            d = g.min_degree()
            if 2 * d > k and 5 * d <= 3 * k:
                if theory.auxiliary_reduction(g, theory.admissible_C(k, d, 0), 0).hypothesis_ok:
                    return edges if d == delta else None
        return None

    def plan(self, seed: int, size: str, work: Path, modules) -> list[Instance]:
        rng = _rng(self.name, seed)
        groups = []
        for k, p, delta, count, budget in self.classes[size]:
            group = []
            pool = self.seed_pools.get((k, delta))
            while len(group) < count:
                s = rng.choice(pool) if pool else rng.randrange(2**31)
                edges = self.base_graph(k, p, delta, s, modules)
                if edges is None:
                    continue
                path = work / f"k{k}-s{s}.graph"
                lines = [f"{k} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
                path.write_text("\n".join(lines) + "\n")
                argvs = [["theory", "reduce", "--graph", str(path), "--budget", str(budget)]]
                group.append(Instance(f"k{k}-d{delta}-s{s}", argvs, {"k": k, "delta": delta}))
            groups.append(group)
        return _interleave(groups)

    def check(self, inst: Instance, outputs) -> Outcome:
        out = json.loads(outputs[0][1])
        k, delta = inst.params["k"], inst.params["delta"]
        if (out["k"], out["delta"]) != (k, delta):
            raise GateError(f"reduce read k={out['k']} delta={out['delta']}, wrote {k}, {delta}")
        if not out["hypothesis_ok"]:
            raise GateError("padding hypothesis fails on a base graph chosen for it")
        counters = {"perfect": out["perfect_tiling_found"], "search_exact": out["search_exact"]}
        if not out["perfect_tiling_found"]:
            if out["search_exact"]:
                raise GateError("search finished without a perfect bowtie tiling")
            # the node budget ran out: unproven, not wrong
            return Outcome(True, searches=1, counters=counters)
        C = Fraction(str(out["C"]))
        w = out["w_size"]
        s, t, ell = out["s"], out["t"], out["ell"]
        if Fraction(w) != Fraction(3, 2) * k - Fraction(5, 2) * delta + C:
            raise GateError(f"|W| = {w} does not match (3/2)k - (5/2)delta + C")
        if out["aux_order"] != k + w or (k + w) % 5:
            raise GateError(f"padded order {out['aux_order']} is not k + |W| divisible by 5")
        if 2 * s + t != w:
            raise GateError(f"2s + t = {2 * s + t} != |W| = {w}")
        if 3 * s + 4 * t + 5 * ell != k:
            raise GateError(f"3s + 4t + 5l = {3 * s + 4 * t + 5 * ell} != k = {k}")
        if Fraction(ell - s) != 2 * delta - k - Fraction(4, 5) * C:
            raise GateError("l - s != 2 delta - k - (4/5) C")
        counters.update({"s": s, "t": t, "ell": ell})
        return Outcome(True, tiles=s + t + ell, searches=1, proven=1, counters=counters)


WORKLOADS = {
    w.name: w
    for w in (ExtremalBudget, FivePartProof, DenseHeuristic, BowtieReduce)
}
