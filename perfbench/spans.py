"""Spans around calls into monotile's modules, for traced benchmark runs.

Tracing rebinds public function names in the namespace of the module that
calls them: after ``install``, a call to ``enumerate_mono_triangles`` made
inside ``solver.max_mono_tiling_exact`` goes through a wrapper that records a
span, because the function looks the name up in ``solver``'s globals.  The
program itself is not edited.  Each span records its name, start, end, the
span that called it and the op it belongs to, plus a few counts taken from
the arguments or the result.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (importing module, function name).  A span is named after the module that
# defines the function, so `solver.verify_tiling` covers the verify command
# (called from cli) and the self-checks inside the solvers alike.
HOOKS = (
    ("cli", "extremal_instance"),
    ("cli", "five_part_instance"),
    ("cli", "random_coloring"),
    ("cli", "dump_colored_graph"),
    ("cli", "load_colored_graph"),
    ("cli", "load_graph"),
    ("cli", "max_mono_tiling_exact"),
    ("cli", "heuristic_tiling"),
    ("cli", "verify_tiling"),
    ("cli", "solve_report"),
    ("cli", "auxiliary_reduction"),
    ("cli", "f2_tiling_exact"),
    ("cli", "classify_f2_copies"),
    ("generators", "max_independent_set_exact"),
    ("solver", "enumerate_mono_triangles"),
    ("solver", "verify_tiling"),
)


def _counts(name, args, result):
    if name == "graphio.load_colored_graph":
        return {"bytes": len(args[0])}
    if name == "independence.max_independent_set_exact":
        return {"nodes": result.nodes_expanded}
    if name == "graphs.enumerate_mono_triangles":
        return {"triangles": len(result)}
    if name == "solver.max_mono_tiling_exact":
        return {
            "nodes": result.nodes_expanded,
            "root_bound": result.upper_bound_used,
            "exact": int(result.exact),
        }
    if name == "solver.heuristic_tiling":
        return {"size": result.size}
    if name == "theory.f2_tiling_exact":
        return {"nodes": result.nodes_expanded}
    return None


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "counts")

    def __init__(self, id, name, parent, op):
        self.id = id
        self.name = name
        self.start = self.end = 0
        self.parent = parent
        self.op = op
        self.counts = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
        span.counts = _counts(name, args, result)
        return result

    def _wrap(self, fn):
        name = fn.__module__.rpartition(".")[2] + "." + fn.__name__

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, modules: dict) -> None:
        for mod_name, attr in HOOKS:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def op_counts(self, op) -> dict:
        """Counts of one op's spans, summed per `<span>.<count>` key."""
        out: dict[str, int] = defaultdict(int)
        for span in reversed(self.spans):  # an op's spans are the latest ones
            if span.op != op:
                break
            for key, value in (span.counts or {}).items():
                out[f"{span.name}.{key}"] += value
        return dict(out)

    def layer_metrics(self, n_ops: int, first_pass: set) -> dict:
        """Per-layer metrics: times per op over every traced op, counts over
        the ops of the first pass (so they repeat exactly for one seed)."""
        child_ns: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end - span.start
        total_ns: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        counts_all: dict[str, int] = defaultdict(int)
        counts_first: dict[str, int] = defaultdict(int)
        calls_first: dict[str, int] = defaultdict(int)
        for span in self.spans:
            dur = span.end - span.start
            total_ns[span.name] += dur
            self_ns[span.name] += dur - child_ns[span.id]
            if span.op in first_pass:
                calls_first[span.name] += 1
            for key, value in (span.counts or {}).items():
                counts_all[f"{span.name}.{key}"] += value
                if span.op in first_pass:
                    counts_first[f"{span.name}.{key}"] += value

        def per_op(table, name):
            return table[name] / 1e9 / n_ops

        def rate(count_key, table, name):
            ns = table[name]
            return counts_all[count_key] / (ns / 1e9) if ns else 0.0

        attempts = calls_first["solver.max_mono_tiling_exact"]
        return {
            "cli.run_cli.self_s": (per_op(self_ns, "cli.run_cli"), "s"),
            "graphio.load_colored_graph.s": (per_op(total_ns, "graphio.load_colored_graph"), "s"),
            "graphio.load_colored_graph.bytes": (counts_first["graphio.load_colored_graph.bytes"], "bytes"),
            "graphio.load_graph.s": (per_op(total_ns, "graphio.load_graph"), "s"),
            "graphio.dump_colored_graph.s": (per_op(total_ns, "graphio.dump_colored_graph"), "s"),
            "generators.extremal_instance.self_s": (per_op(self_ns, "generators.extremal_instance"), "s"),
            "generators.random_coloring.s": (per_op(total_ns, "generators.random_coloring"), "s"),
            "generators.five_part_instance.s": (per_op(total_ns, "generators.five_part_instance"), "s"),
            "independence.max_independent_set_exact.s": (per_op(total_ns, "independence.max_independent_set_exact"), "s"),
            "independence.max_independent_set_exact.nodes": (counts_first["independence.max_independent_set_exact.nodes"], "count"),
            "graphs.enumerate_mono_triangles.s": (per_op(total_ns, "graphs.enumerate_mono_triangles"), "s"),
            "graphs.triangles": (counts_first["graphs.enumerate_mono_triangles.triangles"], "count"),
            "graphs.triangles_per_s": (rate("graphs.enumerate_mono_triangles.triangles", total_ns, "graphs.enumerate_mono_triangles"), "1/s"),
            "solver.max_mono_tiling_exact.self_s": (per_op(self_ns, "solver.max_mono_tiling_exact"), "s"),
            "solver.nodes": (counts_first["solver.max_mono_tiling_exact.nodes"], "count"),
            "solver.nodes_per_s": (rate("solver.max_mono_tiling_exact.nodes", self_ns, "solver.max_mono_tiling_exact"), "1/s"),
            "solver.root_bound": (counts_first["solver.max_mono_tiling_exact.root_bound"], "count"),
            "solver.proven_over_attempted": (counts_first["solver.max_mono_tiling_exact.exact"] / attempts if attempts else 0.0, "ratio"),
            "solver.heuristic_tiling.self_s": (per_op(self_ns, "solver.heuristic_tiling"), "s"),
            "solver.heuristic_tiling.size": (counts_first["solver.heuristic_tiling.size"], "count"),
            "solver.verify_tiling.s": (per_op(total_ns, "solver.verify_tiling"), "s"),
            "solver.verify_tiling.calls": (calls_first["solver.verify_tiling"], "count"),
            "solver.solve_report.s": (per_op(total_ns, "solver.solve_report"), "s"),
            "theory.auxiliary_reduction.s": (per_op(total_ns, "theory.auxiliary_reduction"), "s"),
            "theory.f2_tiling_exact.s": (per_op(total_ns, "theory.f2_tiling_exact"), "s"),
            "theory.f2_tiling_exact.nodes": (counts_first["theory.f2_tiling_exact.nodes"], "count"),
            "theory.f2_tiling_exact.nodes_per_s": (rate("theory.f2_tiling_exact.nodes", total_ns, "theory.f2_tiling_exact"), "1/s"),
            "theory.classify_f2_copies.s": (per_op(total_ns, "theory.classify_f2_copies"), "s"),
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                row = {
                    "id": s.id,
                    "name": s.name,
                    "start_ns": s.start,
                    "end_ns": s.end,
                    "parent": s.parent,
                    "op": s.op,
                }
                if s.counts:
                    row["counts"] = s.counts
                fh.write(json.dumps(row) + "\n")
