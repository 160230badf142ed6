"""monotile benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is one process, one thread and a closed loop: one op at a time,
each op starting when the previous one ends.  An op is one instance's whole
pipeline (for example generate, solve, verify), each step a call to
`monotile.cli.run_cli(argv)` in this process, so interpreter start-up is not
measured.  Every op's outputs are checked (see workloads.py); a failed check
counts the op as failed.  The run makes whole passes over the seed's
instances and stops at the pass boundary nearest to S seconds, after at
least one pass, so every instance weighs the same and the deterministic
counters cover every instance.

Times are reported in seconds at reference speed: every op and every set-up
is bracketed by two timings of a fixed piece of reference work, and its wall
time is scaled by REFERENCE_S over their mean (see reference.py for why).
The raw median over all ops is printed alongside, for reference.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half traced, and prints the per-layer metrics of the traced
half plus the tracing overhead (traced minus untraced op_s.p50).  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Per-op counters and the spans of a traced run are written under
.perfbench/ in the repository root.  `--size small` runs one tiny instance
class instead; the benchmark's own tests (test_perfbench.py) use it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
TAIL_BEYOND = 10

sys.path.insert(0, str(HERE))
from reference import REFERENCE_S, time_reference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, GateError, Outcome  # noqa: E402


def fresh_import() -> dict:
    """Import monotile from this checkout's src/, dropping cached modules so
    that every set-up pays the full import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "monotile" or m.startswith("monotile.")]:
        del sys.modules[name]
    importlib.import_module("monotile.cli")
    origin = Path(sys.modules["monotile"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"monotile was imported from {origin}, not from {SRC}")
    names = ("cli", "generators", "graphs", "solver", "theory")
    return {n: sys.modules[f"monotile.{n}"] for n in names}


def make_call(cli, tracer):
    """run_cli with stdout and stderr captured; an escaping exception is
    reported as exit code None."""

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    rc = cli.run_cli(argv)
                else:
                    rc = tracer.call("cli.run_cli", cli.run_cli, argv)
            except Exception:  # a traceback is a failed op, not a failed run
                rc = None
                err.write(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue()

    return call


def run_op(workload, inst, call) -> tuple[float, Outcome]:
    """Run one instance's pipeline; time the CLI calls, then check outputs."""
    outputs = []
    start = time.perf_counter()
    for argv in inst.argvs:
        outputs.append(call(argv))
        if outputs[-1][0] != 0:
            break
    elapsed = time.perf_counter() - start
    rc, _, err = outputs[-1]
    if rc != 0:
        last = err.strip().splitlines()[-1:] or [""]
        return elapsed, Outcome(False, f"`{' '.join(inst.argvs[len(outputs) - 1][:2])}` exit {rc}: {last[0]}")
    try:
        return elapsed, workload.check(inst, outputs)
    except (GateError, LookupError, OSError, TypeError, ValueError) as exc:
        return elapsed, Outcome(False, f"{type(exc).__name__}: {exc}")


@dataclass
class Phase:
    """Ops of one timed loop, with their outcomes."""

    times: list[float] = field(default_factory=list)  # at reference speed
    raw_times: list[float] = field(default_factory=list)  # wall seconds
    outcomes: list[Outcome] = field(default_factory=list)
    op_ids: list[int] = field(default_factory=list)
    first_pass: list[Outcome] = field(default_factory=list)  # one per instance


def run_phase(workload, instances, call, seconds, counters, tracer=None, first_op=0) -> Phase:
    """Closed loop over whole passes of the instances, stopping at the pass
    boundary nearest to `seconds` (at least one pass).  Whole passes give
    every instance the same weight in the percentiles.

    `counters` maps (instance key, traced) to the deterministic counters of
    the instance's first run; a later run that disagrees fails its op."""
    phase = Phase()
    start = time.perf_counter()
    op_id = first_op
    ref_before = time_reference()
    while True:
        for inst in instances:
            if tracer is not None:
                tracer.op = op_id
            elapsed, outcome = run_op(workload, inst, call)
            ref_after = time_reference()
            if outcome.ok:
                if tracer is not None:
                    outcome.counters.update(tracer.op_counts(op_id))
                seen = counters.setdefault((inst.key, tracer is not None), outcome.counters)
                if seen != outcome.counters:
                    outcome = Outcome(False, f"counters {outcome.counters} != first run {seen}")
            phase.times.append(elapsed * 2 * REFERENCE_S / (ref_before + ref_after))
            phase.raw_times.append(elapsed)
            ref_before = ref_after
            phase.outcomes.append(outcome)
            phase.op_ids.append(op_id)
            op_id += 1
        passes = len(phase.times) // len(instances)
        so_far = time.perf_counter() - start
        if so_far + so_far / passes / 2 >= seconds:
            break
    phase.first_pass = phase.outcomes[: len(instances)]
    return phase


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} (fewer than {TAIL_BEYOND + 1} ops)"
    rank = n - TAIL_BEYOND  # 1-based; TAIL_BEYOND samples lie above it
    return ordered[rank - 1], f"p{100 * rank / n:.1f} of {n} ops"


def end_to_end(phase: Phase, setup_s: float) -> tuple[dict, list[str]]:
    times = phase.times
    tail_s, tail_name = tail(times)
    searches = sum(o.searches for o in phase.first_pass)
    proven = sum(o.proven for o in phase.first_pass)
    failed = sum(not o.ok for o in phase.outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_s, "s"),
        "ops_per_s": (len(times) / sum(times), "ops/s"),
        "tiles_total": (sum(o.tiles for o in phase.first_pass), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "op_s.p50": f"{len(times)} ops",
        "op_s.tail": tail_name,
        "tiles_total": f"one pass over {len(phase.first_pass)} instances",
    }
    lines = [f"  {name:<14} {value:>14.6g} {unit:<6} {notes.get(name, '')}" for name, (value, unit) in metrics.items()]
    proven_text = f"{proven / searches:.6g} ratio  ({proven} of {searches} exact searches, first pass)" if searches else "n/a    (no exact searches on this workload)"
    lines.append(f"  {'proven_share':<14} {proven_text}")
    lines.append(f"  {'raw op p50':<14} {statistics.median(phase.raw_times):>14.6g} s      "
                 "(wall time, not scaled to reference speed)")
    lines.append(f"  {'failed_share':<14} {failed / len(times):>14.6g} ratio  ({failed} of {len(times)} ops)")
    return metrics, lines


def counters_digest(counters: dict) -> str:
    canon = json.dumps(sorted([k, t, c] for (k, t), c in counters.items()), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: one tiny instance class, for testing the benchmark")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "monotile" / "cli.py").is_file():
        print(f"error: no monotile sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        return measure(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, args, work: Path) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        ref_before = time_reference()
        start = time.perf_counter()
        modules = fresh_import()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        instances = workload.plan(args.seed, args.size, work, modules)
        elapsed = time.perf_counter() - start
        setups.append(elapsed * 2 * REFERENCE_S / (ref_before + time_reference()))
    setup_s = statistics.median(setups)
    cli = modules["cli"]

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  {len(instances)} instances; closed loop, 1 client, 1 thread, one op at a time")
    counters: dict = {}
    tag = f"{workload.name}-seed{args.seed}"
    run_op(workload, instances[0], make_call(cli, None))  # warm-up, untimed: first calls pay lazy set-up
    if not args.trace:
        phase = run_phase(workload, instances, make_call(cli, None), args.seconds, counters)
        metrics, lines = end_to_end(phase, setup_s)
        print("end-to-end (times in seconds at reference speed, see reference.py):")
        print("\n".join(lines))
        outcomes = phase.outcomes
    else:
        half = args.seconds / 2
        plain = run_phase(workload, instances, make_call(cli, None), half, counters)
        tracer = Tracer()
        tracer.install(modules)
        try:
            traced = run_phase(workload, instances, make_call(cli, tracer), half, counters,
                               tracer, first_op=len(plain.times))
        finally:
            tracer.uninstall()
        first = set(traced.op_ids[: len(instances)])
        metrics = tracer.layer_metrics(len(traced.times), first)
        overhead = statistics.median(traced.times) - statistics.median(plain.times)
        metrics["trace.overhead_s"] = (overhead, "s")
        print(f"per-layer ({len(traced.times)} traced ops; counts over the first pass of {len(instances)}):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<46} {value:>14.6g} {unit}")
        print("  waits: none; one thread, no I/O contention, so no layer waits on another")
        spans_path = OUT_DIR / f"spans-{tag}.jsonl"
        tracer.dump(spans_path)
        print(f"  spans: {spans_path.relative_to(ROOT)}")
        outcomes = plain.outcomes + traced.outcomes

    counters_path = OUT_DIR / f"counters-{tag}-trace{args.trace}.json"
    rows = [{"instance": k, "traced": t, **c} for (k, t), c in counters.items()]
    counters_path.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"counters: {len(rows)} rows, digest {counters_digest(counters)}  ({counters_path.relative_to(ROOT)})")
    failures = [o.reason for o in outcomes if not o.ok]
    for reason in sorted(set(failures))[:5]:
        print(f"FAILED: {reason}")
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
