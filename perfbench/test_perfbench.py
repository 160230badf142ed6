"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, GateError, check_tiling  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smallest_run_prints_every_metric(workload, trace):
    p = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
              "--trace", trace, "--size", "small")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert "failed_share                0 ratio" in p.stdout
        assert "proven_share" in p.stdout


@pytest.mark.parametrize("workload", ["fivepart-proof", "bowtie-reduce"])
def test_traced_counts_repeat_exactly(workload):
    def counts():
        p = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                  "--trace", "1", "--size", "small")
        metrics = json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
        digest = next(ln for ln in p.stdout.splitlines() if ln.startswith("counters:"))
        return (
            metrics["solver.nodes"]["value"],
            metrics["theory.f2_tiling_exact.nodes"]["value"],
            digest.split("digest ")[1].split()[0],
        )

    first = counts()
    assert first[0] + first[1] > 0
    assert counts() == first


def test_workload_list_matches_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_overlapping_triangle_is_counted_failed(tmp_path):
    modules = run.fresh_import()
    workload = WORKLOADS["extremal-budget"]()
    instances = workload.plan(0, "small", tmp_path, modules)
    honest = run.make_call(modules["cli"], None)

    def corrupting(argv):
        out = honest(argv)
        if argv[0] == "solve":
            path = Path(argv[argv.index("--out") + 1])
            report = json.loads(path.read_text())
            report["tiling"].append(report["tiling"][0])
            report["size"] += 1
            path.write_text(json.dumps(report))
        return out

    good = run.run_phase(workload, instances, honest, 0, {})
    assert all(o.ok for o in good.outcomes)
    bad = run.run_phase(workload, instances, corrupting, 0, {})
    assert len(bad.outcomes) == len(instances)
    assert not any(o.ok for o in bad.outcomes)


def test_op_times_are_scaled_to_reference_speed(tmp_path, monkeypatch):
    modules = run.fresh_import()
    workload = WORKLOADS["extremal-budget"]()
    instances = workload.plan(0, "small", tmp_path, modules)
    # the host runs the reference work at half the reference speed
    monkeypatch.setattr(run, "time_reference", lambda: 2 * run.REFERENCE_S)
    phase = run.run_phase(workload, instances, run.make_call(modules["cli"], None), 0, {})
    assert phase.times == pytest.approx([t / 2 for t in phase.raw_times])


def test_own_tiling_check_rejects_overlap_without_the_cli():
    text = "4 6\n0 1 r\n0 2 r\n0 3 r\n1 2 r\n1 3 r\n2 3 r\n"
    ok = {"mode": "weak", "size": 1, "tiling": [[0, 1, 2, "r"]]}
    check_tiling(text, ok, "weak")
    overlap = {"mode": "weak", "size": 2, "tiling": [[0, 1, 2, "r"], [1, 2, 3, "r"]]}
    with pytest.raises(GateError, match="overlaps"):
        check_tiling(text, overlap, "weak")
    wrong_color = {"mode": "weak", "size": 1, "tiling": [[0, 1, 2, "b"]]}
    with pytest.raises(GateError, match="monochromatic"):
        check_tiling(text, wrong_color, "weak")


def test_tail_is_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(1, 41)]
    value, name = run.tail(times)
    assert value == 30.0 and name.startswith("p75.0")
    assert run.tail([1.0, 2.0])[0] == 2.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "extremal-budget", "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
