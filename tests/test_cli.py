"""End-to-end tests for the command-line front end.

Each subcommand runs through ``run_cli`` in-process so exit codes, stdout,
and written files can be checked directly. Two smoke tests run the entry
point declared in ``pyproject.toml`` and ``python -m monotile`` in a
subprocess from the source checkout, so no install is needed; another runs
the installed ``monotile`` console script and is skipped where none is on
``PATH``.
"""

import argparse
import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from monotile import cli, solver
from monotile.cli import CSV_COLUMNS, build_parser, run_cli
from monotile.generators import circulant, complete_graph, extremal_instance
from monotile.graphio import dump_colored_graph, dump_graph, load_colored_graph
from monotile.rationals import rational_json
from monotile.solver import bound_table

import oracles


def run(capsys, *argv):
    """Invoke the CLI, returning (exit_code, stdout, stderr)."""
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


REPO_ROOT = Path(__file__).resolve().parent.parent
SUBPROCESS_TIMEOUT_S = 60
BOUNDS_REFERENCE_ARGV = ("bounds", "--n", "100", "--delta", "90")


def run_script(script, *argv, env=None):
    """Run ``script`` (argv prefix) with ``argv`` in a child process."""
    return subprocess.run(
        [*script, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=SUBPROCESS_TIMEOUT_S,
    )


def checkout_env():
    """Environment with this checkout's absolute src/ first on PYTHONPATH
    (the documented PYTHONPATH=src is relative to the working directory)."""
    inherited = os.environ.get("PYTHONPATH")
    paths = [str(REPO_ROOT / "src")] + ([inherited] if inherited else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def assert_bounds_reference_point(proc):
    """Check ``BOUNDS_REFERENCE_ARGV``'s output: Theorem 3 gives delta/3 = 30."""
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["thm3_lower"] == 30
    assert report["remarkA_upper"] == 30
    assert report["bft_weak"] == 26


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


class TestBounds:
    def test_reference_point(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "100", "--delta", "55")
        assert code == 0
        report = json.loads(out)
        assert report["thm3_lower"] == 10
        assert report["remarkA_upper"] == 10
        assert report["bft_weak"] == 0

    def test_json_keys(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "60", "--delta", "50")
        assert code == 0
        report = json.loads(out)
        assert sorted(report) == [
            "bft_weak",
            "delta",
            "gamma",
            "n",
            "remarkA_upper",
            "thm3_lower",
        ]
        assert report["n"] == 60
        assert report["delta"] == 50

    def test_fractional_values_serialized_as_strings(self, capsys):
        # delta = n/2 exactly: the upper bound is delta/3, not an integer.
        code, out, _ = run(capsys, "bounds", "--n", "100", "--delta", "50")
        assert code == 0
        report = json.loads(out)
        assert report["remarkA_upper"] == "50/3"
        assert report["thm3_lower"] == 0

    def test_gamma_shift(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--n", "100", "--delta", "55", "--gamma", "1/100"
        )
        assert code == 0
        report = json.loads(out)
        assert report["gamma"] == "1/100"
        assert report["thm3_lower"] == 9  # 10 - gamma*n

    def test_invalid_delta_is_usage_failure(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "10", "--delta", "10")
        assert code == 1
        assert err

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "10")
        assert code == 1
        assert "delta" in err


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


class TestGenerate:
    def test_extremal_writes_instance_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "inst.edges"
        code, _, _ = run(
            capsys,
            "generate", "--extremal",
            "--n", "31", "--delta", "16", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        assert out.exists()
        meta = oracles.parse_sidecar((tmp_path / "inst.edges.meta").read_text())
        assert meta["kind"] == "extremal"
        assert meta["n"] == "31"
        assert meta["part_sizes"] == "15 15 1"
        assert meta["certificate_0"] == "AvoidV1 bound=5 parts=0"
        assert meta["certificate_1"] == "AvoidV1AndV3Budget bound=1 parts=1,2"

    @pytest.mark.parametrize("kinds", [("--extremal", "--random"), ("--random", "--five-part")])
    def test_two_kind_flags_fail(self, tmp_path, capsys, kinds):
        out = tmp_path / "x.edges"
        code, _, err = run(
            capsys, "generate", *kinds, "--n", "6", "--seed", "1", "--out", str(out),
        )
        assert code == 1
        assert f"argument {kinds[1]}: not allowed with argument {kinds[0]}" in err
        assert not out.exists()
        assert not (tmp_path / "x.edges.meta").exists()

    def test_default_kind_is_extremal(self, tmp_path, capsys):
        out = tmp_path / "c.edges"
        code, _, _ = run(
            capsys, "generate", "--n", "26", "--delta", "13", "--seed", "0",
            "--out", str(out),
        )
        assert code == 0
        assert oracles.parse_sidecar((tmp_path / "c.edges.meta").read_text())["kind"] == "extremal"

    def test_generated_instance_round_trips(self, tmp_path, capsys):
        out = tmp_path / "inst.edges"
        run(
            capsys, "generate", "--extremal", "--n", "30", "--delta", "18",
            "--seed", "5", "--out", str(out),
        )
        cg = load_colored_graph(out.read_text())
        meta = oracles.parse_sidecar((tmp_path / "inst.edges.meta").read_text())
        assert cg.n == 30
        assert cg.graph.min_degree() == int(meta["achieved_min_degree"])

    def test_random_kind(self, tmp_path, capsys):
        out = tmp_path / "r.edges"
        code, _, _ = run(
            capsys, "generate", "--random", "--n", "9", "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        cg = load_colored_graph(out.read_text())
        assert cg.n == 9
        assert cg.graph.num_edges == 36
        meta = oracles.parse_sidecar((tmp_path / "r.edges.meta").read_text())
        assert meta["kind"] == "random_complete"
        assert meta["seed"] == "7"

    def test_five_part_kind_and_density_keys(self, tmp_path, capsys):
        out = tmp_path / "f.edges"
        code, _, _ = run(
            capsys, "generate", "--five-part", "--m", "4", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        cg = load_colored_graph(out.read_text())
        assert cg.n == 20
        meta = oracles.parse_sidecar((tmp_path / "f.edges.meta").read_text())
        assert meta["kind"] == "five_part"
        assert meta["pair_density_0_1"] == "1"  # complete blowup at density 1.0
        # densities exist exactly for the six adjacent part pairs of the
        # center-plus-two-wings pattern
        joined = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]
        assert [key for key in meta if key.startswith("pair_density")] == [
            f"pair_density_{i}_{j}" for i, j in joined
        ]

    def test_missing_parameters_fail(self, tmp_path, capsys):
        out = str(tmp_path / "x.edges")
        assert run(capsys, "generate", "--extremal", "--n", "20",
                   "--seed", "0", "--out", out)[0] == 1
        assert run(capsys, "generate", "--random", "--seed", "0",
                   "--out", out)[0] == 1
        assert run(capsys, "generate", "--five-part", "--seed", "0",
                   "--out", out)[0] == 1

    def test_infeasible_sizes_fail_cleanly(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "--extremal", "--n", "10", "--delta", "2",
            "--seed", "0", "--out", str(tmp_path / "x.edges"),
        )
        assert code == 1
        assert "error" in err


# ---------------------------------------------------------------------------
# solve / verify round trip
# ---------------------------------------------------------------------------


@pytest.fixture
def small_instance(tmp_path, capsys):
    path = tmp_path / "inst.edges"
    run(
        capsys, "generate", "--random", "--n", "8", "--seed", "11",
        "--out", str(path),
    )
    return path


class TestSolveVerify:
    def test_round_trip_is_valid(self, small_instance, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "solve", "--instance", str(small_instance),
            "--out", str(report),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "verify", "--instance", str(small_instance),
            "--report", str(report),
        )
        assert code == 0
        assert out.strip() == "valid"

    def test_report_schema(self, small_instance, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        run(capsys, "solve", "--instance", str(small_instance),
            "--mode", "strong", "--out", str(report_path))
        report = json.loads(report_path.read_text())
        for key in ("n", "delta", "mode", "size", "exact", "nodes",
                    "tiling", "bounds", "runtime_ms"):
            assert key in report
        assert report["mode"] == "strong"
        assert report["exact"] is True
        assert sorted(report["bounds"]) == ["bft", "remarkA", "thm3"]
        for entry in report["tiling"]:
            assert len(entry) == 4
            assert entry[3] in ("r", "b")
        assert report["size"] == len(report["tiling"])

    def test_exact_flag_is_default_spelling(self, small_instance, tmp_path, capsys):
        plain = tmp_path / "a.json"
        flagged = tmp_path / "b.json"
        run(capsys, "solve", "--instance", str(small_instance), "--out", str(plain))
        run(capsys, "solve", "--instance", str(small_instance), "--exact",
            "--out", str(flagged))
        a = json.loads(plain.read_text())
        b = json.loads(flagged.read_text())
        a.pop("runtime_ms"), b.pop("runtime_ms")
        assert a == b

    def test_exact_and_heuristic_are_exclusive(self, small_instance, capsys):
        code, _, err = run(
            capsys, "solve", "--instance", str(small_instance),
            "--exact", "--heuristic",
        )
        assert code == 1
        assert "not allowed" in err

    def test_heuristic_solve_verifies(self, small_instance, tmp_path, capsys):
        report = tmp_path / "h.json"
        code, _, _ = run(
            capsys, "solve", "--instance", str(small_instance), "--heuristic",
            "--iters", "8", "--seed", "2", "--out", str(report),
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert data["exact"] is False
        code, out, _ = run(
            capsys, "verify", "--instance", str(small_instance),
            "--report", str(report),
        )
        assert code == 0 and out.strip() == "valid"

    def test_solve_without_out_prints_report(self, small_instance, capsys):
        code, out, _ = run(capsys, "solve", "--instance", str(small_instance))
        assert code == 0
        assert json.loads(out)["n"] == 8

    def test_determinism_modulo_runtime(self, small_instance, tmp_path, capsys):
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        for path in (first, second):
            run(capsys, "solve", "--instance", str(small_instance),
                "--mode", "weak", "--out", str(path))
        strip = lambda text: re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', text)
        assert strip(first.read_text()) == strip(second.read_text())

    def test_tampered_report_rejected(self, small_instance, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        run(capsys, "solve", "--instance", str(small_instance),
            "--out", str(report_path))
        report = json.loads(report_path.read_text())
        if report["tiling"]:
            report["tiling"][0][3] = "b" if report["tiling"][0][3] == "r" else "r"
        else:
            report["tiling"] = [[0, 1, 2, "r"]]
        report_path.write_text(json.dumps(report))
        code, _, err = run(
            capsys, "verify", "--instance", str(small_instance),
            "--report", str(report_path),
        )
        assert code == 1
        assert "invalid tiling" in err

    def test_malformed_report_rejected(self, small_instance, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mode": "weak"}))
        code, _, err = run(
            capsys, "verify", "--instance", str(small_instance),
            "--report", str(bad),
        )
        assert code == 1
        assert "malformed" in err

    def test_missing_instance_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "solve", "--instance", str(tmp_path / "nope.edges"),
        )
        assert code == 1
        assert "error" in err


# generate flags of each pinned instance
PINNED_INSTANCES = {
    "k7-seed5": ("--random", "--n", "7", "--seed", "5"),
    "extremal-26-13-seed1": ("--extremal", "--n", "26", "--delta", "13", "--seed", "1"),
    "five-part-6-seed5": ("--five-part", "--m", "6", "--density", "0.7", "--p-red", "0.4", "--seed", "5"),
}

# instance files written as they stand: K_5 red on the 5-cycle and blue on its
# complement has no monochromatic triangle
PINNED_TEXTS = {
    "empty": "0 0\n",
    "edgeless-4": "4 0\n",
    "red-k5": "5 10\n" + "".join(f"{u} {v} r\n" for u in range(5) for v in range(u + 1, 5)),
    "no-mono-k5": "5 10\n" + "".join(
        f"{u} {v} {'r' if v - u in (1, 4) else 'b'}\n" for u in range(5) for v in range(u + 1, 5)
    ),
}

# (instance, solve flags) -> the report with runtime_ms removed, as compact
# JSON with sorted keys: the bytes `solve` writes, not properties of them.
REPORT_PINS = [
    ("k7-seed5", ("--exact", "--mode", "weak"),
     '{"bounds":{"bft":1,"remarkA":2,"thm3":2},"delta":6,"exact":true,"mode":"weak","n":7,"nodes":1,"size":2,'
     '"tiling":[[0,1,4,"b"],[2,3,5,"r"]]}'),
    ("k7-seed5", ("--exact", "--mode", "strong"),
     '{"bounds":{"bft":1,"remarkA":2,"thm3":2},"delta":6,"exact":true,"mode":"strong","n":7,"nodes":2,"size":2,'
     '"tiling":[[0,3,4,"b"],[1,5,6,"b"]]}'),
    ("k7-seed5", ("--heuristic", "--mode", "weak"),
     '{"bounds":{"bft":1,"remarkA":2,"thm3":2},"delta":6,"exact":false,"mode":"weak","n":7,"nodes":0,"size":2,'
     '"tiling":[[0,1,4,"b"],[2,3,5,"r"]]}'),
    ("k7-seed5", ("--heuristic", "--mode", "strong"),
     '{"bounds":{"bft":1,"remarkA":2,"thm3":2},"delta":6,"exact":false,"mode":"strong","n":7,"nodes":0,"size":2,'
     '"tiling":[[0,3,4,"b"],[1,5,6,"b"]]}'),
    ("extremal-26-13-seed1", ("--exact", "--mode", "weak"),
     '{"bounds":{"bft":0,"remarkA":"17/3","thm3":"17/3"},"delta":17,"exact":true,"mode":"weak","n":26,"nodes":1,'
     '"size":0,"tiling":[]}'),
    ("extremal-26-13-seed1", ("--exact", "--mode", "strong"),
     '{"bounds":{"bft":0,"remarkA":"17/3","thm3":"17/3"},"delta":17,"exact":true,"mode":"strong","n":26,"nodes":2,'
     '"size":0,"tiling":[]}'),
    ("extremal-26-13-seed1", ("--heuristic", "--mode", "weak"),
     '{"bounds":{"bft":0,"remarkA":"17/3","thm3":"17/3"},"delta":17,"exact":false,"mode":"weak","n":26,"nodes":0,'
     '"size":0,"tiling":[]}'),
    ("extremal-26-13-seed1", ("--heuristic", "--mode", "strong"),
     '{"bounds":{"bft":0,"remarkA":"17/3","thm3":"17/3"},"delta":17,"exact":false,"mode":"strong","n":26,"nodes":0,'
     '"size":0,"tiling":[]}'),
    ("extremal-26-13-seed1", ("--exact", "--mode", "weak", "--gamma", "1/26"),
     '{"bounds":{"bft":0,"remarkA":"17/3","thm3":"14/3"},"delta":17,"exact":true,"mode":"weak","n":26,"nodes":1,'
     '"size":0,"tiling":[]}'),
    ("five-part-6-seed5", ("--exact", "--mode", "weak"),
     '{"bounds":{"bft":0,"remarkA":null,"thm3":0},"delta":5,"exact":true,"mode":"weak","n":30,"nodes":1,"size":6,'
     '"tiling":[[0,18,24,"b"],[1,6,12,"b"],[2,7,14,"r"],[3,19,26,"b"],[4,8,15,"b"],[5,10,16,"r"]]}'),
    ("five-part-6-seed5", ("--exact", "--mode", "strong"),
     '{"bounds":{"bft":0,"remarkA":null,"thm3":0},"delta":5,"exact":true,"mode":"strong","n":30,"nodes":2,"size":6,'
     '"tiling":[[0,18,24,"b"],[1,6,12,"b"],[2,8,13,"b"],[3,19,26,"b"],[4,7,15,"b"],[5,20,27,"b"]]}'),
    ("five-part-6-seed5", ("--heuristic", "--mode", "weak"),
     '{"bounds":{"bft":0,"remarkA":null,"thm3":0},"delta":5,"exact":false,"mode":"weak","n":30,"nodes":0,"size":6,'
     '"tiling":[[0,18,24,"b"],[1,6,12,"b"],[2,7,14,"r"],[3,19,26,"b"],[4,8,15,"b"],[5,10,16,"r"]]}'),
    ("five-part-6-seed5", ("--heuristic", "--mode", "strong"),
     '{"bounds":{"bft":0,"remarkA":null,"thm3":0},"delta":5,"exact":false,"mode":"strong","n":30,"nodes":0,"size":6,'
     '"tiling":[[0,18,24,"b"],[1,6,12,"b"],[2,8,13,"b"],[3,19,26,"b"],[4,7,15,"b"],[5,20,27,"b"]]}'),
    ("five-part-6-seed5", ("--heuristic", "--mode", "strong", "--iters", "0"),
     '{"bounds":{"bft":0,"remarkA":null,"thm3":0},"delta":5,"exact":false,"mode":"strong","n":30,"nodes":0,"size":6,'
     '"tiling":[[0,18,24,"b"],[1,6,12,"b"],[2,8,13,"b"],[3,19,26,"b"],[4,7,15,"b"],[5,20,27,"b"]]}'),
    ("empty", ("--heuristic", "--mode", "weak"),
     '{"bounds":{"bft":0,"remarkA":null,"thm3":0},"delta":0,"exact":false,"mode":"weak","n":0,"nodes":0,"size":0,'
     '"tiling":[]}'),
    ("edgeless-4", ("--heuristic", "--mode", "weak"),
     '{"bounds":{"bft":0,"remarkA":null,"thm3":0},"delta":0,"exact":false,"mode":"weak","n":4,"nodes":0,"size":0,'
     '"tiling":[]}'),
    ("red-k5", ("--heuristic", "--mode", "strong"),
     '{"bounds":{"bft":0,"remarkA":"4/3","thm3":"4/3"},"delta":4,"exact":false,"mode":"strong","n":5,"nodes":0,'
     '"size":1,"tiling":[[0,1,2,"r"]]}'),
    ("no-mono-k5", ("--heuristic", "--mode", "weak"),
     '{"bounds":{"bft":0,"remarkA":"4/3","thm3":"4/3"},"delta":4,"exact":false,"mode":"weak","n":5,"nodes":0,'
     '"size":0,"tiling":[]}'),
]


@pytest.mark.parametrize("name, flags, expected", REPORT_PINS)
def test_pinned_solve_report(tmp_path, capsys, name, flags, expected):
    inst = tmp_path / "inst.edges"
    if name in PINNED_TEXTS:
        inst.write_text(PINNED_TEXTS[name])
    else:
        assert run(capsys, "generate", *PINNED_INSTANCES[name], "--out", str(inst))[0] == 0
    code, out, err = run(capsys, "solve", "--instance", str(inst), *flags)
    assert code == 0, err
    report = json.loads(out)
    assert report.pop("runtime_ms") >= 0
    assert json.dumps(report, sort_keys=True, separators=(",", ":")) == expected


@pytest.mark.parametrize("n", [30, 45, 60, 75, 90, 120])
def test_certified_extremal_family_is_proven(tmp_path, capsys, n):
    # The construction behind the paper's tight bounds, seed 1, delta from
    # n/2 + 1 up to n - 1 in steps of max(1, n/16) (63 instances): solve
    # --exact, with no budget, proves each one's certificate bound.
    path = tmp_path / "x.edges"
    got, want = [], []
    for delta in range(n // 2 + 1, n, max(1, n // 16)):
        inst = extremal_instance(n, delta, seed=1)
        path.write_text(dump_colored_graph(inst.colored_graph))
        code, out, err = run(capsys, "solve", "--exact", "--instance", str(path))
        assert code == 0, err
        report = json.loads(out)
        got.append((delta, report["exact"], report["size"]))
        want.append((delta, True, inst.best_bound()))
    assert got == want


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------


class TestTheory:
    def test_profile_default_graph(self, capsys):
        code, out, _ = run(capsys, "theory", "profile")
        assert code == 0
        profile = json.loads(out)
        assert profile == {
            "chi": 3,
            "sigma": 1,
            "chi_cr": "5/2",
            "chi_star": "5/2",
            "hcf": 1,
            "hcf_c": "inf",
            "hcf_chi": 1,
        }

    def test_profile_from_file(self, tmp_path, capsys):
        path = tmp_path / "triangle.edges"
        path.write_text("3 3\n0 1\n0 2\n1 2\n")
        code, out, _ = run(capsys, "theory", "profile", "--graph", str(path))
        assert code == 0
        profile = json.loads(out)
        assert profile["chi"] == 3
        assert profile["sigma"] == 1
        assert profile["chi_cr"] == 3
        assert profile["hcf_chi"] == "inf"

    def test_admissible_c(self, capsys):
        code, out, _ = run(
            capsys, "theory", "admissible-c", "--k", "20", "--delta", "11",
        )
        assert code == 0
        assert json.loads(out) == {"C": "25/2"}

    def test_admissible_c_integral_case(self, capsys):
        code, out, _ = run(
            capsys, "theory", "admissible-c", "--k", "25", "--delta", "13",
        )
        assert code == 0
        assert json.loads(out) == {"C": 10}

    def test_admissible_c_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "theory", "admissible-c", "--k", "10", "--delta", "2",
        )
        assert code == 1
        assert err

    def test_reduce_degenerate_base(self, tmp_path, capsys):
        # 6-regular base on 10 vertices with 2*delta > k; margin 0 keeps the
        # padding empty so the reduction tiles the base itself with 2 copies.
        g = circulant(10, (1, 2, 3))
        path = tmp_path / "base.edges"
        path.write_text(dump_graph(g))
        code, out, _ = run(
            capsys, "theory", "reduce", "--graph", str(path), "--C", "0",
        )
        assert code == 0
        report = json.loads(out)
        assert report["k"] == 10
        assert report["delta"] == 6
        assert report["C"] == 0
        assert report["w_size"] == 0
        assert report["aux_order"] == 10
        assert report["perfect_tiling_found"] is True
        assert (report["s"], report["t"], report["ell"]) == (0, 0, 2)
        assert report["ell_minus_s"] == 2


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


class TestExperiment:
    def config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "instances": [
                {"kind": "extremal", "n": 26, "delta": 13, "seeds": [0, 1]},
                {"kind": "random", "n": 7, "p_red": 0.5, "seeds": [5]},
            ],
            "modes": ["weak", "strong"],
            "budget": 200000,
        }))
        return path

    def test_csv_columns_and_rows(self, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        code, _, _ = run(
            capsys, "experiment", "--config", str(self.config(tmp_path)),
            "--out", str(out),
        )
        assert code == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 1 + 3 * 2  # 3 instances x 2 modes
        by_col = [dict(zip(CSV_COLUMNS, row)) for row in rows[1:]]
        for row in by_col:
            assert row["exact"] in ("0", "1")
            assert int(row["size"]) >= 0
            assert row["runtime_ms"].isdigit()
            # bound columns must match the bound table for the row's (n, delta)
            bounds = bound_table(int(row["n"]), int(row["delta"]))
            assert row["thm3_lower"] == str(rational_json(bounds.thm3_lower))
            assert row["remarkA_upper"] == str(rational_json(bounds.remarkA_upper))
            assert row["bft_weak"] == str(rational_json(bounds.bft_weak))
        assert {r["mode"] for r in by_col} == {"weak", "strong"}

    def test_pinned_rows(self, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        code, _, _ = run(
            capsys, "experiment", "--config", str(self.config(tmp_path)),
            "--out", str(out),
        )
        assert code == 0
        with out.open() as fh:
            rows = [row[:-1] for row in csv.reader(fh)]  # runtime_ms dropped
        assert rows[1:] == [
            ["26", "17", "0", "weak", "0", "1", "17/3", "17/3", "0"],
            ["26", "17", "0", "strong", "0", "1", "17/3", "17/3", "0"],
            ["26", "17", "1", "weak", "0", "1", "17/3", "17/3", "0"],
            ["26", "17", "1", "strong", "0", "1", "17/3", "17/3", "0"],
            ["7", "6", "5", "weak", "2", "1", "2", "2", "1"],
            ["7", "6", "5", "strong", "2", "1", "2", "2", "1"],
        ]

    def test_pinned_rows_with_gamma(self, tmp_path, capsys):
        # gamma pulls thm3_lower away from remarkA_upper, so a swapped bound
        # column shows
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "instances": [
                {"kind": "extremal", "n": 26, "delta": 13, "seeds": [1]},
                {"kind": "random", "n": 7, "seeds": [5]},
            ],
            "modes": ["strong"],
            "gamma": "1/26",
        }))
        out = tmp_path / "runs.csv"
        assert run(capsys, "experiment", "--config", str(config), "--out", str(out))[0] == 0
        with out.open() as fh:
            rows = [row[:-1] for row in csv.reader(fh)]
        assert rows[1:] == [
            ["26", "17", "1", "strong", "0", "1", "14/3", "17/3", "0"],
            ["7", "6", "5", "strong", "2", "1", "45/26", "2", "1"],
        ]

    def test_append_keeps_single_header(self, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        config = self.config(tmp_path)
        run(capsys, "experiment", "--config", str(config), "--out", str(out))
        run(capsys, "experiment", "--config", str(config), "--out", str(out))
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert sum(1 for row in rows if row == CSV_COLUMNS) == 1
        assert len(rows) == 1 + 2 * 6

    def test_bad_config_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"instances": []}))
        code, _, err = run(
            capsys, "experiment", "--config", str(config),
            "--out", str(tmp_path / "runs.csv"),
        )
        assert code == 1
        assert "instances" in err

    def test_seeds_required_per_instance(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"instances": [{"n": 26, "delta": 13}]}))
        code, _, err = run(
            capsys, "experiment", "--config", str(config),
            "--out", str(tmp_path / "runs.csv"),
        )
        assert code == 1
        assert "seeds" in err


# ---------------------------------------------------------------------------
# hostile input
# ---------------------------------------------------------------------------

K3_RED = "3 3\n0 1 r\n0 2 r\n1 2 r\n"
RANDOM_ENTRY = {"kind": "random", "n": 7, "seeds": [1]}
VERIFY = ("verify", "--instance", "{inst}", "--report", "{data}")
EXPERIMENT = ("experiment", "--config", "{data}", "--out", "{out}")
GENERATE = ("generate", "--seed", "0", "--out", "{out}")
DEEP_JSON = "[" * 200_000 + "]" * 200_000

# argv (with {inst}, {empty}, {data}, {out}, {huge}, {plain}, {k5} filled
# in), JSON written to {data} (a str is written as it is), and a fragment the
# error message must contain.  {inst} is an all-red triangle, {plain} the
# triangle as an uncolored graph, {k5} the uncolored K5, {empty} an instance
# with no vertices and {huge} one whose header asks for 10**15 vertices.
HOSTILE_INPUTS = [
    pytest.param(VERIFY, {"tiling": [["a", "b", "c", "r"]]}, "invalid tiling", id="verify-string-vertices"),
    pytest.param(VERIFY, {"tiling": [[0, 1, 2.5, "r"]]}, "invalid tiling", id="verify-float-vertex"),
    pytest.param(VERIFY, {"tiling": [[False, 1, 2, "r"]]}, "invalid tiling", id="verify-bool-vertex"),
    pytest.param(EXPERIMENT, [1, 2], "JSON object", id="config-top-level-list"),
    pytest.param(EXPERIMENT, {"instances": [5]}, "objects", id="config-entry-not-object"),
    pytest.param(EXPERIMENT, {"instances": [RANDOM_ENTRY], "budget": "x"}, "budget", id="config-budget-string"),
    pytest.param(EXPERIMENT, {"instances": [RANDOM_ENTRY], "budget": -5}, "budget", id="config-budget-negative"),
    pytest.param(EXPERIMENT, {"instances": [RANDOM_ENTRY], "budget": True}, "budget", id="config-budget-bool"),
    pytest.param(EXPERIMENT, {"instances": [RANDOM_ENTRY], "modes": 5}, "modes", id="config-modes-not-list"),
    pytest.param(EXPERIMENT, {"instances": [RANDOM_ENTRY], "gamma": [1]}, "gamma", id="config-gamma-list"),
    pytest.param(EXPERIMENT, {"instances": [{**RANDOM_ENTRY, "n": "x"}]}, "`n`", id="config-n-string"),
    pytest.param(EXPERIMENT, {"instances": [{**RANDOM_ENTRY, "seeds": [[1]]}]}, "seeds", id="config-seed-list"),
    pytest.param(EXPERIMENT, {"instances": [{**RANDOM_ENTRY, "p_red": "x"}]}, "p_red", id="config-p-red-string"),
    pytest.param(("solve", "--instance", "{inst}", "--budget", "-5"), None, "--budget", id="solve-budget-negative"),
    pytest.param(("solve", "--instance", "{inst}", "--heuristic", "--iters", "-5"), None, "--iters", id="solve-iters-negative"),
    pytest.param(("theory", "reduce", "--graph", "{inst}", "--budget", "-5"), None, "--budget", id="reduce-budget-negative"),
    pytest.param(("solve", "--instance", "{inst}", "--threads", "2"), None, "--threads", id="solve-threads-removed"),
    pytest.param((*EXPERIMENT, "--threads", "2"), {"instances": [RANDOM_ENTRY]}, "--threads", id="experiment-threads-removed"),
    pytest.param(("bounds", "--n", "10", "--delta", "6", "--gamma", "1/0"), None, "--gamma", id="bounds-gamma-zero-denominator"),
    pytest.param(("solve", "--instance", "{inst}", "--gamma", "1/0"), None, "--gamma", id="solve-gamma-zero-denominator"),
    pytest.param(("theory", "admissible-c", "--k", "10", "--delta", "6", "--c-f2", "1/0"), None, "--c-f2", id="admissible-c-c-f2-zero-denominator"),
    pytest.param(("theory", "reduce", "--graph", "{inst}", "--c-f2", "1/0"), None, "--c-f2", id="reduce-c-f2-zero-denominator"),
    pytest.param(("theory", "reduce", "--graph", "{inst}", "--C", "1/0"), None, "--C", id="reduce-C-zero-denominator"),
    pytest.param(EXPERIMENT, {"instances": [RANDOM_ENTRY], "gamma": "1/0"}, "gamma", id="config-gamma-zero-denominator"),
    pytest.param(("bounds", "--n", "10", "--delta", "6", "--gamma", "-1"), None, "gamma >= 0", id="bounds-gamma-negative"),
    pytest.param(("solve", "--instance", "{inst}", "--gamma", "-1"), None, "gamma >= 0", id="solve-gamma-negative"),
    pytest.param(("solve", "--instance", "{empty}", "--gamma", "-1"), None, "gamma >= 0", id="solve-gamma-negative-empty-instance"),
    pytest.param(EXPERIMENT, {"instances": [RANDOM_ENTRY], "gamma": -1}, "gamma >= 0", id="config-gamma-negative"),
    pytest.param(EXPERIMENT, {"instances": [{**RANDOM_ENTRY, "n": 0}]}, "`n` >= 1", id="config-n-zero"),
    pytest.param(EXPERIMENT, {"instances": [RANDOM_ENTRY], "part_method": "nope"}, "random instances take no part_method", id="config-part-method-random-only"),
    pytest.param(EXPERIMENT, {"instances": [{"n": 26, "delta": 13, "p_red": 0.5, "seeds": [1]}]}, "extremal instances take no p_red", id="config-p-red-extremal"),
    pytest.param(EXPERIMENT, {"instances": [{**RANDOM_ENTRY, "delta": 3}]}, "random instances take no delta", id="config-delta-random"),
    pytest.param(GENERATE + ("--random", "--n", "7", "--part-method", "nope", "--density", "0.3"), None, "random instances take no density or part_method", id="generate-random-unread-flags"),
    pytest.param(GENERATE + ("--extremal", "--n", "26", "--delta", "13", "--p-red", "0.5"), None, "extremal instances take no p_red", id="generate-extremal-p-red"),
    pytest.param(GENERATE + ("--five-part", "--m", "4", "--n", "20", "--part-method", "circulant_catalog"), None, "five-part instances take no n or part_method", id="generate-five-part-n-part-method"),
    pytest.param(("solve", "--instance", "{inst}", "--heuristic", "--budget", "5"), None, "solve --heuristic takes no --budget", id="solve-heuristic-budget"),
    pytest.param(("solve", "--instance", "{inst}", "--iters", "8"), None, "solve --exact takes no --iters", id="solve-exact-iters"),
    pytest.param(("solve", "--instance", "{inst}", "--exact", "--seed", "2"), None, "solve --exact takes no --seed", id="solve-exact-seed"),
    pytest.param(("solve", "--instance", "{inst}", "--budget", "x"), None, "--budget", id="solve-budget-string"),
    pytest.param(EXPERIMENT, {"instances": [{**RANDOM_ENTRY, "kind": "five-part"}]}, "unknown instance kind", id="config-kind-unknown"),
    pytest.param(EXPERIMENT, {"instances": [RANDOM_ENTRY], "modes": ["both"]}, "bad mode", id="config-mode-unknown"),
    pytest.param(("theory", "reduce", "--graph", "{inst}"), None, "expected an uncolored graph", id="reduce-colored-graph"),
    pytest.param(GENERATE + ("--five-part", "--m", "4", "--density", "0"), None, "density must lie in (0, 1]", id="generate-five-part-density-zero"),
    pytest.param(GENERATE + ("--five-part", "--m", "4", "--p-red", "2"), None, "p_red must lie in [0, 1]", id="generate-five-part-p-red-above-1"),
    pytest.param(("solve", "--instance", "{huge}"), None, "vertex count 1000000000000000 is too large", id="solve-huge-vertex-count"),
    pytest.param(("verify", "--instance", "{huge}", "--report", "{data}"), {"tiling": []}, "vertex count 1000000000000000 is too large", id="verify-huge-vertex-count"),
    pytest.param(("theory", "reduce", "--graph", "{huge}"), None, "vertex count 1000000000000000 is too large", id="reduce-huge-vertex-count"),
    # sizes Python cannot index, rejected before anything is allocated
    pytest.param(GENERATE + ("--extremal", "--n", str(2**70), "--delta", str(2**70 - 1)), None, "error: ", id="generate-extremal-oversized-n"),
    pytest.param(GENERATE + ("--five-part", "--m", str(2**70)), None, "error: ", id="generate-five-part-oversized-m"),
    pytest.param(GENERATE + ("--random", "--n", "-1"), None, "error: negative vertex count -1", id="generate-random-negative-n"),
    pytest.param(GENERATE + ("--random", "--n", str(2**70)), None, f"error: vertex count {2**70} is too large", id="generate-random-oversized-n"),
    # on the plain triangle |W| = 9/2 - 5 + C = 2**70 + 3 and 3 + |W| is a multiple of 5
    pytest.param(("theory", "reduce", "--graph", "{plain}", "--C", f"{2**71 + 7}/2"), None, "error: ", id="reduce-oversized-C"),
    # on K5 |W| = 15/2 - 10 + C = 10**16, a padding mask no host can allocate
    pytest.param(("theory", "reduce", "--graph", "{k5}", "--C", f"{2 * 10**16 + 5}/2"), None, "padded order 10000000000000005 is too large", id="reduce-huge-padding"),
    # on the plain triangle |W| = 9/2 - 5 + 1/2 = 0, so the padded order is 3
    pytest.param(("theory", "reduce", "--graph", "{plain}", "--C", "1/2"), None, "padded order 3 is not divisible by 5", id="reduce-padded-order-not-divisible"),
    # raw text: JSON nested deeper than json.loads can recurse (json.dumps cannot write it)
    pytest.param(VERIFY, DEEP_JSON, "nested too deeply", id="verify-deeply-nested-report"),
    pytest.param(EXPERIMENT, DEEP_JSON, "nested too deeply", id="config-deeply-nested"),
]


@pytest.mark.parametrize("argv, data, fragment", HOSTILE_INPUTS)
def test_hostile_input_exits_1(tmp_path, capsys, argv, data, fragment):
    paths = {
        "inst": tmp_path / "k3.edges", "empty": tmp_path / "empty.edges",
        "data": tmp_path / "data.json", "out": tmp_path / "runs.csv",
        "huge": tmp_path / "huge.edges", "plain": tmp_path / "k3.graph",
        "k5": tmp_path / "k5.graph",
    }
    paths["inst"].write_text(K3_RED)
    paths["plain"].write_text("3 3\n0 1\n0 2\n1 2\n")
    paths["k5"].write_text(dump_graph(complete_graph(5)))
    paths["empty"].write_text("0 0\n")
    # a vertex count whose masks cannot be allocated at all
    paths["huge"].write_text("1000000000000000 0\n")
    paths["data"].write_text(data if isinstance(data, str) else json.dumps(data))
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert fragment in err
    assert not paths["out"].exists()


EXTREMAL_ENTRY = {"n": 26, "delta": 13, "seeds": [1]}
# configs rejected by from_file itself or by the generators building their
# instances; the last one fails only at its second entry
REJECTED_CONFIGS = [
    pytest.param({"instances": [{**RANDOM_ENTRY, "n": 0}]}, id="n-zero"),
    pytest.param({"instances": [{**RANDOM_ENTRY, "p_red": 2}]}, id="p-red-above-1"),
    pytest.param({"instances": [{**RANDOM_ENTRY, "p_red": True}]}, id="p-red-bool"),
    pytest.param({"instances": [EXTREMAL_ENTRY], "part_method": "nope"}, id="part-method-unknown"),
    pytest.param({"instances": [RANDOM_ENTRY], "part_method": "nope"}, id="part-method-random-only"),
    pytest.param({"instances": [EXTREMAL_ENTRY, RANDOM_ENTRY], "part_method": "circulant_catalog"}, id="part-method-with-a-random-entry"),
    pytest.param({"instances": [{**EXTREMAL_ENTRY, "p_red": 0.5}]}, id="p-red-on-extremal"),
    pytest.param(
        {"instances": [EXTREMAL_ENTRY, {"n": 10, "delta": 2, "seeds": [1]}]},
        id="infeasible-delta-after-valid-entry",
    ),
]


@pytest.mark.parametrize("data", REJECTED_CONFIGS)
def test_rejected_config_writes_no_csv(tmp_path, capsys, data):
    # a config is checked whole, every instance built, before the CSV is
    # opened: a rejected one creates no file and leaves an existing one as is
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "runs.csv"
    rejected = ("experiment", "--config", str(config), "--out", str(out))
    assert run(capsys, *rejected)[0] == 1
    assert not out.exists()
    valid = tmp_path / "valid.json"
    valid.write_text(json.dumps({"instances": [RANDOM_ENTRY]}))
    assert run(capsys, "experiment", "--config", str(valid), "--out", str(out))[0] == 0
    before = out.read_bytes()
    assert run(capsys, *rejected)[0] == 1
    assert out.read_bytes() == before


def test_negative_gamma_rejected_before_the_search(tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "max_mono_tiling_exact", no_search)
    inst = tmp_path / "k3.edges"
    inst.write_text(K3_RED)
    code, _, err = run(capsys, "solve", "--instance", str(inst), "--gamma", "-1")
    assert code == 1
    assert "gamma >= 0" in err


def test_internal_assertion_exits_2(tmp_path, capsys, monkeypatch):
    def broken_search(*args, **kwargs):
        raise AssertionError("planted")

    monkeypatch.setattr(cli, "max_mono_tiling_exact", broken_search)
    inst = tmp_path / "k3.edges"
    inst.write_text(K3_RED)
    code, out, err = run(capsys, "solve", "--instance", str(inst))
    assert code == 2
    assert "internal assertion failed" in err
    assert out == ""


def test_zero_budget_stays_valid(tmp_path, capsys):
    inst = tmp_path / "k3.edges"
    inst.write_text(K3_RED)
    code, out, _ = run(capsys, "solve", "--instance", str(inst), "--budget", "0")
    assert code == 0
    assert json.loads(out)["exact"] is False


def test_deep_instance_solves_without_traceback(tmp_path, capsys, monkeypatch):
    # 1,100 disjoint red K4s: no root bound closes the search, which goes
    # more than 1,000 levels deep, past the interpreter's default recursion
    # limit (about 1 s on a shared 2-vCPU VM).
    depths = []

    class Deepest(solver.DepthFirst):
        def push(self, children):
            super().push(children)
            depths.append(len(self._frames))

    monkeypatch.setattr(solver, "DepthFirst", Deepest)
    inst = tmp_path / "cliques.edges"
    inst.write_text(dump_colored_graph(oracles.red_cliques(1100, 4)))
    report = tmp_path / "cliques.json"
    code, _, err = run(capsys, "solve", "--exact", "--budget", "2500",
                       "--instance", str(inst), "--out", str(report))
    assert code == 0, err
    assert json.loads(report.read_text())["nodes"] == 2501
    assert max(depths) > 1000
    code, out, _ = run(capsys, "verify", "--instance", str(inst),
                       "--report", str(report))
    assert (code, out.strip()) == (0, "valid")


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


class TestParserReuse:
    """run_cli parses every call with one parser kept for the process, so no
    call may see a value left over from an earlier one."""

    def test_budget_does_not_carry_over(self, tmp_path, capsys):
        # four disjoint red K4s: the root bound is 5, the optimum 4
        inst = tmp_path / "cliques.edges"
        inst.write_text(dump_colored_graph(oracles.red_cliques(4, 4)))
        code, out, _ = run(capsys, "solve", "--instance", str(inst), "--budget", "5")
        report = json.loads(out)
        assert (code, report["exact"], report["nodes"]) == (0, False, 6)
        code, out, _ = run(capsys, "solve", "--instance", str(inst))
        report = json.loads(out)
        assert (code, report["exact"], report["nodes"], report["size"]) == (0, True, 23, 4)

    def test_generate_kind_does_not_carry_over(self, tmp_path, capsys):
        calls = [
            (("--random", "--n", "9", "--p-red", "1"), ("random_complete", "1.0")),
            (("--extremal", "--n", "26", "--delta", "13"), ("extremal", None)),
            (("--n", "26", "--delta", "13"), ("extremal", None)),
            (("--random", "--n", "9"), ("random_complete", "0.5")),
        ]
        for i, (flags, (kind, p_red)) in enumerate(calls):
            out = tmp_path / f"{i}.edges"
            assert run(capsys, "generate", *flags, "--seed", "0", "--out", str(out))[0] == 0
            meta = oracles.parse_sidecar((tmp_path / f"{i}.edges.meta").read_text())
            assert (meta["kind"], meta.get("p_red")) == (kind, p_red)

    def test_usage_error_then_valid_call(self, capsys):
        code, out, err = run(capsys, "solve", "--budget", "-1")
        assert (code, out) == (1, "")
        assert err.startswith("monotile solve: ") and "usage: monotile solve" in err
        code, out, err = run(capsys, "bounds", "--n", "100", "--delta", "90")
        assert (code, err) == (0, "")
        assert json.loads(out) == bound_table(100, 90).as_dict()

    def test_run_cli_builds_one_parser(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            for argv in (("bounds", "--n", "10", "--delta", "6"), ("frobnicate",)) * 2:
                run(capsys, *argv)
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_import_builds_no_parser(self):
        script = [sys.executable, "-c",
                  "import monotile.cli as c; print(c._parser.cache_info().currsize)"]
        proc = run_script(script, env=checkout_env())
        assert (proc.returncode, proc.stdout.strip()) == (0, "0"), proc.stderr


# ---------------------------------------------------------------------------
# top-level behaviour
# ---------------------------------------------------------------------------


class TestTopLevel:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 1

    def test_every_parsed_option_is_read(self):
        # every destination a (sub)parser declares must be read as
        # args.<dest> somewhere in cli.py: no flag is parsed and ignored
        source = Path(cli.__file__).read_text()
        parsers = [build_parser()]
        unread = []
        while parsers:
            parser = parsers.pop()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
                if isinstance(action, argparse._HelpAction):
                    continue
                if not re.search(rf"\bargs\.{action.dest}\b", source):
                    unread.append(f"{parser.prog}: {action.dest}")
        assert unread == []

    def test_installed_script_runs_bounds(self):
        # Run the [project.scripts] target the way pip's generated wrapper
        # does, in a fresh process with the checkout's src/ on the path.
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["monotile"]
        module, attr = target.split(":")
        script = [
            sys.executable,
            "-c",
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'monotile'; sys.exit({attr}())",
        ]
        env = checkout_env()

        proc = run_script(script, *BOUNDS_REFERENCE_ARGV, env=env)
        assert_bounds_reference_point(proc)

        # main() must hand run_cli's code on as the process exit status.
        proc = run_script(script, "bounds", "--n", "10", "--delta", "10", env=env)
        assert proc.returncode == 1
        assert proc.stderr.strip()

    def test_python_m_runs_bounds(self):
        script = [sys.executable, "-m", "monotile"]
        proc = run_script(script, *BOUNDS_REFERENCE_ARGV, env=checkout_env())
        assert_bounds_reference_point(proc)

        proc = run_script(script, "bounds", "--n", "10", "--delta", "10",
                          env=checkout_env())
        assert proc.returncode == 1
        assert proc.stderr.strip()

    @pytest.mark.skipif(
        shutil.which("monotile") is None,
        reason="no monotile console script on PATH",
    )
    def test_console_script_on_path_runs_bounds(self):
        proc = run_script([shutil.which("monotile")], *BOUNDS_REFERENCE_ARGV)
        assert_bounds_reference_point(proc)
