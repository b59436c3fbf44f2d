"""Smoke tests of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/smoke_check.py

The file name does not match pytest's `test_*.py` pattern, so the repository's
own test run never collects it; pytest collects it when it is named explicitly.
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
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from cayley_cutoff import experiments, groups, spectral, walk  # noqa: E402
from spans import Tracer, instrumented  # noqa: E402

TINY_PROFILE = {"moduli": [1009], "k": 20, "model": "undirected",
                "alphas": [-1.5, 0.0, 1.5], "replicates": 3}
TINY_CURVE = {"moduli": [12, 35], "k": 6, "model": "directed", "t_grid": [0.5, 60.0, 6]}
TINY_MONTECARLO = {"verify_only": "cos_taylor", "n": 10007, "k": 20, "model": "undirected",
                   "samples": 4000, "probes": [["clt_probe", 0.0], ["typicality_probe", 1.5]]}


def _rewrite_csv_cell(path: Path, row: int, column: str, value: str) -> None:
    lines = path.read_text().splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    header = lines[body[0]].split(",")
    cells = lines[body[row + 1]].split(",")
    cells[header.index(column)] = value
    lines[body[row + 1]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_profile_gate_passes_and_catches_a_wrong_value(tmp_path):
    result = workload.profile_pass(5, tmp_path, TINY_PROFILE, None)
    assert result.failures == [] and result.attempted == 3 and result.wall_s > 0
    out = tmp_path / "profile.csv"
    rows, _ = gate.read_csv(out)
    _rewrite_csv_cell(out, 1, "tv_alpha_0", repr(float(rows[1]["tv_alpha_0"]) + 1e-6))
    failures = gate.check_profile(out, 5, TINY_PROFILE, None)
    assert len(failures) == 1 and failures[0].startswith("replicate 1:")


def test_profile_gate_catches_a_wrong_digest(tmp_path):
    workload.profile_pass(5, tmp_path, TINY_PROFILE, None)
    _rewrite_csv_cell(tmp_path / "profile.csv", 2, "instance_digest", "000000000000")
    assert len(gate.check_profile(tmp_path / "profile.csv", 5, TINY_PROFILE, None)) == 1


def test_curve_gate_passes_and_catches_a_rising_tv(tmp_path):
    result = workload.curve_pass(9, tmp_path, TINY_CURVE, None)
    assert result.failures == [] and result.attempted == 6
    out = tmp_path / "curve.csv"
    rows, _ = gate.read_csv(out)
    _rewrite_csv_cell(out, 4, "tv", rows[2]["tv"])
    failures = gate.check_curve(out, 9, TINY_CURVE, None)
    assert failures and all(f.startswith("row 4 ") for f in failures)


def test_montecarlo_gate_and_negative_control(tmp_path):
    probes = []
    for j, (name, alpha) in enumerate(TINY_MONTECARLO["probes"]):
        r = getattr(walk, name)(10007, 20, "undirected", alpha, 4000, groups.replicate_rng(3, j))
        probes.append({"probe": name, "alpha": alpha, "estimate": r.estimate,
                       "stderr": r.stderr, "t_alpha": r.details["t_alpha"]})
    reference = {"checks": ["cos_taylor"], "probes": probes}
    result = workload.montecarlo_pass(3, tmp_path, TINY_MONTECARLO, reference)
    assert result.failures == [] and result.attempted == 3
    assert workload.negative_control(3, tmp_path)
    far = dict(probes[0], estimate=probes[0]["estimate"] + 0.5)
    estimate = walk.clt_probe(10007, 20, "undirected", 0.0, 4000, groups.replicate_rng(3, 0))
    assert len(gate.check_probe(estimate, far, 4000)) == 1


def test_verify_gate_counts_missing_and_failing_checks():
    text = "# header\na  PASS  x\nb  FAIL  y\n2 checks, 1 failures\n"
    assert len(gate.check_verify(text, 1, ["a", "b", "c"])) == 2
    assert gate.check_verify("a  PASS  x\n1 checks, 0 failures\n", 0, ["a"]) == []
    assert len(gate.check_verify("a  PASS  x\n1 checks, 0 failures\n", 1, ["a"])) == 1


def test_tracer_self_time_parents_and_recursion():
    tracer = Tracer("t")

    def inner():
        return sum(range(2000))

    def outer(depth):
        wrapped_inner()
        return wrapped_outer(depth - 1) if depth else 0

    wrapped_inner = tracer.wrap("m.inner", inner)
    wrapped_outer = tracer.wrap("m.outer", outer)
    wrapped_outer(2)
    totals = tracer.totals()
    assert totals["m.outer"]["calls"] == 3 and totals["m.inner"]["calls"] == 3
    top = tracer.spans[0]
    assert top["name"] == "m.outer" and top["parent"] is None
    assert all(s["parent"] is not None for s in tracer.spans[1:])
    assert totals["m.outer"]["s"] == pytest.approx(top["end"] - top["start"])
    whole = totals["m.outer"]["self_s"] + totals["m.inner"]["self_s"]
    assert whole == pytest.approx(totals["m.outer"]["s"])


def test_instrumented_wraps_and_restores():
    original = spectral.eigenvalues
    runner = experiments.RUNNERS["cutoff-profile"]
    with instrumented(Tracer("t")):
        assert spectral.eigenvalues is not original
        assert experiments.RUNNERS["cutoff-profile"] is not runner
    assert spectral.eigenvalues is original
    assert experiments.RUNNERS["cutoff-profile"] is runner


def test_traced_pass_reports_every_per_layer_metric(tmp_path):
    tracer = Tracer("t", workload.OBSERVERS)
    untraced = workload.profile_pass(5, tmp_path, TINY_PROFILE, None)
    with instrumented(tracer):
        traced = workload.profile_pass(5, tmp_path, TINY_PROFILE, None)
    assert traced.failures == []
    checks = workload.load_reference("montecarlo", 0)["checks"]
    layers = workload.layer_metrics(tracer, checks, traced, untraced)
    layers.update({name: [0.0, "s"] for name in run.IMPORT_METRICS})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()}
    assert layers["spectral.eigenvalues.calls"][0] == 3
    assert layers["spectral.eigenvalues.terms"][0] == 3 * 1009 * 20
    assert layers["spectral.heat_kernel_row.points"][0] == 9 * 1009


def test_reference_commands_match_workloads():
    for name in ("profile", "curve"):
        reference = workload.load_reference(name, run.DEFAULT_SEEDS[name])
        assert reference["command"] == run.cli_args(name, reference["seed"], run.WORKLOADS[name])
    assert run.cli_args("profile", 1, run.PROFILE) == [
        "cutoff-profile", "--group", "100003", "--k", "400", "--model", "undirected",
        "--seed", "1", "--alpha=-1.5,0,1.5", "--replicates", "20"]
    probes = workload.load_reference("montecarlo", 0)["probes"]
    assert [[p["probe"], p["alpha"]] for p in probes] == run.MONTECARLO["probes"]


def test_parse_importtime_counts_outermost_imports_only():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy.core",
        "import time:        20 |         30 |   numpy",
        "import time:         5 |          5 |       numpy.linalg",
        "import time:         7 |         12 |     scipy.linalg",
        "import time:         3 |         15 |   scipy.stats",
        "import time:         1 |         46 | pkg",
    ])
    seconds = run.parse_importtime(text, ["numpy", "scipy.stats", "pkg"])
    assert seconds == {"numpy": 35e-6, "scipy.stats": 15e-6, "pkg": 46e-6}


def test_launcher_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "profile"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_repository_test_run_does_not_collect_the_benchmark():
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q"],
                          cwd=ROOT, env=run.workload_env(), capture_output=True, text=True,
                          timeout=120)
    collected = [line for line in proc.stdout.splitlines() if "::" in line]
    assert collected and not any(line.startswith(HERE.name) for line in collected)
