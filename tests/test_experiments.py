import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cayley_cutoff
from cayley_cutoff import cli, entropic, spectral
from cayley_cutoff.cli import load_config_file, main
from cayley_cutoff.experiments import (BudgetExceededError, ExperimentConfig,
                                       _budget_check, _instance, _parse_t_grid,
                                       _tv_at,
                                       default_t_grid,
                                       run_cheeger, run_cutoff_profile,
                                       run_entropic_report, run_gap_scan,
                                       run_spectrum, run_tv_curve, run_verify)


def _config(**kwargs):
    base = dict(command="tv-curve", moduli=(101,), k=4, model="undirected",
                base_seed=7, replicates=1)
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_config_digest_ignores_output_plumbing():
    a = _config(out=None, jobs=1)
    b = _config(out="/tmp/x.csv", jobs=8)
    c = _config(base_seed=8)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    with pytest.raises(ValueError):
        _config(replicates=0)
    with pytest.raises(ValueError):
        _config(fmt="xml")


def test_parse_t_grid():
    grid = _parse_t_grid("1:100:5")
    assert grid.size == 5 and grid[0] == 1.0 and abs(grid[-1] - 100.0) < 1e-12
    for bad in ("0:10:5", "10:1:5", "1:10:1"):
        with pytest.raises(ValueError):
            _parse_t_grid(bad)


def test_default_t_grid_brackets_window():
    sol = entropic.solve_times(101, 4, "undirected", alphas=(-3.0, 3.0))
    grid = default_t_grid(101, 4, "undirected")
    assert grid.size == 60
    assert grid[0] > 0 and grid[0] < sol.t0 < grid[-1]
    assert grid[-1] > sol.t_alpha[3.0]


def test_tv_curve_monotone_between_envelopes():
    text, rows = run_tv_curve(_config())
    tvs = [r["tv"] for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(tvs, tvs[1:]))
    for r in rows:
        assert r["tv"] <= r["l2_bound"] + 1e-10
        if r["gamma"] > 0:
            n = 101
            assert r["tv"] >= 0.5 * math.exp(-r["gamma"] * r["t"]) - 1e-9
            assert r["tv"] <= 0.5 * math.sqrt(n) * math.exp(-r["gamma"] * r["t"]) + 1e-9
    header = text.splitlines()
    assert header[0].startswith("# cayley-cutoff 0.1.0 config=")
    assert header[1] == "replicate,seed,instance_digest,t,tv,l2_bound,gamma"


@pytest.mark.parametrize("times", [[0.0, 0.4, 1.2, 3.0, 9.0],
                                   [0.4, 0.0, 1.2], [2.0], [0.0]])
def test_tv_at_pairs_nonzero_times(monkeypatch, times):
    _, spec, _, _ = _instance(_config(moduli=(9, 8), k=5, model="directed"), 0)
    singles = [spectral.tv_exact(spectral.heat_kernel_row(spec, t)) for t in times]
    calls = []
    real_dft = spectral._dft
    monkeypatch.setattr(spectral, "_dft", lambda *a, **kw: calls.append(1) or real_dft(*a, **kw))
    tvs = _tv_at(spec, times)
    # one transform per pair of nonzero times, none at t = 0
    assert len(calls) == math.ceil(sum(t != 0 for t in times) / 2)
    assert np.abs(np.array(tvs) - singles).max() < 1e-13
    assert [tv for tv, t in zip(tvs, times) if t == 0] == [1.0 - 1.0 / 72] * times.count(0.0)


def test_csv_values_round_trip():
    text, rows = run_tv_curve(_config(t_grid="0.5:50:8"))
    body = [l for l in text.splitlines() if not l.startswith("#")][1:]
    for line, row in zip(body, rows):
        fields = line.split(",")
        assert float(fields[3]) == row["t"]
        assert float(fields[4]) == row["tv"]


def test_gap_scan_flags_disconnected():
    _, rows = run_gap_scan(_config(command="gap-scan", moduli=(10,), k=1,
                                   replicates=10, base_seed=11))
    flagged = [r for r in rows if not r["connected"]]
    assert flagged  # even generators occur and are recorded, not dropped
    for r in flagged:
        assert r["t_rel"] == math.inf
    assert len(rows) == 10


def test_gap_scan_directed_subgroup_draws(tmp_path):
    # Some draws lie in a proper subgroup of Z_100006; the directed spectrum
    # must flag them exactly as the undirected one does, without dividing by 0.
    out = tmp_path / "gaps.json"
    status = main(["gap-scan", "--group", "100006", "--k", "3", "--model",
                   "directed", "--seed", "1", "--replicates", "40",
                   "--format", "json", "--out", str(out)])
    assert status == 0
    directed = [json.loads(l) for l in out.read_text().splitlines()[1:-1]]
    _, undirected = run_gap_scan(_config(command="gap-scan", moduli=(100006,),
                                         k=3, base_seed=1, replicates=40))
    assert [r["connected"] for r in directed] == [r["connected"] for r in undirected]
    assert sum(not r["connected"] for r in directed) == 5
    for r in directed:
        assert (r["gamma"] == 0.0) == (r["t_rel"] == math.inf) == (not r["connected"])


def test_cutoff_profile_decreasing_in_alpha():
    cfg = _config(command="cutoff-profile", moduli=(101,), k=6, replicates=4,
                  alphas=(-1.5, 0.0, 1.5), base_seed=13)
    text, rows = run_cutoff_profile(cfg)
    for r in rows:
        assert r["tv_alpha_-1.5"] >= r["tv_alpha_0"] >= r["tv_alpha_1.5"]
    text2, _ = run_cutoff_profile(cfg)
    assert text == text2
    with pytest.raises(ValueError):
        run_cutoff_profile(_config(command="cutoff-profile", moduli=(4, 5), k=1))


def test_budget_refusal_and_force():
    cfg = _config(command="cutoff-profile", moduli=(100003,), k=400,
                  replicates=10 ** 6)
    with pytest.raises(BudgetExceededError):
        run_cutoff_profile(cfg)
    # small jobs pass the estimator untouched
    run_gap_scan(_config(command="gap-scan", moduli=(64,), k=3, replicates=2))


def test_budget_check_prices_transforms_not_generators():
    # the scale target: one exact profile at n = 10^6 + 3 with k = 10^4
    cfg = _config(command="cutoff-profile", moduli=(10 ** 6 + 3,), k=10 ** 4,
                  alphas=(-1.5, 0.0, 1.5))
    _budget_check(cfg, 10 ** 6 + 3, 3)
    with pytest.raises(BudgetExceededError):
        _budget_check(_config(command="cutoff-profile", k=10 ** 4,
                              replicates=20), 10 ** 6 + 3, 3)


def test_spectrum_budget_prices_the_one_transform_it_computes(capsys):
    # 2e5 spectra at n = 1009 would cost 2e9 butterfly-equivalents; one costs 1e4
    argv = ["spectrum", "--group", "1009", "--k", "4", "--seed", "1"]
    main(argv + ["--replicates", "200000"])
    many = capsys.readouterr().out.split("\n", 1)
    main(argv)
    one = capsys.readouterr().out.split("\n", 1)
    assert many[0] != one[0] and many[1] == one[1]  # only the digest differs
    # one transform over the budget is still refused unless forced
    with pytest.raises(BudgetExceededError):
        run_spectrum(_config(command="spectrum", moduli=(2 ** 26,), k=3))


def test_entropic_report_fields_and_regimes():
    labels = set()
    for k in (2, 14, 196):
        text, records = run_entropic_report(
            _config(command="entropic", moduli=(10 ** 6 + 3,), k=k, fmt="json"))
        rec = records[0]
        labels.add(rec["asymptotic"]["regime"])
        assert abs(rec["omega"] - (rec["v"] * k) ** 0.25) < 1e-12
        lines = text.splitlines()
        assert "meta" in json.loads(lines[0])
    assert labels == {"k << log n", "k ~ lambda log n", "k >> log n"}


def test_entropic_report_small_k_gap():
    _, records = run_entropic_report(
        _config(command="entropic", moduli=(100003,), k=2, fmt="json"))
    assert records[0]["asymptotic"]["regime"] == "k << log n"
    assert records[0]["asymptotic"]["relative_gap"] <= 0.05


def test_window_sharpness_at_acceptance_scale():
    # The tv drop from 0.75 to 0.25 happens inside a few cutoff-window widths;
    # the window is g * t0 / sqrt(k) with the regime-matched coefficient g
    # (here k >> log n, so g = sqrt(kappa log kappa), not the sparse sqrt(2)).
    n, k = 100003, 400
    rep = entropic.asymptotic_times(n, k, "undirected")
    t0 = rep.solver_t0
    cfg = _config(moduli=(n,), k=k, t_grid=f"{0.2 * t0}:{3 * t0}:50",
                  base_seed=17)
    _, rows = run_tv_curve(cfg)
    ts = np.array([r["t"] for r in rows])
    tvs = np.array([r["tv"] for r in rows])
    t_hi = float(np.interp(-0.75, -tvs, ts))  # tv decreasing: negate for interp
    t_lo = float(np.interp(-0.25, -tvs, ts))
    assert 0 < t_lo - t_hi <= 8 * rep.predicted_window


def test_cheeger_runner_brackets():
    _, rows = run_cheeger(_config(command="cheeger", moduli=(12,), k=3,
                                  replicates=3, base_seed=19))
    for r in rows:
        if r["connected"]:
            assert r["cheeger_low"] - 1e-12 <= r["cheeger"] <= r["cheeger_high"] + 1e-12
        else:
            assert r["cheeger"] == 0.0


def test_instance_digest_is_pinned():
    # JSON of the generators' int lists: this value predates the array storage
    Z, _, _, head = _instance(_config(command="spectrum", moduli=(4, 9, 25), k=5,
                                      base_seed=2), 0)
    assert head["instance_digest"] == "d6f5616a5840"
    assert Z.generators.tolist() == [[1, 7, 21], [1, 1, 19], [3, 5, 16], [1, 3, 12],
                                     [2, 3, 1]]


def test_verify_runner_and_filter():
    text, status = run_verify(_config(command="verify", moduli=(), k=0,
                                      only="cos_taylor"))
    assert status == 0 and "cos_taylor" in text and "PASS" in text


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tv-curve", "--group", "12", "--k", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["tv-curve", "--group", "101"], "--k"),
    (["entropic", "--group", "101"], "--k"),
    (["tv-curve", "--group", "101", "--k", "4", "--t-grid", "1:2"], "--t-grid"),
    (["cutoff-profile", "--group", "101", "--k", "4", "--alpha=abc"], "--alpha"),
    (["gap-scan", "--group", "1", "--k", "3"], "--group"),
    (["gap-scan", "--group", "64", "--k", "3", "--jobs", "0"], "--jobs"),
    (["gap-scan", "--group", "64", "--k", "3", "--jobs", "-2"], "--jobs"),
    (["gap-scan", "--group", "64", "--k", "3", "--replicates", "0"], "--replicates"),
    (["verify", "--only", "nope"], "--only"),
    (["verify", "--only", "self_test"], "--only"),
    (["cheeger", "--group", "101", "--k", "3"], "--group"),
    (["cutoff-profile", "--group", "4,5", "--k", "1"], "--k"),
    (["entropic", "--group", "101", "--k", "3", "--samples", "-5"], "--samples"),
    (["entropic", "--group", "101", "--k", "3", "--alpha=inf"], "--alpha"),
    (["cutoff-profile", "--group", "101", "--k", "3", "--alpha=0,nan"], "--alpha"),
])
def test_cli_bad_input_exits_2_naming_the_flag(monkeypatch, capsys, argv, flag):
    # nothing may run before the error: any runner call would fail differently
    monkeypatch.setattr(cli, "RUNNERS", {})
    monkeypatch.setattr(cli, "run_verify", None)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err
    assert err.startswith(f"usage: cayley-cutoff {argv[0]} ")


def test_cli_budget_refusal_exits_2_naming_force(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--group", "1048576,1048576", "--k", "3", "--seed", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--force" in err
    assert err.startswith("usage: cayley-cutoff spectrum ")


def test_cli_t_grid_is_priced_before_it_is_built(monkeypatch, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("the t-grid was built before its budget check")

    monkeypatch.setattr(np, "geomspace", no_grid)
    with pytest.raises(SystemExit) as exc:
        main(["tv-curve", "--group", "101", "--k", "4", "--t-grid", "1:2:10000000000",
              "--seed", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--force" in err
    assert err.startswith("usage: cayley-cutoff tv-curve ")


def test_cli_tv_curve_writes_file(tmp_path):
    out = tmp_path / "curve.csv"
    status = main(["tv-curve", "--group", "101", "--k", "4", "--seed", "7",
                   "--t-grid", "0.5:50:8", "--out", str(out)])
    assert status == 0
    text = out.read_text()
    assert text.startswith("# cayley-cutoff 0.1.0 config=")
    assert "t,tv,l2_bound" in text.splitlines()[1]


def test_cli_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group=101\nk=3  # overridden by the flag\nseed=7\n"
                   "t_grid=0.5:50:8\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    main(["tv-curve", "--config", str(cfg), "--out", str(out1)])
    main(["tv-curve", "--group", "101", "--k", "3", "--seed", "7",
          "--t-grid", "0.5:50:8", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    # flag overrides the file value
    out3 = tmp_path / "c.csv"
    main(["tv-curve", "--config", str(cfg), "--k", "4", "--out", str(out3)])
    assert out3.read_bytes() != out1.read_bytes()


def test_cli_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n")
    with pytest.raises(ValueError):
        load_config_file(str(bad))


@pytest.mark.parametrize("line, force, error", [
    ("force=0", False, None),
    ("force=false", False, None),
    ("force=1", True, None),
    ("force=true", True, None),
    ("force=yes", None, "--force"),
    ("format=json", None, "'format'"),
    ("replicate=5", None, "'replicate'"),
    ("samples=1000", None, "'samples'"),
])
def test_cli_config_file_force_and_unknown_keys(tmp_path, capsys, line, force, error):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"group=101\nk=3\nseed=7\n{line}\n")
    args = cli.build_parser().parse_args(["spectrum", "--config", str(cfg)])
    if error is None:
        assert cli.make_config(args).force is force
        return
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert error in err
    if "'" in error:  # an unknown key lists the known ones
        assert "fmt" in err and "replicates" in err


def test_cli_unreachable_entropy_target_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["entropic", "--group", "101", "--k", "3", "--seed", "1", "--alpha=1e6"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--alpha" in err and "--k" in err


@pytest.mark.parametrize("argv", [
    ["entropic", "--group", "100003", "--k", "1"],
    ["tv-curve", "--group", "100003", "--k", "1"],
    ["entropic", "--group", "101", "--k", "3", "--alpha=40"],
])
def test_cli_entropy_target_beyond_cap_exits_2(capsys, argv):
    # log n / k above the cap's entropy bound is refused before any pmf is built;
    # the undirected pmf turns NaN from s = 2^30, beyond the cap
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--alpha" in err and "--k" in err


def test_cli_json_format(tmp_path):
    out = tmp_path / "gaps.json"
    main(["gap-scan", "--group", "64", "--k", "3", "--seed", "7",
          "--replicates", "3", "--format", "json", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert "meta" in json.loads(lines[0])
    records = [json.loads(l) for l in lines[1:]]
    assert sum("summary" in r for r in records) == 1
    assert sum("replicate" in r for r in records) == 3


def test_cli_verify_negative_control(capsys):
    status = main(["verify", "--seed", "1", "--only", "self_test",
                   "--self-test-fail"])
    assert status == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_single_check(capsys):
    status = main(["verify", "--seed", "1", "--only", "cos_taylor"])
    assert status == 0
    out = capsys.readouterr().out
    assert "cos_taylor" in out and "0 failures" in out


def test_cli_import_leaves_out_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(Path(cayley_cutoff.__file__).parents[1]))
    code = ("import sys, cayley_cutoff.cli; "
            "print('scipy.stats' in sys.modules, 'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False False"
