import hashlib
import itertools
import json
import math
import os
import platform
import shlex
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cayley_cutoff
from cayley_cutoff import cli, entropic, experiments, spectral
from cayley_cutoff.cli import load_config_file, main
from cayley_cutoff.experiments import (BudgetExceededError, ExperimentConfig,
                                       _budget_check, _instance, _t_grid_triple,
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
    grid = [row["t"] for row in run_tv_curve(_config(t_grid="1:100:5"))[1]]
    assert len(grid) == 5 and grid[0] == 1.0 and abs(grid[-1] - 100.0) < 1e-12
    for bad in ("0:10:5", "10:1:5", "1:10:1"):
        with pytest.raises(ValueError):
            _t_grid_triple(bad)


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
    tvs = spectral.tv_at(spec, times)
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
    _budget_check(cfg, 3)
    with pytest.raises(BudgetExceededError):
        _budget_check(replace(cfg, replicates=20), 3)


def test_budget_prices_the_transforms_that_run(monkeypatch):
    calls = []
    real_dft = spectral._dft
    monkeypatch.setattr(spectral, "_dft", lambda *a, **kw: calls.append(1) or real_dft(*a, **kw))
    runs = ((run_cutoff_profile, _config(command="cutoff-profile", replicates=2,
                                         alphas=(-1.5, 0.0, 1.5)), 3),
            (run_tv_curve, _config(replicates=2, t_grid="1:100:5"), 5))
    limit = experiments.BUDGET_LIMIT
    # on pocketfft, then with CHIRP_AXIS at 64 on the four-step route
    for chirp_axis, (run, cfg, rows) in itertools.product((spectral.CHIRP_AXIS, 64), runs):
        calls.clear()
        monkeypatch.setattr(spectral, "CHIRP_AXIS", chirp_axis)
        monkeypatch.setattr(experiments, "BUDGET_LIMIT", limit)
        run(cfg)
        # the spectrum, plus one transform per pair of heat-kernel rows
        assert len(calls) == cfg.replicates * (1 + math.ceil(rows / 2))
        # and the budget prices exactly those transforms, n log2 n each
        price = len(calls) * 101 * math.log2(101)
        monkeypatch.setattr(experiments, "BUDGET_LIMIT", price * (1 + 1e-9))
        _budget_check(cfg, rows)
        monkeypatch.setattr(experiments, "BUDGET_LIMIT", price * (1 - 1e-9))
        with pytest.raises(BudgetExceededError):
            _budget_check(cfg, rows)
    monkeypatch.undo()
    spectral._chirp_plan.cache_clear()
    # 30 row pairs and the spectrum at n = 10^6 + 3: about 6.2e8, within the budget
    _budget_check(_config(moduli=(10 ** 6 + 3,), k=14, model="directed",
                          t_grid="1:10:60"), 60)


def test_spectrum_budget_prices_the_one_transform_it_computes(capsys):
    # 2e5 spectra at n = 1009 would cost 2e9 butterfly-equivalents; one costs 1e4
    many = _config(command="spectrum", moduli=(1009,), k=4, base_seed=1, replicates=200000)
    assert run_spectrum(many)[1] == run_spectrum(replace(many, replicates=1))[1]
    # spectrum reads no --replicates, so the CLI refuses the flag
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--group", "1009", "--k", "4", "--seed", "1",
              "--replicates", "200000"])
    assert exc.value.code == 2
    assert "--replicates" in capsys.readouterr().err
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
    rep = entropic.asymptotic_times(entropic.solve_times(n, k, "undirected"))
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


@pytest.mark.parametrize("jobs, replicates, cpus, workers", [
    (5000, 2, 4, 2), (5000, 50, 4, 4), (3, 50, 4, 3),
    (5000, 1, 4, None), (8, 8, 1, None), (1, 8, 4, None),
])
def test_pool_has_at_most_one_worker_per_replicate_and_cpu(monkeypatch, jobs, replicates,
                                                          cpus, workers):
    started, chunks = [], []

    class RecordingPool:  # records its size and chunk size and starts no process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            chunks.append(chunksize)
            return map(fn, *iterables)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    config = _config(command="gap-scan", moduli=(64,), k=3, replicates=replicates, jobs=jobs)
    rows = run_gap_scan(config)[1]
    assert started == ([] if workers is None else [workers])
    assert chunks == ([] if workers is None else [-(-replicates // workers)])
    assert rows == run_gap_scan(replace(config, jobs=1))[1]


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs for the process, so a one-process run of a group in
    [SHORT_GROUP, LONG_AXIS) takes the replicate threads on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def recorded_threads(monkeypatch):
    """The thread counts `_map_replicates` asks `spectral._pool` for."""
    asked, pool = [], spectral._pool

    def recording(workers):
        asked.append(workers)
        return pool(workers)

    monkeypatch.setattr(spectral, "_pool", recording)
    return asked


THREADED_ARGV = [f"{cmd} --group {group} --k 8 --seed 4 --model {model}"
                 for cmd in ("cutoff-profile --replicates 3", "gap-scan --replicates 5",
                             "tv-curve --replicates 3")
                 for group in ("16411", "128,160") for model in entropic.MODELS]


@pytest.mark.parametrize("argv", THREADED_ARGV)
def test_replicate_threads_leave_stdout_unchanged(monkeypatch, capsys, two_cpus,
                                                  recorded_threads, argv):
    def stdout(*extra):
        assert main(argv.split() + list(extra)) == 0
        return capsys.readouterr().out

    threaded = stdout()
    assert recorded_threads == [2]
    assert stdout("--jobs", "2") == threaded
    monkeypatch.setattr(spectral, "_fft_workers", lambda: 1)
    assert stdout() == threaded
    assert recorded_threads == [2]


def test_replicate_threads_under_contention_match_serial(monkeypatch, recorded_threads):
    # four replicate threads on the host's cores, switching every 10 us, on
    # pocketfft and on the four-step (32771), each thread in its own buffer;
    # all four ask for the plan at once, and one builds it while three wait
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    configs = [_config(command="tv-curve", moduli=moduli, k=6, model="directed",
                       replicates=9, t_grid="1:40:7") for moduli in ((128, 160), (32771,))]
    spectral._chirp_plan.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = [run_tv_curve(config)[0] for config in configs]
    finally:
        sys.setswitchinterval(interval)
    assert recorded_threads == [4, 4]
    assert spectral._chirp_plan.cache_info().misses == 1
    monkeypatch.setattr(spectral, "_fft_workers", lambda: 1)
    assert [run_tv_curve(config)[0] for config in configs] == threaded


@pytest.mark.parametrize("moduli, replicates, jobs, threads", [
    ((2 ** 14,), 2, 1, [2]), ((128, 160), 3, 1, [2]), ((2 ** 18 - 1,), 2, 1, [2]),
    ((2 ** 14 - 3,), 2, 1, []), ((2 ** 18,), 2, 1, []), ((512, 512), 2, 1, []),
    ((16411,), 1, 1, []), ((16411,), 2, 2, []),
])
def test_replicate_threads_run_only_for_short_groups_in_one_process(
        monkeypatch, two_cpus, recorded_threads, moduli, replicates, jobs, threads):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor",
                        lambda max_workers: ThreadPoolExecutor(max_workers))  # no fork
    config = _config(command="gap-scan", moduli=moduli, k=3, replicates=replicates, jobs=jobs)
    rows = experiments._map_replicates(config, lambda config, r: r)
    assert rows == list(range(replicates))
    assert recorded_threads == threads


def test_replicate_threads_build_the_chirp_plan_once(monkeypatch, two_cpus, recorded_threads):
    # 32771 is prime and past CHIRP_AXIS, so both replicate threads ask for the
    # plan as their first spectra start; a build slowed by 50 ms makes the
    # second ask while the first builds, and it waits rather than builds
    four_step = spectral._four_step
    builds = []

    def slow_build(plan, v, kernel=None):
        if kernel is None:  # the plan's own kernel transform
            builds.append(threading.current_thread())
            time.sleep(0.05)
        return four_step(plan, v, kernel)

    monkeypatch.setattr(spectral, "_four_step", slow_build)
    spectral._chirp_plan.cache_clear()
    run_cutoff_profile(_config(command="cutoff-profile", moduli=(32771,), k=8, replicates=4))
    assert recorded_threads == [2]
    assert len(builds) == 1
    assert spectral._chirp_plan.cache_info().misses == 1


def test_replicate_thread_runs_its_passes_serially(two_cpus):
    def where(config, r):
        return threading.current_thread() is threading.main_thread(), spectral._fft_workers()

    config = _config(command="gap-scan", moduli=(16411,), k=3, replicates=4)
    assert spectral._fft_workers() == 2
    assert experiments._map_replicates(config, where) == [(False, 1)] * 4


def test_replicate_thread_raises_the_serial_runs_exception(monkeypatch, two_cpus,
                                                           recorded_threads):
    instance = experiments._instance

    def failing(config, r):  # every replicate from r = 2 on fails, each its own way
        if r >= 2:
            raise spectral.ImaginaryResidueError(f"replicate {r} failed")
        return instance(config, r)

    monkeypatch.setattr(experiments, "_instance", failing)
    config = _config(command="gap-scan", moduli=(16411,), k=8, replicates=6)
    with pytest.raises(spectral.ImaginaryResidueError) as threaded:
        run_gap_scan(config)
    assert recorded_threads == [2]
    monkeypatch.setattr(spectral, "_fft_workers", lambda: 1)
    with pytest.raises(spectral.ImaginaryResidueError) as serial:
        run_gap_scan(config)
    assert str(threaded.value) == str(serial.value) == "replicate 2 failed"


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
    # an abbreviated flag is not the flag it abbreviates
    (["gap-scan", "--gr", "64", "--k", "3", "--se", "7", "--rep", "2", "--form", "json"],
     "--gr 64 --se 7 --rep 2 --form json"),
    (["verify", "--seed", "1", "--only", "self_test", "--self-test"], "--self-test"),
    # an unknown flag before any command is named, not the missing command
    (["--he"], "--he"),
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
    # a subcommand's error prints its usage line; one before any command, the root's
    assert err.startswith(f"usage: cayley-cutoff {argv[0]} " if argv[0] in cli.COMMANDS
                          else "usage: cayley-cutoff [-h]")


def test_cli_without_a_command_exits_2_asking_for_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "the following arguments are required: command" in capsys.readouterr().err


#: the flags each subcommand reads, besides --config and verify's hidden --self-test-fail
READS = {
    "spectrum": "group k model seed out format force",
    "tv-curve": "group k model seed out t-grid replicates format jobs force",
    "cutoff-profile": "group k model seed out alpha replicates format jobs force",
    "gap-scan": "group k model seed out replicates format jobs force",
    "entropic": "group k model seed out alpha",
    "cheeger": "group k model seed out replicates format jobs force",
    "verify": "seed out only",
}
#: a valid value of each flag; None marks the one switch
FLAG_VALUES = {"group": "12", "k": "3", "model": "directed", "alpha": "0",
               "t-grid": "1:2:3", "replicates": "2", "seed": "1", "out": "x.csv",
               "format": "json", "only": "cos_taylor", "jobs": "2", "force": None}
UNREAD = [(sub, flag) for sub, flags in READS.items() for flag in FLAG_VALUES
          if flag not in flags.split()]


def _flag_argv(flag):
    value = FLAG_VALUES[flag]
    return ["--" + flag] + ([] if value is None else [value])


def test_each_subcommand_accepts_every_flag_it_reads():
    assert sum(len(flags.split()) for flags in READS.values()) == 54
    assert len(UNREAD) == 30
    for sub, flags in READS.items():
        argv = [sub] + [arg for flag in flags.split() for arg in _flag_argv(flag)]
        assert cli.make_config(cli.build_parser().parse_args(argv)).command == sub


@pytest.mark.parametrize("sub, flag", UNREAD)
def test_cli_unread_flag_or_config_key_exits_2_naming_it(monkeypatch, capsys, tmp_path,
                                                         sub, flag):
    monkeypatch.setattr(cli, "RUNNERS", {})
    monkeypatch.setattr(cli, "run_verify", None)
    base = ["--seed", "1"] + (["--group", "12", "--k", "3"] if sub != "verify" else [])
    with pytest.raises(SystemExit) as exc:
        main([sub] + base + _flag_argv(flag))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: cayley-cutoff {sub} ")
    assert "--" + flag in err
    # the same setting as a --config key is refused, listing the keys sub reads
    key = "fmt" if flag == "format" else flag.replace("-", "_")
    keys = ["fmt" if f == "format" else f.replace("-", "_") for f in READS[sub].split()]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={FLAG_VALUES[flag] or 1}\n")
    with pytest.raises(SystemExit) as exc:
        main([sub, "--config", str(cfg)] + base)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: cayley-cutoff {sub} ")
    assert f"--config: unknown key {key!r}; known: {', '.join(keys)}" in err


@pytest.mark.parametrize("argv, digest", [
    ("tv-curve --group 101 --k 4 --seed 7", "46656f986939"),
    ("cutoff-profile --group 100003 --k 400 --seed 1 --alpha=-1.5,0,1.5 --replicates 20",
     "273d5806c499"),
    ("cutoff-profile --group 100003 --k 400 --seed 1 --alpha=-1.5,0,1.5 --replicates 20 "
     "--model undirected", "273d5806c499"),
    ("gap-scan --group 64 --k 3 --seed 7 --replicates 50 --format json", "fa208c92cbdd"),
    ("entropic --group 1000003 --k 14 --seed 1", "29283b1c7931"),
    ("verify --seed 1", "22935746a34f"),
    ("verify --seed 20260601", "2f37e800d97a"),
    ("tv-curve --group 1000003 --k 14 --model directed --seed 7 --t-grid 0.9:45:24",
     "a87dbf40e0d3"),
])
def test_cli_config_digests_are_pinned(argv, digest):
    config = cli.make_config(cli.build_parser().parse_args(argv.split()))
    assert config.digest() == digest
    if config.command == "entropic":  # the report is JSON, and its header says so
        assert replace(config, fmt="json").digest() == "96d5293f7913"


#: sha256 of the whole stdout of each command, covering every subcommand, both
#: models, a multi-axis group, passes cut into several leaves below LONG_AXIS
#: and the four-step transform (from CHIRP_AXIS, here at 100003 and up).  The
#: values hold for numpy 2.4.6 and glibc 2.36 on an x86-64 host where numpy
#: dispatches its AVX-512 (X86_V4) kernels.  numpy picks its float64 `exp` and
#: `log` family's SIMD kernels at run time, and they differ in the last bits:
#: with NPY_DISABLE_CPU_FEATURES playing an AVX2 host (X86_V3), 12 of these 27
#: commands print other bytes, and at x86-64-v2 14 do, TV moving by at most
#: 6.7e-16.  Every t0, t_alpha and target_psi is the same at all three levels,
#: since the step laws take log and exp from libm; TV, l2_bound and tv-curve's
#: geometric t-grid are what move.  A library upgrade that moves last bits
#: gets them re-recorded, with a note in CHANGES.md.
PINNED_STDOUT = {
    "tv-curve --group 101 --k 4 --seed 7":
        "f416be8a9eeec0d4fad69d63bb289ab838574896e209fe5f44edf6b9946315f8",
    "tv-curve --group 4,9,25 --k 5 --model directed --seed 3":
        "07289fad0c0dee0aefaff79fc3aa7b29e375b23cb42fb7e9a804706632222a42",
    "gap-scan --group 64 --k 3 --seed 7 --replicates 50 --format json":
        "9662f0d9e70612f68788b014799c71fa7820bda41dbe4de3d17b5e3629e2fa01",
    "spectrum --group 4,9,25 --k 5 --seed 3":
        "f6042165c46bb4686612f6c0990bb40c6ec1ccf73e2d517bc4b3d551fd38c731",
    "cheeger --group 12 --k 3 --seed 2 --replicates 3":
        "97d689e3cc65354eb0908a4428eb467c6d3e50c359e4d6fe0088806cc248ca66",
    "entropic --group 1000003 --k 14 --seed 1":
        "6d007e591011b59650344836ba9f74aace9f7f537a585b361490a5a9071292c6",
    "entropic --group 1000000 --k 2 --seed 1":
        "47bde5ec352104afbe9dbf3d930969b5f8d4263434c68ca8d8c1fd3f82fb2975",
    "entropic --group 1000 --k 1000000 --seed 1":
        "925c20ed9060912d751aca3c04b4b084f3b418fa8131f0dd6885b5a5ee2d3493",
    "cutoff-profile --group 2,2,2,2,2,2,2,2,2,2,2,2 --k 30 --seed 3 --replicates 2":
        "ae1f6820e12b0b91c79cd50f0f519524e82fd45bdadc976df99b9a967826f5f1",
    "cutoff-profile --group 262147 --k 14 --seed 5 --replicates 2 --model directed":
        "d8d9161d274101ee4ed951eb78218356286d030406f36a6703283004fcab890f",
    "verify --seed 1 --only cos_taylor":
        "cd167925de65f03bbd84204cdba5314df73b186c7c0a0bcbe70f4608fdfcea8b",
    # t_{-40} and t_{-30} clamp to 0, so two zero times share one row pair
    "cutoff-profile --group 101 --k 4 --seed 1 --alpha=-40,-30,0,1":
        "8232a2e4ab1c10dcdea850b66ea263d387ff1cbc0fc3da6894cec414b94bd535",
    "cutoff-profile --group 101 --k 4 --seed 1 --alpha=-40,0,1 --model directed":
        "f4cab0459862f0df17e53b912e98f3b83ba4bde1f3b106f85be532fee6f9c969",
    "gap-scan --group 1009 --k 20 --seed 1 --replicates 300 --jobs 2":
        "ba58446ce2dbb7eda7532013af20c9a389a0519ccadc31db8ca1142342e27cc0",
    # groups of SHORT_GROUP to LONG_AXIS elements: replicates run on threads,
    # each pass of more than ROW_BLOCK elements leaf by leaf; below CHIRP_AXIS
    # on pocketfft, from it on the four-step, each thread in its own buffer
    "cutoff-profile --group 16411 --k 14 --seed 5 --replicates 4 --model directed":
        "4c04d551058fd4c1819b772670c4b13d1ccac9fecea26a30419b574f42b601af",
    "gap-scan --group 128,160 --k 12 --seed 4 --replicates 6":
        "21cd5a10d3ebecfc168c8b1f332b7fe1a1211853d7904c267039b68bb765ee56",
    "cutoff-profile --group 131101 --k 14 --model directed --seed 2 --replicates 2":
        "818adafbb9e61b5c60b38afd6df7950c8634d266727ae5bf1ecf34c07a2d8fa1",
    "cutoff-profile --group 100003 --k 40 --seed 3 --replicates 4":
        "ed864b9b7dce148f8fc03ff2c8f248aa02541cec1b8f8c318daee781d77bf4db",
    "cutoff-profile --group 100003 --k 40 --seed 3 --replicates 4 --jobs 2":
        "ed864b9b7dce148f8fc03ff2c8f248aa02541cec1b8f8c318daee781d77bf4db",
    # one replicate from ROW_BLOCK to LONG_AXIS elements: the four-step, with
    # every longer pass in leaves on the main thread's pool; at 131101 the
    # weights pass splits its 65551 slab planes, and 100003 has a real slab
    "tv-curve --group 131101 --k 14 --model directed --seed 2 --t-grid 0.9:40:6":
        "93cf2bf20ece39dc47efd8d4776a823bc06dbbcb883ae1f76a338ea8f4480619",
    "tv-curve --group 100003 --k 40 --seed 3 --t-grid 0.5:80:8":
        "3f01085ec20ab5b9dd482b05a55689a769558835fbffca45ebb7f049056351c6",
    # n >= LONG_AXIS: the four-step Bluestein, its passes in leaves on the main
    # thread's pool, then serially in each --jobs worker
    "tv-curve --group 262147 --k 14 --model directed --seed 7 --t-grid 0.9:40:6":
        "b141750d9e8bf790d4e309be7cb8a35e72a20f0f25723f3b9cb4ea21dbc19954",
    "tv-curve --group 262147 --k 14 --model directed --seed 7 --t-grid 0.9:40:6"
    " --replicates 2 --jobs 2":
        "2ce2f2a0de092c4ee7e31e65ffd964fb147d08949eac8e69b39cf483f522cd43",
    # unsorted alpha with a clamped t = 0, and the cutoff times through a process pool
    "cutoff-profile --group 1009 --k 20 --seed 2 --alpha=1.5,-1,0,-40,0.5 --replicates 3":
        "0934e57436bd955d8e6c9b8f1b76a04616e4c3e8045bb6cbe31af82f6e0dfc89",
    "cutoff-profile --group 36 --k 5 --seed 2 --alpha=1,-1 --replicates 3 --jobs 2":
        "45affacda1992b7c4cb7761cf0057415ede96b1a41933fece48a5e245428ee12",
    # CSV with t_rel = inf cells
    "gap-scan --group 64 --k 3 --seed 7 --replicates 50":
        "daa05a2ef7f666dd5f96f4beba6f418645df9b291e569f2a3320d5ad571eb4c3",
    "verify --seed 1":
        "f2b5646dedde2d622ede61a1543887e2182d5831fb7aa0fc226f47cf78f28587",
}


def _exp_dispatch() -> str:
    """The SIMD target numpy's float64 `exp` dispatches to on this host."""
    from numpy.lib.introspect import opt_func_info
    kernels = opt_func_info(func_name="^exp$", signature="float64")["exp"]
    return next(iter(kernels.values()))["current"]


def test_cli_stdout_is_pinned(capsys):
    got = {}
    for argv in PINNED_STDOUT:
        assert main(argv.split()) == 0
        got[argv] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == PINNED_STDOUT, (
        f"numpy's float64 exp ran at {_exp_dispatch()}; the pins hold at X86_V4 (AVX-512)")


#: numpy dispatch levels below AVX-512, each with the features that
#: NPY_DISABLE_CPU_FEATURES turns off to play it on an AVX-512 host.
PLAYED_LEVELS = {"X86_V3": ("X86_V4", "AVX512_ICL", "AVX512_SPR"),
                 "X86_V2": ("X86_V4", "AVX512_ICL", "AVX512_SPR", "X86_V3")}
#: Pinned commands whose numbers come from the step laws, the solver and
#: integer arithmetic alone, never from numpy's SIMD log and exp kernels.
LEVEL_FREE = ("verify --seed 1", "entropic --group 1000003 --k 14 --seed 1",
              "entropic --group 1000000 --k 2 --seed 1",
              "entropic --group 1000 --k 1000000 --seed 1")


@pytest.mark.parametrize("level", PLAYED_LEVELS)
def test_level_free_commands_print_their_pins_at_every_level(level):
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("numpy's X86_V* dispatch levels exist on x86-64 only")
    from numpy._core._multiarray_umath import __cpu_features__ as have
    if not have.get(level):
        pytest.skip(f"this host cannot run numpy's {level} kernels")
    disabled = [feature for feature in PLAYED_LEVELS[level] if have.get(feature)]
    # the child reports which disabled features are still on (none), then the
    # status and stdout digest of each command
    code = ("import contextlib, hashlib, io, sys\n"
            "from numpy._core._multiarray_umath import __cpu_features__ as on\n"
            "from cayley_cutoff.cli import main\n"
            f"print([f for f in {disabled!r} if on[f]])\n"
            "for argv in sys.argv[1:]:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out): status = main(argv.split())\n"
            "    print(status, hashlib.sha256(out.getvalue().encode()).hexdigest())")
    env = dict(os.environ, PYTHONPATH=str(Path(cayley_cutoff.__file__).parents[1]),
               NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    out = subprocess.run([sys.executable, "-c", code, *LEVEL_FREE], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines() == ["[]", *[f"0 {PINNED_STDOUT[argv]}" for argv in LEVEL_FREE]]


def test_readme_cli_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    examples = [shlex.split(line)[1:] for line in lines if line.startswith("cayley-cutoff ")]
    assert len(examples) >= 5
    for argv in examples:
        cli.make_config(cli.build_parser().parse_args(argv))


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


@pytest.mark.parametrize("argv", ["spectrum --group 5 --k 1000000000000 --seed 0",
                                  "cutoff-profile --group 5 --k 100000000 --seed 0"])
def test_cli_generator_draw_is_priced_before_sampling(monkeypatch, capsys, argv):
    def no_draw(*args, **kwargs):
        raise AssertionError("generators were drawn before their budget check")

    monkeypatch.setattr(experiments, "sample_generators", no_draw)
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--k" in err and "--force" in err
    assert err.startswith(f"usage: cayley-cutoff {argv.split()[0]} ")


def test_generator_price_is_replicates_k_d_and_force_overrides(monkeypatch):
    config = _config(command="gap-scan", moduli=(4, 9, 25), k=40, replicates=3)
    monkeypatch.setattr(experiments, "GENERATOR_LIMIT", 3 * 40 * 3)
    rows = run_gap_scan(config)[1]
    monkeypatch.setattr(experiments, "GENERATOR_LIMIT", 3 * 40 * 3 - 1)
    with pytest.raises(BudgetExceededError, match="--k"):
        run_gap_scan(config)
    assert run_gap_scan(replace(config, force=True))[1] == rows


def test_cli_forced_draw_past_memory_exits_2_naming_k(monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(experiments, "sample_generators", no_memory)
    with pytest.raises(SystemExit) as exc:
        main("spectrum --group 5 --k 1000000000000 --seed 0 --force".split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--k" in err and "memory" in err
    assert err.startswith("usage: cayley-cutoff spectrum ")
    # a MemoryError past the draw exits 2 too
    monkeypatch.undo()
    monkeypatch.setattr(spectral, "eigenvalues", no_memory)
    with pytest.raises(SystemExit) as exc:
        main("spectrum --group 5 --k 3 --seed 0".split())
    assert exc.value.code == 2


def test_cli_forced_run_past_memory_at_the_kept_buffer_exits_2(monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(spectral._ChirpPlan, "buffer", no_memory)
    with pytest.raises(SystemExit) as exc:
        main("cutoff-profile --group 100003 --k 40 --seed 0 --alpha=0".split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cayley-cutoff cutoff-profile ")
    assert "memory in spectral." in err
    assert all(flag in err for flag in ("--k", "--group", "--replicates", "--jobs"))


@pytest.mark.parametrize("argv, flag", [
    # past the generator cap, and 2.6e10 comparisons in the subset scan
    ("cheeger --group 16 --k 1000000000000 --seed 0", "--k"),
    ("cheeger --group 24 --k 64 --seed 0", "--force")])
def test_cli_cheeger_is_priced_before_sampling(monkeypatch, capsys, argv, flag):
    def no_draw(*args, **kwargs):
        raise AssertionError("generators were drawn before their budget check")

    monkeypatch.setattr(experiments, "sample_generators", no_draw)
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and err.startswith("usage: cayley-cutoff cheeger ")


def test_cheeger_price_is_its_subset_scan_and_force_overrides(monkeypatch):
    config = _config(command="cheeger", moduli=(12,), k=3, replicates=3)
    rows = run_cheeger(config)[1]
    # one transform of 12 points, and 3 generators x 2^12 subsets x 12 vertices
    price = 3 * (12 * math.log2(12) + 3 * 2 ** 12 * 12)
    monkeypatch.setattr(experiments, "BUDGET_LIMIT", price * (1 + 1e-9))
    assert run_cheeger(config)[1] == rows
    monkeypatch.setattr(experiments, "BUDGET_LIMIT", price * (1 - 1e-9))
    with pytest.raises(BudgetExceededError, match="--force"):
        run_cheeger(config)
    assert run_cheeger(replace(config, force=True))[1] == rows
    monkeypatch.undo()
    # 8 x 3 x 2^20 x 20 = 5.0e8 is within the budget
    monkeypatch.setattr(experiments, "_cheeger_worker", lambda config, r: {"replicate": r})
    run_cheeger(_config(command="cheeger", moduli=(20,), k=3, replicates=8))


def test_cli_tv_curve_writes_file(tmp_path):
    out = tmp_path / "curve.csv"
    status = main(["tv-curve", "--group", "101", "--k", "4", "--seed", "7",
                   "--t-grid", "0.5:50:8", "--out", str(out)])
    assert status == 0
    text = out.read_text()
    assert text.startswith("# cayley-cutoff 0.1.0 config=")
    assert "t,tv,l2_bound" in text.splitlines()[1]


def test_cli_verify_out_writes_only_the_file(tmp_path, capsys):
    out = tmp_path / "verify.txt"
    assert main(["verify", "--seed", "1", "--only", "cos_taylor", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PINNED_STDOUT["verify --seed 1 --only cos_taylor"]


def test_cli_tv_curve_long_after_mixing_exits_0(capsys):
    # the residue bound decays with the gap, so rows far past mixing pass the guard
    argv = "tv-curve --group 101 --k 4 --seed 1 --t-grid 1e5:1e9:5".split()
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 5 and all(float(row.split(",")[4]) < 1e-12 for row in rows)


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
        load_config_file(str(bad), tuple(cli.KEYS))


@pytest.mark.parametrize("line, force, error", [
    ("force=0", False, None),
    ("force=false", False, None),
    ("force=1", True, None),
    ("force=true", True, None),
    ("force=yes", None, "--force"),
    ("format=json", None, "'format'"),
    ("replicate=5", None, "'replicate'"),
    ("samples=1000", None, "'samples'"),
    ("model=bogus", None, "--model"),
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
    if "'" in error:  # an unknown key lists the keys spectrum reads
        assert err.rstrip().endswith("known: group, k, model, seed, out, fmt, force")


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


#: Commands that never solve for a time; the last one runs on the four-step route.
SPECTRAL_ONLY = ("spectrum --group 101 --k 4 --seed 1",
                 "gap-scan --group 101 --k 4 --seed 1",
                 "cheeger --group 20 --k 3 --seed 1",
                 "tv-curve --group 101 --k 4 --seed 1 --t-grid 0.5:20:5",
                 "tv-curve --group 32771 --k 4 --seed 1 --t-grid 1:2:2")
#: Commands that solve for a time or build step laws: brentq is entropic's own
#: port, and the step laws and Psi are numpy and `math` alone.
SOLVING = ("cutoff-profile --group 101 --k 4 --seed 1",
           "entropic --group 101 --k 4 --seed 1",
           "verify --seed 1 --only unimodality")


def test_cli_import_leaves_out_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(Path(cayley_cutoff.__file__).parents[1]))
    # the package root alone loads no submodule and no scipy module
    code = ("import sys, cayley_cutoff; "
            "root = [m for m in sys.modules if m.startswith(('cayley_cutoff.', 'scipy'))]; "
            "import cayley_cutoff.cli; "
            "loaded = lambda: ('scipy.stats' in sys.modules, 'scipy.optimize' in sys.modules); "
            "cli = loaded(); "
            "scipy = lambda: [m for m in sys.modules if m.startswith('scipy')]; "
            "print('#scipy cli', scipy()); "
            f"status = [cayley_cutoff.cli.main(c.split()) for c in {SPECTRAL_ONLY!r}]; "
            "print('#scipy spectral', status, scipy()); "
            f"[print('#scipy', c, cayley_cutoff.cli.main(c.split()), scipy()) "
            f"for c in {SOLVING!r}]; "
            "print(root, cli, loaded())")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines()[-1] == "[] (False, False) (False, False)"
    checks = [line for line in out.splitlines() if line.startswith("#scipy")]
    assert checks == ["#scipy cli []", f"#scipy spectral {[0] * len(SPECTRAL_ONLY)} []",
                      *[f"#scipy {c} 0 []" for c in SOLVING]]
