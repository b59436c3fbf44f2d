"""Acceptance gate: one test per criterion, one printed verdict line each.

Bands and tolerances are frozen; tests state them verbatim and do not adapt to
the data.  Criteria whose bands are not attainable at the stated finite scales
(see the repo notes) are still asserted as stated and fail honestly.
"""

import math

import numpy as np
import pytest

from cayley_cutoff import entropic, walk
from cayley_cutoff.entropic import entropy, entropy_inverse, q1_moments, solve_times
from cayley_cutoff.experiments import (RUNNERS, ExperimentConfig, run_gap_scan,
                                       run_verify)
from cayley_cutoff.groups import (GeneratorMultiset, make_group, replicate_rng,
                                  sample_generators)
from cayley_cutoff.spectral import (eigenvalues, gap_summary, heat_kernel_row,
                                    l2_bound, tv_exact)

from conftest import dense_transition, uniformized_row

MODELS = ("undirected", "directed")


def _verdict(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- criterion 1: heat-kernel exactness vs dense uniformized oracle ----------

def test_criterion_1_heat_kernel_exactness():
    g = make_group([12])
    Z = GeneratorMultiset(np.array(((1,), (5,))))
    worst = 0.0
    for model in MODELS:
        spec = eigenvalues(g, Z, model)
        P = dense_transition(g, Z, model)
        for t in (0.1, 1.0, 10.0):
            row = heat_kernel_row(spec, t)
            worst = max(worst, float(np.abs(row.probs - uniformized_row(P, t)).max()))
    _verdict(1, worst < 1e-10, f"max entrywise error {worst:.3g} (tol 1e-10)")


# -- criterion 2: TV identities ----------------------------------------------

def test_criterion_2_tv_identities():
    rng_mods = replicate_rng(20260201, 0)
    worst_t0 = 0.0
    worst_slack = -math.inf
    for rep in range(20):
        moduli = [int(rng_mods.integers(2, 30)) for _ in range(int(rng_mods.integers(1, 3)))]
        g = make_group(moduli)
        k = int(rng_mods.integers(2, 7))
        Z = sample_generators(g, k, replicate_rng(20260202, rep))
        spec = eigenvalues(g, Z, "undirected")
        worst_t0 = max(worst_t0, abs(tv_exact(heat_kernel_row(spec, 0.0))
                                     - (1.0 - 1.0 / g.n)))
        for t in np.geomspace(0.05, 200, 25):
            tv = tv_exact(heat_kernel_row(spec, float(t)))
            worst_slack = max(worst_slack, tv - l2_bound(spec, float(t)))
    ok = worst_t0 == 0.0 and worst_slack <= 1e-10
    _verdict(2, ok, f"t=0 identity error {worst_t0:g} (exact), "
                    f"max tv-l2 slack {worst_slack:.3g} (tol 1e-10)")


# -- criterion 3: spectral gap bands ------------------------------------------

def test_criterion_3_spectral_gap_bands():
    ns = (512, 2048, 10007)
    ks = (3, 5, 8)
    base = 20260305
    min_ratio, max_ratio = math.inf, 0.0
    k8_below = k8_total = 0
    for ni, n in enumerate(ns):
        for ki, k in enumerate(ks):
            cfg = ExperimentConfig(command="gap-scan", moduli=(n,), k=k,
                                   replicates=50,
                                   base_seed=base + 100 * ni + 10 * ki)
            _, rows = run_gap_scan(cfg)
            for row in rows:
                if k == 8:
                    k8_total += 1
                    if row["connected"] and row["t_rel_over_scale"] <= 50:
                        k8_below += 1
                if row["connected"]:
                    min_ratio = min(min_ratio, row["t_rel_over_scale"])
                    max_ratio = max(max_ratio, row["t_rel_over_scale"])
    in_band = 0.15 <= min_ratio and max_ratio <= 50
    k8_frac = k8_below / k8_total
    ok = in_band and k8_frac >= 0.98
    _verdict(3, ok, f"connected ratio range [{min_ratio:.3f}, {max_ratio:.3f}] "
                    f"vs [0.15, 50]; k=8 fraction below 50: {k8_frac:.3f} (need 0.98)")


# -- criteria 4 and 5: cutoff profile and deterministic lower bound -----------

PROFILE_ALPHAS = (-1.5, 0.0, 1.5)


@pytest.fixture(scope="module")
def cutoff_profile_data():
    g = make_group([100003])
    data = {}
    for model in MODELS:
        sol = solve_times(g.n, 400, model, alphas=PROFILE_ALPHAS)
        rows = []
        for r in range(20):
            Z = sample_generators(g, 400, replicate_rng(20260401, r))
            spec = eigenvalues(g, Z, model)
            rows.append({a: tv_exact(heat_kernel_row(spec, sol.t_alpha[a]))
                         for a in PROFILE_ALPHAS})
        data[model] = rows
    return data


def test_criterion_4_cutoff_profile(cutoff_profile_data):
    ok = True
    parts = []
    for model in MODELS:
        rows = cutoff_profile_data[model]
        for alpha in PROFILE_ALPHAS:
            mean = float(np.mean([r[alpha] for r in rows]))
            target = walk.psi(alpha)
            ok &= abs(mean - target) <= 0.15
            parts.append(f"{model} a={alpha:g}: mean={mean:.3f} psi={target:.3f}")
        for r in rows:
            ok &= r[-1.5] >= r[0.0] >= r[1.5]
    _verdict(4, ok, "; ".join(parts) + " (band +/-0.15, monotone in alpha)")


def test_criterion_5_deterministic_lower_bound(cutoff_profile_data):
    worst = math.inf
    for model in MODELS:
        for r in cutoff_profile_data[model]:
            for alpha in PROFILE_ALPHAS:
                worst = min(worst, r[alpha] - (walk.psi(alpha) - 0.2))
    _verdict(5, worst >= 0, f"min slack over replicates {worst:.3f} "
                            "(every tv >= psi(alpha) - 0.2)")


# -- criterion 6: CLT probe ---------------------------------------------------

def test_criterion_6_clt_probe():
    n, k, samples = 10 ** 6, 10 ** 4, 10 ** 5
    ok = True
    parts = []
    for model in MODELS:
        central = walk.clt_probe(n, k, model, 0.0, samples, replicate_rng(20260601, 0))
        ok &= abs(central.estimate - 0.5) <= 0.02
        parts.append(f"{model} a=0: {central.estimate:.3f} vs 0.5 (band 0.02)")
        for alpha in (-1.0, 1.0):
            probe = walk.clt_probe(n, k, model, alpha, samples,
                                   replicate_rng(20260601, 1))
            ok &= abs(probe.estimate - probe.target) <= 0.03
            parts.append(f"{model} a={alpha:g}: {probe.estimate:.3f} "
                         f"vs {probe.target:.3f} (band 0.03)")
    _verdict(6, ok, "; ".join(parts))


# -- criterion 7: entropic solver ---------------------------------------------

def test_criterion_7_entropic_solver():
    ok = True
    parts = []
    worst_inv = 0.0
    for model in MODELS:
        for y in (0.1, 1.0, 5.0):
            worst_inv = max(worst_inv, abs(entropy(model, entropy_inverse(model, y)) - y))
    ok &= worst_inv < 1e-9
    parts.append(f"inverse identity err {worst_inv:.2g} (tol 1e-9)")

    n, k = 10 ** 8, 4
    t0 = solve_times(n, k, "undirected").t0
    pred = k * n ** (2.0 / k) / (2 * math.pi * math.e)
    gap_small = abs(t0 - pred) / pred
    ok &= gap_small <= 0.05
    parts.append(f"sparse-regime t0 gap {gap_small:.3f} (tol 0.05)")

    n, k = 10 ** 3, 10 ** 6
    kappa = k / math.log(n)
    pred = math.log(n) / math.log(kappa)
    worst_dense = 0.0
    for model in MODELS:
        t0 = solve_times(n, k, model).t0
        worst_dense = max(worst_dense, abs(t0 - pred) / pred)
    ok &= worst_dense <= 0.10
    parts.append(f"dense-regime t0 gap {worst_dense:.3f} (tol 0.10)")

    worst_var = 0.0
    for model in MODELS:
        _, v = q1_moments(model, 10 ** 3)
        worst_var = max(worst_var, abs(v - 0.5) / 0.5)
    ok &= worst_var <= 0.05
    parts.append(f"Var Q1 -> 1/2 gap {worst_var:.3f} (tol 0.05)")
    _verdict(7, ok, "; ".join(parts))


# -- criterion 8: lemma suite -------------------------------------------------

def test_criterion_8_lemma_suite():
    cfg = ExperimentConfig(command="verify", base_seed=1)
    text, status = run_verify(cfg)
    failures = [l for l in text.splitlines() if "  FAIL  " in l]
    _verdict(8, status == 0, f"verify exit status {status}; "
                             f"failing checks: {failures or 'none'}")


# -- criterion 9: reproducibility ---------------------------------------------

def test_criterion_9_reproducibility(tmp_path):
    def run(out, jobs, command="gap-scan", moduli=(2048,), k=5, replicates=6):
        cfg = ExperimentConfig(command=command, moduli=moduli, k=k,
                               replicates=replicates, base_seed=20260901,
                               out=str(out), jobs=jobs)
        RUNNERS[command](cfg)
        return out.read_bytes()

    serial_a = run(tmp_path / "a.csv", 1)
    serial_b = run(tmp_path / "b.csv", 1)
    parallel = run(tmp_path / "c.csv", 3)
    # a prime n >= LONG_AXIS: the four-step Bluestein runs threaded serially and
    # on one thread in each pool worker
    others = {"tv-curve": dict(moduli=(8, 27, 11), k=5, replicates=2),
              "cheeger": dict(moduli=(2, 2, 5), k=2, replicates=5),
              "cutoff-profile": dict(moduli=(262147,), k=40, replicates=2)}
    pooled = {command: run(tmp_path / f"{command}-1.csv", 1, command, **kw)
              == run(tmp_path / f"{command}-2.csv", 2, command, **kw)
              for command, kw in others.items()}
    ok = serial_a == serial_b == parallel and all(pooled.values())
    _verdict(9, ok, f"rerun identical: {serial_a == serial_b}; "
                    f"parallel == serial: {parallel == serial_a}; "
                    f"--jobs 2 == --jobs 1: {pooled}")
