import math
from itertools import product

import numpy as np
import pytest

from cayley_cutoff import lemmas
from cayley_cutoff.groups import make_group, replicate_rng
from cayley_cutoff.lemmas import (cos_taylor_check, dirichlet_rate_check,
                                  divisibility_check, eigenvalue_tail_probe,
                                  exit_interval_check, gcd_expectation_probe,
                                  lclt_scan, level_set_count_check,
                                  modified_l2_probe, run_all,
                                  set_probability_check, tail_ratio_check,
                                  unimodality_check, vz_uniform_check,
                                  _survival_series)
from conftest import (dense_modified_l2_probe, dense_set_probability_check,
                      vz_uniform_oracle)


def test_vz_uniform_examples():
    rep = vz_uniform_check([6], (2, 4), 2)
    assert rep.passed
    assert rep.details["support_size"] == 3  # {0, 2, 4}
    assert rep.details["gcds"] == [2]

    for V in [(1,), (2,), (1, 3), (4, 2)]:
        rep = vz_uniform_check([5], V, len(V))
        assert rep.passed and rep.details["support_size"] == 5

    for m in range(2, 13):
        rep = vz_uniform_check([m], (1,), 1)
        assert rep.passed and rep.details["support_size"] == m


def test_vz_uniform_support_size_formula():
    for m, V in [(12, (2, 4)), (12, (3,)), (8, (2, 6)), (9, (3, 3))]:
        rep = vz_uniform_check([m], V, len(V))
        g = math.gcd(math.gcd(*(abs(v) for v in V)) if len(V) > 1 else abs(V[0]), m)
        assert rep.details["support_size"] == m // g


def test_vz_uniform_rejects_degenerate_v():
    with pytest.raises(ValueError):
        vz_uniform_check([6], (6,), 1)
    with pytest.raises(ValueError):
        vz_uniform_check([10], (1, 2), 1)


def _assert_census_matches_oracle(moduli, V):
    support_ok, uniform_ok, support_size, gcds = lemmas._vz_census(make_group(moduli), V)
    for r, row in enumerate(V):
        want = vz_uniform_oracle(moduli, row, len(row))
        assert bool(support_ok[r] and uniform_ok[r]) == want.passed, (moduli, row)
        assert support_size[r] == want.details["support_size"], (moduli, row)
        assert gcds[r].tolist() == want.details["gcds"], (moduli, row)
        assert vz_uniform_check(moduli, row, len(row)) == want


def test_vz_census_matches_oracle_on_every_sweep_case():
    cases = 0
    for m in range(2, 13):
        values = [v for v in (-3, -2, -1, 1, 2, 3) if v % m != 0]
        for k in (1, 2, 3):
            V = np.array(list(product(values, repeat=k)))
            _assert_census_matches_oracle([m], V)
            cases += len(V)
    assert cases == 2490


@pytest.mark.parametrize("moduli,bound", [([4, 6], 7), ([2, 3, 5], 13)])
def test_vz_census_matches_oracle_on_multi_modulus_groups(moduli, bound):
    values = [v for v in range(-bound, bound + 1) if all(v % m for m in moduli)]
    _assert_census_matches_oracle(moduli, np.array(list(product(values, repeat=2))))


def test_vz_census_blocks_stay_under_the_cap(monkeypatch):
    # 36 rows of 24^2 sums: the cap lowered to 1000 forces one row per block
    monkeypatch.setattr(lemmas, "VZ_EXHAUSTIVE_CAP", 1000)
    V = np.array(list(product((1, 2, 3, 5, 7, 11), repeat=2)))
    full = lemmas._vz_counts(make_group([4, 6]), V)
    monkeypatch.undo()
    assert np.array_equal(full, lemmas._vz_counts(make_group([4, 6]), V))
    assert (full.sum(axis=1) == 24 ** 2).all()


def test_vz_uniform_sweep_report_is_unchanged():
    assert repr(lemmas._vz_uniform_sweep()) == (
        "CheckReport(name='vz_uniform', passed=True, worst_case='2490 exact cases "
        "uniform', max_violation=0.0, details={'cases': 2490})")


def test_vz_uniform_sweep_negative_control(monkeypatch):
    # corrupt one count in each of three cases; the sweep must report the
    # first of them in (m, k, product) order as the per-case check does.  The
    # census sees V mod m, and no other case of these blocks has the same residues.
    census = lemmas._vz_counts

    def corrupted(group, V):
        counts = census(group, V)
        for m, row, bump in ((6, (-2,), 0), (6, (1,), 0), (9, (3,), 1)):
            if group.moduli == (m,) and V.shape[1] == len(row):
                counts[(V == np.array(row) % m).all(axis=1), bump] += 1
        return counts

    monkeypatch.setattr(lemmas, "_vz_counts", corrupted)
    rep = lemmas._vz_uniform_sweep()
    oracle = vz_uniform_oracle([6], (-2,), 1)
    assert oracle.passed and oracle.details == {"support_size": 3, "gcds": [2]}
    assert rep == lemmas._report("vz_uniform", False, "nonuniform counts", 1.0,
                                 **oracle.details)
    # the m = 9 case alone: a count off the support is a support mismatch
    assert lemmas.vz_uniform_check([9], (3,), 1).worst_case == "support mismatch"


def test_divisibility_examples():
    # uniform mixture fact underlying the lemma
    for y in range(1, 10 ** 4 + 1):
        assert (y // 2) / y <= 0.5
    rep = divisibility_check("undirected", 3.0, 10, 2)
    assert rep.passed and rep.details["probability"] <= 0.5
    for s, r in ((0.5, 5), (3.0, 10), (20.0, 25)):
        rep = divisibility_check("undirected", s, r, 7)
        assert rep.passed and rep.details["probability"] <= 1.0 / 7 + 1e-12
    with pytest.raises(ValueError):
        divisibility_check("undirected", 1.0, 1, 1)


def test_unimodality():
    assert unimodality_check(0.0, 60).passed
    assert unimodality_check(2.5, 60).passed
    assert unimodality_check(400.0, 200).passed


def test_cos_taylor():
    rep = cos_taylor_check(10 ** 6)
    assert rep.passed
    # chain at theta = 1/2
    sq = (math.pi / 2) ** 2
    chain = (2 * sq, 2.0, 2 * math.exp(-7 * math.pi ** 2 / 72) * sq, 2 * sq / 3)
    assert abs(chain[0] - 4.9348) < 1e-4
    assert abs(chain[3] - 1.6449) < 1e-4
    assert chain[0] >= chain[1] >= chain[2] >= chain[3]
    with pytest.raises(ValueError):
        cos_taylor_check(10)


@pytest.mark.parametrize("grid_points", [1000, 1001, 3 * 2 ** 16 + 5])
def test_cos_taylor_matches_stacked_argmax(grid_points):
    # blocks of the grid, one inequality at a time, pick the index argmax over
    # the stack would, and the same maximum
    theta = np.linspace(-0.5, 0.5, grid_points)
    sq = (np.pi * theta) ** 2
    mid = 1.0 - np.cos(2.0 * np.pi * theta)
    lower = 2.0 * np.exp(-7.0 * np.pi ** 2 * theta ** 2 / 18.0) * sq
    stacked = np.stack([mid - 2.0 * sq, lower - mid, (2.0 / 3.0) * sq - lower]) - 1e-12
    i = int(np.unravel_index(np.argmax(stacked), stacked.shape)[1])
    rep = cos_taylor_check(grid_points)
    assert rep.worst_case == f"theta={theta[i]:.6f}"
    assert rep.max_violation == max(float(stacked.max()), 0.0)


def test_exit_interval_exponential_case():
    # ell = 1: exit time is Exponential(1)
    for s in (0.1, 1.0, 5.0):
        assert abs(_survival_series(1, s) - math.exp(-s)) < 1e-12
    assert exit_interval_check(1, (0.1, 1.0, 5.0)).passed


def test_exit_interval_floor_and_quasi_stationary():
    rep = exit_interval_check(5, (0.1, 1.0, 10.0))
    assert rep.passed
    assert _survival_series(5, 10.0) >= math.exp(-10.0 * (1 - math.cos(math.pi / 10)))
    assert rep.details["quasi_stationary_residual"] <= 1e-12
    with pytest.raises(ValueError):
        exit_interval_check(0, (1.0,))


def test_exit_interval_survival_monotone():
    surv = [_survival_series(6, s) for s in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(surv, surv[1:]))
    by_ell = [_survival_series(ell, 3.0) for ell in (2, 4, 8)]
    assert all(a < b for a, b in zip(by_ell, by_ell[1:]))


def test_dirichlet_rate():
    rep = dirichlet_rate_check(1)
    assert rep.passed and abs(rep.details["lambda_A"] - 1.0) < 1e-12
    rep = dirichlet_rate_check(8)
    assert rep.passed
    assert abs(rep.details["lambda_A"] - (1 - math.cos(math.pi / 16))) < 1e-10
    # longer horizon tightens the rate estimate
    lam = rep.details["lambda_A"]
    rep_long = dirichlet_rate_check(8, t_max=10 ** 3 / lam)
    assert rep_long.details["relative_gap"] < 1e-3
    with pytest.raises(ValueError):
        dirichlet_rate_check(8, t_max=1.0)


def test_tail_ratio_bands():
    rep = tail_ratio_check("poisson", (100.0,), (10, 30))
    assert rep.passed and rep.details["checked"] > 0
    assert tail_ratio_check("srw", (25.0, 100.0), (5, 10, 25)).passed
    with pytest.raises(ValueError):
        tail_ratio_check("poisson", (100.0,), (1,))  # r < sqrt(s) everywhere
    with pytest.raises(ValueError):
        tail_ratio_check("bogus", (100.0,), (10,))


def test_tail_ratio_single_term_regime():
    # r >> s: the tail is dominated by its first term
    from scipy import stats
    s, r = 2.0, 40
    x = int(s + r)
    ratio = stats.poisson.sf(x - 1, s) / stats.poisson.pmf(x, s)
    assert abs(ratio - 1.0) < 0.1


def test_lclt_scan():
    assert lclt_scan("directed", (10 ** 2, 10 ** 4)).passed
    assert lclt_scan("undirected", (10 ** 2, 10 ** 4)).passed
    with pytest.raises(ValueError):
        lclt_scan("directed", (5.0,))


def _lclt_max_error(model, s):
    from cayley_cutoff import entropic
    dist = entropic.step_distribution(model, s)
    centered = dist.support - dist.mean
    bulk = np.abs(centered) <= s ** (7.0 / 12.0)
    p = dist.pmf[bulk]
    c = centered[bulk]
    return float(np.abs(np.log(p) + 0.5 * math.log(2 * math.pi * s)
                        + c ** 2 / (2 * s)).max())


def test_lclt_error_decays_with_s():
    for model in ("directed", "undirected"):
        assert _lclt_max_error(model, 10 ** 4) < _lclt_max_error(model, 10 ** 2)
    assert _lclt_max_error("directed", 10 ** 4) <= 0.2


def test_level_set_census_cyclic_prime():
    rep = level_set_count_check(make_group([101]))
    assert rep.passed
    assert rep.details["census"] == {1: 1, 101: 100}


def test_level_set_census_totients():
    rep = level_set_count_check(make_group([12]))
    census = rep.details["census"]
    # |A(s)| = phi(s) for each divisor s of 12
    phi = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}
    assert census == phi
    assert sum(census.values()) == 12
    assert level_set_count_check(make_group([6, 4])).passed


def test_gcd_expectation_probe():
    rng = replicate_rng(40, 0)
    # d=0: E[g^0] = 1 exactly
    rep = gcd_expectation_probe(0, 2, 10, 5000, rng)
    assert rep.passed and rep.details["estimate"] == 1.0
    # |I| = d+2: bound 1 + 3*2^{-2} = 1.75
    rep = gcd_expectation_probe(1, 3, 10, 40000, rng)
    assert rep.passed and rep.details["estimate"] <= 1.75
    # harmonic case |I| = d+1: 2 ln(2r) enforced as well
    rep = gcd_expectation_probe(1, 2, 10, 40000, rng)
    assert rep.passed
    assert "harmonic" in rep.worst_case
    assert rep.details["estimate"] <= 2 * math.log(20)
    with pytest.raises(ValueError):
        gcd_expectation_probe(1, 0, 10, 100, rng)


def test_modified_l2_negative_control_tiny_k():
    # k=1 cannot satisfy the global typicality ceiling: the rejection collapse
    # is surfaced, not silently averaged over.
    with pytest.raises(RuntimeError):
        modified_l2_probe(make_group([13]), 1, "undirected", 0.0, 1, 5000,
                          replicate_rng(41, 0))
    # k=3 accepts a sliver of samples and reports a large collision excess.
    # 40 replicates make the excess stand clear of the 3 sigma slack for every
    # seed in 0..39; at 2 replicates it does for only about a quarter of them.
    rep = modified_l2_probe(make_group([13]), 3, "undirected", 0.0, 40, 20000,
                            replicate_rng(5, 0))
    assert not rep.passed and rep.details["d_estimate"] > 0.5
    assert rep.details["rejection_efficiency"] < 0.05


def test_modified_l2_acceptance_scale():
    rep = modified_l2_probe(make_group([10007]), 200, "undirected", 0.0, 3,
                            200000, replicate_rng(20260825, 0))
    assert rep.passed
    assert rep.details["d_estimate"] - 3 * rep.details["stderr"] <= 0.5
    assert rep.details["empty_contribution"] <= rep.details["empty_budget"]
    with pytest.raises(ValueError):
        modified_l2_probe(make_group([100003]), 10, "undirected", 0.0, 1, 100,
                          replicate_rng(41, 0))


def test_set_probability_check():
    rng = replicate_rng(20260826, 0)
    rep = set_probability_check(10 ** 4, 20, "undirected", 0.0, range(19),
                                40000, rng)
    assert rep.passed
    # full index set: weakest bound, sanity only
    rep = set_probability_check(10 ** 4, 10, "undirected", 0.0, range(10),
                                5000, replicate_rng(42, 0))
    assert rep.passed
    with pytest.raises(ValueError):
        set_probability_check(10 ** 4, 5, "undirected", 0.0, range(6), 1000,
                              replicate_rng(42, 0))


@pytest.mark.parametrize("moduli,k,model,alpha,replicates,samples,seed", [
    ([101], 10, "directed", 1.5, 2, 21000, 4),
    ([8, 27, 11], 12, "directed", 1.5, 2, 21000, 10),
    ([8, 27, 11], 16, "undirected", 1.5, 2, 21000, 10),
    ([10007], 200, "undirected", 0.0, 1, 30000, 20260825),
    ([13], 3, "undirected", 0.0, 40, 20000, 5),
])
def test_modified_l2_probe_matches_dense_oracle(moduli, k, model, alpha, replicates,
                                                samples, seed):
    # the sparse V = W_1 - W_2 gives the same counts as dense rows from the same stream
    group = make_group(moduli)
    sparse = modified_l2_probe(group, k, model, alpha, replicates, samples,
                               replicate_rng(seed, 0))
    dense = dense_modified_l2_probe(group, k, model, alpha, replicates, samples,
                                    replicate_rng(seed, 0))
    assert sparse.details == dense.details
    assert sparse.worst_case == dense.worst_case
    assert sparse == dense


@pytest.mark.parametrize("n,k,model,alpha,I,samples,seed", [
    (10 ** 4, 20, "undirected", 0.0, range(19), 40000, 20260826),
    (10 ** 4, 10, "undirected", 0.0, range(10), 5000, 42),
    (10 ** 4, 12, "directed", 1.5, range(5), 40000, 3),
])
def test_set_probability_check_matches_dense_oracle(n, k, model, alpha, I, samples, seed):
    sparse = set_probability_check(n, k, model, alpha, I, samples, replicate_rng(seed, 0))
    dense = dense_set_probability_check(n, k, model, alpha, I, samples,
                                        replicate_rng(seed, 0))
    assert sparse.details == dense.details
    assert sparse.worst_case == dense.worst_case
    assert sparse == dense
    if model == "directed":
        # the default cases read 0; this one exercises a nonzero support match
        assert sparse.details["estimate"] > 0


def test_eigenvalue_tail_probe():
    rng = replicate_rng(20260827, 0)
    rep = eigenvalue_tail_probe(make_group([101]), 12, 101, 20000, rng)
    assert rep.passed
    assert abs(rep.details["bound"] - 2.0 ** -12 / 101) < 1e-12
    rep = eigenvalue_tail_probe(make_group([36]), 9, 6, 20000, rng)
    assert rep.passed
    with pytest.raises(ValueError):
        eigenvalue_tail_probe(make_group([101]), 12, 7, 100, rng)


def test_run_all_default_suite_passes():
    reports = run_all()
    assert len(reports) == len(lemmas.DEFAULT_CHECKS)
    assert [r.name for r in reports] == list(lemmas.DEFAULT_CHECKS)
    failures = [r.name for r in reports if not r.passed]
    assert failures == []


def test_run_all_only_filter():
    reports = run_all(only="cos_taylor")
    assert len(reports) == 1 and reports[0].name == "cos_taylor"
    with pytest.raises(KeyError):
        run_all(only="nonexistent")
