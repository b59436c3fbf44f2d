import math
from dataclasses import replace

import numpy as np
import pytest

from cayley_cutoff import entropic
from cayley_cutoff.groups import (GeneratorMultiset, index_of, make_group,
                                  replicate_rng, sample_generators)
from cayley_cutoff.spectral import eigenvalues, heat_kernel_row
from cayley_cutoff.walk import (_walk_cells, clt_probe, psi, typicality_params,
                                typicality_probe)
from conftest import (PmfUnderflowError, q_value, sample_walks, simulate_S,
                      typical_mask)


def test_psi_values():
    assert psi(0.0) == 0.5
    assert abs(psi(1.0) - 0.158655) < 1e-5
    assert psi(-2.0) > psi(2.0)


def test_sample_w_zero_time():
    w = sample_walks("undirected", 0.0, 8, 1, replicate_rng(20, 0))[0]
    assert np.array_equal(w, np.zeros(8, dtype=np.int64))
    with pytest.raises(ValueError):
        sample_walks("undirected", -1.0, 8, 1, replicate_rng(20, 0))
    with pytest.raises(ValueError):
        sample_walks("bogus", 1.0, 8, 1, replicate_rng(20, 0))


def test_sample_w_directed_mean():
    t, k, reps = 30.0, 10, 10 ** 5
    rng = replicate_rng(21, 0)
    draws = np.concatenate([sample_walks("directed", t, k, 1, rng)[0]
                            for _ in range(reps // k)])
    s = t / k
    sigma = math.sqrt(s / draws.size)
    assert abs(draws.mean() - s) <= 5 * sigma


def test_sample_w_undirected_variance():
    t, k = 40.0, 8
    rng = replicate_rng(22, 0)
    draws = np.concatenate([sample_walks("undirected", t, k, 1, rng)[0]
                            for _ in range(10 ** 5 // k)])
    s = t / k
    # Var of the sample variance of a centered SRW value ~ (E X^4 - s^2)/N
    m4 = s + 3 * s * s  # E X^4 for the Poissonized SRW
    sigma = math.sqrt((m4 - s * s) / draws.size)
    assert abs(draws.var() - s) <= 5 * sigma


# (model, t, k): per-coordinate time s = t/k of 0.007 and 0.13 draw jumps
# (t <= k); t = 20 > k = 8 draws each coordinate directly.
SAMPLER_CASES = [(model, t, k) for model in ("directed", "undirected")
                 for t, k in ((1.4, 200), (6.5, 50), (20.0, 8))]


@pytest.mark.parametrize("model,t,k", SAMPLER_CASES)
def test_sample_walks_marginals_match_pmf(model, t, k):
    samples = 10 ** 6 // k
    w = sample_walks(model, t, k, samples, replicate_rng(33, k))
    assert w.shape == (samples, k) and w.dtype == np.int64
    dist = entropic.step_distribution(model, t / k)
    size = w.size
    values, counts = np.unique(w, return_counts=True)
    observed = dict(zip(values.tolist(), counts.tolist()))
    expected = dist.pmf * size
    resolved = expected >= 25
    # every value with 25+ expected hits within 5 binomial sigma; the rest pooled
    for x, e in zip(dist.support[resolved].tolist(), expected[resolved]):
        assert abs(observed.get(x, 0) - e) <= 5 * math.sqrt(e)
    pooled = size - sum(observed.get(x, 0) for x in dist.support[resolved].tolist())
    pooled_expected = float(expected[~resolved].sum())
    assert pooled <= pooled_expected + 5 * math.sqrt(pooled_expected) + 5


@pytest.mark.parametrize("model", ["directed", "undirected"])
def test_sample_walks_one_row_keeps_per_coordinate_stream(model):
    # for t > k a single row is the per-coordinate Poisson/binomial draw
    t, k = 30.0, 12
    rng = replicate_rng(34, 0)
    jumps = rng.poisson(t / k, size=k)
    expected = jumps if model == "directed" else 2 * rng.binomial(jumps, 0.5) - jumps
    assert np.array_equal(sample_walks(model, t, k, 1, replicate_rng(34, 0))[0], expected)


@pytest.mark.parametrize("model,t,k", [(model, t, k) for model in ("directed", "undirected")
                                       for t, k in ((0.0, 8), (1.4, 200), (6.5, 50),
                                                    (20.0, 8))])
def test_walk_cells_scatter_to_sample_walks(model, t, k):
    # the sparse core draws the same stream as the dense sampler: t = 0, t <= k
    # (the jumps, repeated cells summed) and t > k (each coordinate)
    samples = 3000
    cells, values = _walk_cells(model, t, k, samples, replicate_rng(36, k))
    assert cells.dtype == values.dtype == np.int64
    assert np.all(np.diff(cells) > 0) and np.all(values != 0)
    w = np.zeros(samples * k, dtype=np.int64)
    w[cells] = values
    expected = sample_walks(model, t, k, samples, replicate_rng(36, k))
    assert np.array_equal(w.reshape(samples, k), expected)


@pytest.mark.parametrize("model", ["directed", "undirected"])
def test_walk_cells_merge_matches_dense_add_at(model):
    # for t <= k: the jumps redrawn in the sampler's order, summed with np.add.at
    t, k, samples = 6.5, 50, 3000
    rng = replicate_rng(37, 0)
    per_walk = rng.poisson(t, size=samples)
    cells = (np.repeat(np.arange(samples, dtype=np.int64) * k, per_walk)
             + rng.integers(0, k, size=int(per_walk.sum())))
    steps = (np.ones(cells.size, dtype=np.int64) if model == "directed"
             else 2 * rng.integers(0, 2, size=cells.size) - 1)
    expected = np.zeros(samples * k, dtype=np.int64)
    np.add.at(expected, cells, steps)
    drawn = sample_walks(model, t, k, samples, replicate_rng(37, 0))
    assert np.array_equal(drawn.reshape(-1), expected)


def _dense_q(w, dist):
    """Q of each row from every coordinate, with the pmf floored outside the window."""
    inside = (w >= dist.lo) & (w <= dist.hi)
    probs = np.where(inside, dist.pmf[np.clip(w - dist.lo, 0, dist.pmf.size - 1)],
                     entropic.PMF_FLOOR)
    return -np.log(np.maximum(probs, entropic.PMF_FLOOR)).sum(axis=1)


def _dense_typical_mask(w, dist, r_alpha, q_threshold):
    """Every coordinate read: the local window on all of w, and Q from _dense_q."""
    local = (np.abs(w - dist.mean) <= r_alpha).all(axis=1)
    return local & (_dense_q(w, dist) >= q_threshold)


@pytest.mark.parametrize("model,t,k", [("undirected", 1.4, 200), ("undirected", 20.0, 8),
                                       ("directed", 6.5, 50), ("directed", 30.0, 10)])
def test_typical_mask_matches_dense_predicate(model, t, k):
    rng = replicate_rng(35, k)
    dist = entropic.step_distribution(model, t / k)
    w = sample_walks(model, t, k, 4000, rng)
    # values outside the pmf window, on both sides, in a few rows
    rows = rng.integers(0, w.shape[0], size=40)
    w[rows[:20], rng.integers(0, k, size=20)] = dist.hi + 7
    w[rows[20:], rng.integers(0, k, size=20)] = dist.lo - 3
    q = _dense_q(w, dist)
    # Q takes few distinct values; the thresholds sit halfway between two of
    # them, as log n + omega does, so rounding of the sum order cannot matter
    levels = np.unique(np.round(q, 9))
    above = np.searchsorted(levels, np.quantile(q, [0.3, 0.7]), side="right")
    thresholds = [-math.inf, *((levels[above - 1] + levels[above]) / 2)]
    # s = 3 > r for the directed t = 30, k = 10 case: zeros fail the local test
    for r_alpha in (0, 1, 2, 5):
        for threshold in thresholds:
            sparse = typical_mask(w, dist, r_alpha, threshold)
            dense = _dense_typical_mask(w, dist, r_alpha, threshold)
            assert np.array_equal(sparse, dense)


def test_q_value_additivity_and_scaling():
    t, k = 6.0, 6
    w = [0, 1, -1, 2, 0, 1]
    total = q_value("undirected", t, k, w)
    # same per-coordinate time: split into blocks of equal s = t/k
    left = q_value("undirected", 3.0, 3, w[:3])
    right = q_value("undirected", 3.0, 3, w[3:])
    assert abs(total - (left + right)) < 1e-12
    p = entropic.step_distribution("undirected", 1.0).prob(1)
    homog = q_value("undirected", 6.0, 6, [1] * 6)
    assert abs(homog - 6 * (-math.log(p))) < 1e-12


def test_q_value_underflow_reported():
    with pytest.raises(PmfUnderflowError):
        q_value("undirected", 1.0, 2, [0, 500])


def test_q_mean_matches_entropy():
    t, k, samples = 20.0, 10, 3000
    rng = replicate_rng(23, 0)
    qs = np.array([q_value("undirected", t, k, sample_walks("undirected", t, k, 1, rng)[0])
                   for _ in range(samples)])
    mean, var = entropic.q1_moments("undirected", t / k)
    sigma = math.sqrt(k * var / samples)
    assert abs(qs.mean() - k * mean) <= 5 * sigma


def test_clt_probe_deterministic_and_monotone():
    n, k = 10 ** 4, 50
    a = clt_probe(n, k, "undirected", 0.0, 2000, replicate_rng(24, 0))
    b = clt_probe(n, k, "undirected", 0.0, 2000, replicate_rng(24, 0))
    assert a.estimate == b.estimate
    assert a.stderr == math.sqrt(a.estimate * (1 - a.estimate) / a.samples)
    lo = clt_probe(n, k, "undirected", -2.0, 2000, replicate_rng(25, 0))
    hi = clt_probe(n, k, "undirected", 2.0, 2000, replicate_rng(25, 0))
    assert lo.estimate > hi.estimate
    assert abs(clt_probe(n, k, "undirected", 1.0, 1000,
                         replicate_rng(26, 0)).target - 0.15866) < 1e-4
    with pytest.raises(ValueError):
        clt_probe(n, k, "undirected", 0.0, 10, replicate_rng(24, 0))


# (probe, alpha, seed) -> estimate, stderr and details, pinned bit for bit at
# n = 10007, k = 20, undirected, 4000 samples; the target is Psi(alpha).
PINNED_PROBES = [
    (clt_probe, 0.0, 1, 0.561, 0.007846639408052341,
     {"plus": 0.7625, "minus": 0.30175, "t_alpha": 2.5847921280960233,
      "omega": 2.0545870693641164}),
    (clt_probe, 1.5, 2, 0.03, 0.0026972207918522354,
     {"plus": 0.227, "minus": 0.00575, "t_alpha": 5.849120773738749,
      "omega": 2.0545870693641164}),
    (typicality_probe, 0.0, 3, 0.8295, 0.005946212029519297,
     {"local_failure_rate": 0.07475, "t_alpha": 2.5847921280960233}),
    (typicality_probe, 1.5, 4, 0.2265, 0.006618114346246973,
     {"local_failure_rate": 0.013, "t_alpha": 5.849120773738749}),
]


@pytest.mark.parametrize("probe,alpha,seed,estimate,stderr,details", PINNED_PROBES,
                         ids=[f"{case[0].__name__}-{case[1]:g}" for case in PINNED_PROBES])
def test_probes_are_pinned_bit_for_bit(probe, alpha, seed, estimate, stderr, details):
    result = probe(10007, 20, "undirected", alpha, 4000, replicate_rng(seed, 0))
    assert (result.estimate, result.stderr, result.samples) == (estimate, stderr, 4000)
    assert result.target == psi(alpha)
    assert result.details == details


def test_clt_probe_central_value_nominal_scale():
    # P(Q(t_0) <= log n) -> 1/2 as n -> oo with k ~ (log n)^{5/4}.  At the
    # n = 10^6, k = 10^4 reference scale the per-coordinate law is so sparse
    # that Q lives on a coarse lattice (log-pmf spacing ~ log(k/log n)), and
    # the normal approximation is not yet in force; the frozen 0.02 band is
    # asserted as stated and is expected to fail there.  See the acceptance
    # suite for the same probe with the identical outcome.
    probe = clt_probe(10 ** 6, 10 ** 4, "undirected", 0.0, 10 ** 5,
                      replicate_rng(27, 0))
    assert abs(probe.estimate - 0.5) <= 0.02


def _exact_probe_values(n, k, model, alpha):
    """The probes' targets for W(t_alpha), enumerated over every pmf value > 1e-16.

    Returns P(Q <= log n), P(Q <= log n + omega), P(Q <= log n - omega) and
    P(not typical); the mass left out is below 1e-13.
    """
    params = typicality_params(n, k, model, alpha)
    dist = entropic.step_distribution(model, params.t_alpha / k)
    keep = dist.pmf > 1e-16
    x, p = dist.support[keep], dist.pmf[keep]
    grid = np.stack([g.ravel() for g in np.meshgrid(*[np.arange(x.size)] * k,
                                                     indexing="ij")], axis=1)
    q = -np.log(p)[grid].sum(axis=1)
    prob = p[grid].prod(axis=1)
    local = (np.abs(x[grid] - dist.mean) <= params.r_alpha).all(axis=1)
    log_n, omega = math.log(n), params.omega
    thresholds = (log_n, log_n + omega, log_n - omega)
    # no value of Q sits within rounding of a threshold
    assert all(np.abs(q - thr).min() > 1e-9 for thr in thresholds)
    below = [float(prob[q <= thr].sum()) for thr in thresholds]
    not_typical = float(prob[~local | (q < log_n + omega)].sum())
    return below, not_typical


# k = 4: t_{-1} <= k at n = 50 draws the jumps (t = 0.99 directed, 0.59
# undirected); t_0 > k at n = 1000 draws each coordinate (8.3 and 7.5).  All
# sixteen targets lie strictly inside (0, 1).
@pytest.mark.parametrize("model", ["directed", "undirected"])
@pytest.mark.parametrize("n,alpha", [(50, -1.0), (1000, 0.0)])
def test_probes_match_exact_law_tiny_k(model, n, alpha):
    k, samples = 4, 30000
    (mid, plus, minus), not_typical = _exact_probe_values(n, k, model, alpha)

    def within_4_se(estimate, exact):
        return abs(estimate - exact) <= 4 * math.sqrt(exact * (1 - exact) / samples)

    clt = clt_probe(n, k, model, alpha, samples, replicate_rng(37, 0))
    assert within_4_se(clt.estimate, mid)
    assert within_4_se(clt.details["plus"], plus)
    assert within_4_se(clt.details["minus"], minus)
    assert clt.details["minus"] <= clt.estimate <= clt.details["plus"]
    typ = typicality_probe(n, k, model, alpha, samples, replicate_rng(38, 0))
    assert within_4_se(typ.estimate, not_typical)


def test_typicality_params_bounds():
    params = typicality_params(10 ** 6, 100, "undirected", 0.0)
    sol = entropic.solve_times(10 ** 6, 100, "undirected", alphas=[1.5])
    assert typicality_params(10 ** 6, 100, "undirected", 1.5).t_alpha == sol.t_alpha[1.5]
    assert abs(params.r_star - 12.17) < 0.01
    assert abs(params.p_star - 8.71e-5) < 1e-7
    assert params.r_alpha <= params.r_star
    assert params.p_alpha >= params.p_star
    assert params.q_threshold == math.log(10 ** 6) + params.omega
    law = entropic.step_distribution("undirected", params.t_alpha / 100)
    assert np.array_equal(params.dist.pmf, law.pmf)


def test_typicality_params_minimality():
    n, k, model, alpha = 10 ** 6, 100, "undirected", 0.0
    params = typicality_params(n, k, model, alpha)
    sol = entropic.solve_times(n, k, model, alphas=[alpha])
    dist = entropic.step_distribution(model, sol.t_alpha[alpha] / k)
    level = k ** -1.5

    def tail(r):
        inside = np.abs(dist.support - dist.mean) <= r
        return 1.0 - float(dist.pmf[inside].sum())

    assert tail(params.r_alpha) <= level
    if params.r_alpha > 0:
        assert tail(params.r_alpha - 1) > level
    assert params.p_alpha <= dist.prob(int(round(dist.mean)))


def test_typicality_params_raises_when_the_window_falls_short(monkeypatch):
    # every window holds mass 0.99 < 1 - k^{-3/2} = 0.999 at k = 100
    law = entropic.step_distribution

    def short(model, s, reach=0):
        dist = law(model, s, reach)
        return replace(dist, pmf=0.99 * dist.pmf)

    monkeypatch.setattr(entropic, "step_distribution", short)
    with pytest.raises(RuntimeError, match="at k = 100$"):
        typicality_params(10 ** 6, 100, "undirected", 0.0)


def test_clt_probe_needs_no_window_radius():
    # At k = 10^11 the level k^{-3/2} lies below the step law's 1e-15
    # truncation, so `typicality_params` certifies no radius; the CLT probe
    # scores no window and runs at solve_times' t_alpha.
    n, k = 10 ** 6, 10 ** 11
    with pytest.raises(RuntimeError, match="unreachable"):
        typicality_params(n, k, "undirected", 0.0)
    probe = clt_probe(n, k, "undirected", 0.0, 1000, replicate_rng(39, 0))
    assert 0.0 <= probe.estimate <= 1.0
    sol = entropic.solve_times(n, k, "undirected", alphas=[0.0])
    assert probe.details["t_alpha"] == sol.t_alpha[0.0]


def test_typicality_probe_local_failures_small():
    probe = typicality_probe(10 ** 6, 400, "undirected", 0.0, 5000,
                             replicate_rng(28, 0))
    k_bound = 400 ** -0.5
    assert probe.details["local_failure_rate"] <= k_bound + 3 * probe.stderr


def test_typicality_probe_deep_negative_alpha():
    probe = typicality_probe(10 ** 6, 10 ** 4, "undirected", -3.0, 5000,
                             replicate_rng(29, 0))
    assert probe.estimate >= 0.9


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
def test_typicality_probe_tracks_normal_tail(alpha):
    # P(W not typical) -> Psi(alpha); the frozen finite-scale band
    # 3*stderr + 0.05 is asserted as stated.  At n = 10^6, k = 10^4 the
    # global condition inherits the lattice structure of Q (same cause as
    # the CLT probe band above), so this is expected to fail for every
    # alpha in {-1, 0, 1}.
    probe = typicality_probe(10 ** 6, 10 ** 4, "undirected", alpha, 20000,
                             replicate_rng(30, 0))
    assert abs(probe.estimate - probe.target) <= 3 * probe.stderr + 0.05


def test_simulate_s_zero_time_and_equilibrium():
    g = make_group([2])
    Z = GeneratorMultiset(np.array(((1,),)))
    rng = replicate_rng(31, 0)
    assert simulate_S(g, Z, 0.0, "undirected", rng) == (0,)
    hits = sum(simulate_S(g, Z, 50.0, "undirected", rng) == (0,)
               for _ in range(10 ** 5))
    sigma = math.sqrt(10 ** 5 * 0.25)
    assert abs(hits - 5 * 10 ** 4) <= 5 * sigma


def test_simulate_s_matches_heat_kernel_row():
    g = make_group([101])
    rng = replicate_rng(32, 0)
    Z = sample_generators(g, 5, rng)
    sol = entropic.solve_times(g.n, 5, "undirected")
    spec = eigenvalues(g, Z, "undirected")
    row = heat_kernel_row(spec, sol.t0)
    samples = 50000
    counts = np.zeros(g.n)
    for _ in range(samples):
        counts[index_of(g, simulate_S(g, Z, sol.t0, "undirected", rng))] += 1
    emp_tv = 0.5 * np.abs(counts / samples - row.probs).sum()
    assert emp_tv <= math.sqrt(g.n / samples)  # twice the mean L1 sampling error

