import math

import numpy as np
import pytest
from scipy import special, stats

from cayley_cutoff import entropic
from cayley_cutoff.entropic import (BracketError, asymptotic_times, entropy,
                                    entropy_derivative, entropy_inverse,
                                    f_lambda, g_lambda, poisson_logpmf,
                                    q1_moments, solve_times, step_distribution,
                                    window_half_width)
from cayley_cutoff.walk import psi


def poissonization_pmf(s: float, x: int, top: int = 400) -> float:
    """SRW pmf by conditioning on the jump count: sum_N Po(s)(N) Binom(N, 1/2)(heads)."""
    total = 0.0
    for n_jumps in range(abs(x), top):
        if (n_jumps - x) % 2:
            continue
        heads = (n_jumps + x) // 2
        total += stats.poisson.pmf(n_jumps, s) * stats.binom.pmf(heads, n_jumps, 0.5)
    return total


def test_step_pmf_directed_values():
    assert abs(step_distribution("directed", 1.0).prob(0) - math.exp(-1)) < 1e-15
    assert step_distribution("directed", 1.0).prob(-1) == 0.0
    with pytest.raises(ValueError):
        step_distribution("directed", -1.0).prob(0)
    with pytest.raises(ValueError):
        step_distribution("bogus", 1.0).prob(0)


def test_special_function_forms_equal_scipy_stats():
    xs = np.arange(0, 400)
    for s in (0.0, 1e-9, 0.0069, 0.13, 1.0, 7.3, 100.0, 999.5, 9999.0):
        assert np.array_equal(np.exp(poisson_logpmf(xs, s)), stats.poisson.pmf(xs, s))
        assert np.array_equal(special.pdtrc(xs, s), stats.poisson.sf(xs, s))
        assert np.array_equal(special.pdtr(xs, s), stats.poisson.cdf(xs, s))
        if s > 0:
            assert np.array_equal(poisson_logpmf(xs, s), stats.poisson.logpmf(xs, s))
        for x in (0, 1, 3, 50):
            assert step_distribution("directed", s).prob(x) == float(stats.poisson.pmf(x, s))
    for alpha in np.linspace(-8.0, 8.0, 1601):
        assert psi(alpha) == float(stats.norm.sf(alpha))
    # the special forms are only fed counts >= 0: below 0 they differ
    assert stats.poisson.sf(-1, 2.0) == 1.0 and math.isnan(special.pdtrc(-1, 2.0))


def test_step_pmf_undirected_symmetry():
    dist = step_distribution("undirected", 2.0)
    assert dist.prob(3) == dist.prob(-3)


@pytest.mark.parametrize("s,x", [(5.0, 2), (0.5, 0), (12.0, -7)])
def test_step_pmf_matches_poissonization_oracle(s, x):
    assert abs(step_distribution("undirected", s).prob(x) - poissonization_pmf(s, x)) < 1e-12


def test_step_distribution_window_mass():
    for model in ("undirected", "directed"):
        for s in (0.0, 0.3, 7.0, 250.0):
            dist = step_distribution(model, s)
            assert dist.pmf.min() >= 0.0
            # window truncation discards < 1e-15 of mass; the remaining slack
            # is per-term pmf evaluation roundoff, a few ulp of s log s
            assert dist.pmf.sum() >= 1 - 1e-12
            if model == "undirected":
                assert np.allclose(dist.pmf, dist.pmf[::-1])
            # an array spanning both sides of the window reads the scalar values
            xs = np.arange(dist.lo - 3, dist.hi + 4)
            probs = dist.prob(xs)
            assert probs.tolist() == [dist.prob(int(x)) for x in xs]
            assert type(dist.prob(int(xs[0]))) is float
            assert not probs[:3].any() and not probs[-3:].any()
            assert np.array_equal(probs[3:-3], dist.pmf)


def test_poisson_lower_bound_undirected():
    # nu_s(x) >= 2^{-x} e^{-s} s^x / x!
    for s in (0.5, 2.0, 10.0):
        for x in range(0, 41):
            floor = 2.0 ** -x * stats.poisson.pmf(x, s)
            assert step_distribution("undirected", s).prob(x) >= floor - 1e-300


def test_entropy_basics():
    assert entropy("undirected", 0.0) == 0.0
    assert entropy("directed", 0.0) == 0.0
    # direct truncated-sum oracle, directed s=1
    p = stats.poisson.pmf(np.arange(0, 60), 1.0)
    oracle = -np.sum(p[p > 0] * np.log(p[p > 0]))
    got = entropy("directed", 1.0)
    assert abs(got - oracle) < 1e-12
    assert abs(got - 1.3048) < 1e-3


def test_entropy_gaussian_regime():
    expected = 0.5 * math.log(2 * math.pi * math.e * 100.0)
    assert abs(entropy("undirected", 100.0) - expected) / expected < 0.01


def test_entropy_strictly_increasing():
    for model in ("undirected", "directed"):
        grid = np.geomspace(0.01, 500, 30)
        vals = [entropy(model, float(s)) for s in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_entropy_derivative_limits():
    got = entropy_derivative("undirected", 200.0)
    assert abs(got - 1.0 / 400.0) / (1.0 / 400.0) < 0.005
    got = entropy_derivative("directed", 1e-3)
    target = math.log(1e3)
    assert abs(got - target) / target < 0.15
    with pytest.raises(ValueError):
        entropy_derivative("undirected", 0.0)


@pytest.mark.parametrize("model", ["undirected", "directed"])
def test_entropy_derivative_matches_finite_difference(model):
    s, eps = 1.0, 1e-6
    fd = (entropy(model, s + eps) - entropy(model, s - eps)) / (2 * eps)
    assert abs(entropy_derivative(model, s) - fd) < 1e-6


def test_q1_moments():
    assert q1_moments("undirected", 0.0) == (0.0, 0.0)
    mean, var = q1_moments("undirected", 1e3)
    assert abs(mean - entropy("undirected", 1e3)) < 1e-12
    assert abs(var - 0.5) / 0.5 < 0.05
    _, var = q1_moments("directed", 1e-3)
    pred = 1e-3 * math.log(1e3) ** 2
    assert abs(var - pred) / pred < 0.2


def test_window_truncation_soundness():
    # the default window against one twice as wide, summed here
    for model in ("undirected", "directed"):
        for s in (0.7, 30.0):
            wide = step_distribution(model, s, reach=2 * window_half_width(s)).pmf
            p = wide[wide > entropic.PMF_FLOOR]
            h2 = -math.fsum(p * np.log(p))
            v2 = math.fsum(p * (-np.log(p) - h2) ** 2)
            h1, v1 = q1_moments(model, s)
            assert abs(entropy(model, s) - h2) < 1e-12
            assert abs(h1 - h2) < 1e-12
            assert abs(v1 - v2) < 1e-12


@pytest.mark.parametrize("model", ["undirected", "directed"])
def test_entropy_inverse_identity(model):
    for y in (0.1, 1.0, 5.0):
        s = entropy_inverse(model, y)
        assert abs(entropy(model, s) - y) < 1e-9
    with pytest.raises(ValueError):
        entropy_inverse(model, 0.0)
    with pytest.raises(ValueError):
        entropy_inverse(model, math.nan)


def test_entropy_inverse_refuses_target_beyond_cap_without_a_pmf(monkeypatch):
    # H(s) <= (1/2) log(2 pi e (s + 1/12)) for a law of variance s on Z
    bound = 0.5 * math.log(2 * math.pi * math.e * (entropic.BRACKET_CAP + 1 / 12))
    monkeypatch.setattr(entropic, "step_distribution", None)  # any pmf build fails
    for target in (math.nextafter(bound, math.inf), 1e6, math.inf):
        with pytest.raises(BracketError):
            entropy_inverse("undirected", target)


def test_brentq_port_matches_scipy_bit_for_bit(monkeypatch):
    # every solve of solve_times, run once by the port and once by scipy on the
    # same function: both models, n from 101 to 10^12, k from 1 to 10^6, alpha
    # from -3 to 3; cells with n^(2/k) > 10^7 (pmfs of 10^4 entries and more)
    # are left out for time
    from scipy import optimize

    port, pairs = entropic._brentq, []

    def both(f, a, b, xtol, rtol):
        got = port(f, a, b, xtol, rtol)
        pairs.append((got.hex(), optimize.brentq(f, a, b, xtol=xtol, rtol=rtol).hex()))
        return got

    monkeypatch.setattr(entropic, "_brentq", both)
    for model in entropic.MODELS:
        for n in (101, 10 ** 4, 10 ** 6 + 3, 10 ** 9, 10 ** 12):
            for k in (1, 3, 14, 400, 10 ** 4, 10 ** 6):
                if n ** (2 / k) <= 1e7:
                    solve_times(n, k, model, alphas=(-3.0, -1.0, 0.5, 3.0))
    assert len(pairs) > 200
    # smooth functions on [0, 1] with loose xtol, where the tolerance is a
    # visible share of the bracket: a step test that drops its `- delta` fails
    # 12 of these 3000 solves and none of the solves above
    rng = np.random.default_rng(1)
    for _ in range(1000):
        c, p, a = rng.uniform(0.01, 0.99), rng.uniform(0.2, 5.0), rng.uniform(0.5, 20.0)
        xtol = 10.0 ** rng.uniform(-4.0, -0.5)
        for f in (lambda x: x ** p - c ** p, lambda x: math.tanh(a * (x - c)),
                  lambda x: math.expm1(a * x) - math.expm1(a * c)):
            pairs.append((port(f, 0.0, 1.0, xtol, 1e-12).hex(),
                          optimize.brentq(f, 0.0, 1.0, xtol=xtol, rtol=1e-12).hex()))
    assert [got for got, _ in pairs] == [want for _, want in pairs]


def test_brentq_port_raises_as_scipy_does():
    from scipy import optimize

    with pytest.raises(ValueError, match=r"at x=0\.5 is NaN"):
        entropic._brentq(lambda x: math.nan if x == 0.5 else x - 0.25, 0.0, 0.5, 1e-12, 1e-12)
    # a step at 1e-200 needs about 700 bisections to reach the tolerance
    step = lambda x: -1.0 if x < 1e-200 else 1.0  # noqa: E731
    with pytest.raises(RuntimeError) as ours:
        entropic._brentq(step, 0.0, 1.0, 1e-300, 1e-12)
    with pytest.raises(RuntimeError) as theirs:
        optimize.brentq(step, 0.0, 1.0, xtol=1e-300, rtol=1e-12)
    assert str(ours.value) == str(theirs.value)


def test_undirected_pmf_beyond_bessel_range_raises():
    # scipy's scaled Bessel function is NaN from s = 2^30, above BRACKET_CAP
    with pytest.raises(ValueError, match="undirected"):
        entropy("undirected", 2.0 ** 30)


def test_solve_times_clamps_a_huge_hint_to_the_cap():
    # k = 1 passes the hint n^2 = 8.1e9, beyond the cap; t0 sits just below it
    sol = solve_times(90000, 1, "undirected")
    assert abs(entropy("undirected", sol.t0 / 1) - math.log(90000)) < 1e-9


def test_solve_times_alpha_zero_is_t0():
    sol = solve_times(10 ** 4, 10, "undirected", alphas=[0.0])
    assert abs(sol.t_alpha[0.0] - sol.t0) < 1e-9 * sol.t0
    assert abs(entropy("undirected", sol.t0 / 10) - math.log(10 ** 4) / 10) < 1e-9
    assert abs(sol.omega - (sol.v * 10) ** 0.25) < 1e-12


def test_solve_times_small_k_asymptotic():
    n, k = 10 ** 8, 4
    sol = solve_times(n, k, "undirected")
    predicted = k * n ** (2.0 / k) / (2 * math.pi * math.e)
    assert abs(sol.t0 - predicted) / predicted < 0.05


def test_solve_times_monotone_in_alpha():
    for model in ("undirected", "directed"):
        for n, k in ((10 ** 4, 5), (10 ** 6, 30)):
            sol = solve_times(n, k, model, alphas=[-1.0, 0.0, 1.0])
            assert sol.t_alpha[-1.0] < sol.t0 < sol.t_alpha[1.0]


def test_solve_times_clamps_unreachable_negative_alpha():
    # (log n - |alpha| sqrt(vk))/k < 0 has no solution; boundary t=0 is reported
    sol = solve_times(10 ** 5, 400, "undirected", alphas=[-1.5])
    assert sol.t_alpha[-1.5] == 0.0
    with pytest.raises(ValueError):
        solve_times(1, 4, "undirected")


def test_var_continuity_near_t0():
    sol = solve_times(10 ** 4, 10, "undirected")
    s0 = sol.t0 / 10
    for s in (0.99 * s0, 1.01 * s0):
        _, v = q1_moments("undirected", s)
        assert abs(v - sol.v) / sol.v <= 0.05


def test_f_lambda_identity_and_monotone():
    for model in ("undirected", "directed"):
        for lam in (0.1, 1.0, 10.0):
            assert abs(entropy(model, f_lambda(lam, model)) - 1.0 / lam) < 1e-9
        grid = [0.2, 0.5, 1.0, 2.0, 5.0]
        vals = [f_lambda(lam, model) for lam in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    assert abs(f_lambda(1.0, "undirected") - f_lambda(1.0, "directed")) > 1e-3
    assert g_lambda(1.0, "undirected") > 0


def test_asymptotic_report_regimes():
    rep = asymptotic_times(solve_times(10 ** 6, 2, "undirected"))
    assert rep.regime == "k << log n"
    rep = asymptotic_times(solve_times(10 ** 6, 14, "undirected"))
    assert rep.regime == "k ~ lambda log n"
    assert rep.relative_gap < 0.05  # prediction is the solver's own f(kappa) here
    rep = asymptotic_times(solve_times(10 ** 3, 10 ** 6, "undirected"))
    assert rep.regime == "k >> log n"
    kappa = 10 ** 6 / math.log(10 ** 3)
    assert abs(rep.predicted_t0 - math.log(10 ** 3) / math.log(kappa)) < 1e-12


def test_asymptotic_times_solves_f_once(monkeypatch):
    # k ~ lambda log n: t0 and the window both read f(kappa), solved once
    sol = solve_times(1000003, 14, "undirected")
    want = asymptotic_times(sol)
    calls = []
    solve = entropic.entropy_inverse
    monkeypatch.setattr(entropic, "entropy_inverse",
                        lambda *a, **kw: calls.append(a) or solve(*a, **kw))
    rep = asymptotic_times(sol)
    assert rep.regime == "k ~ lambda log n" and len(calls) == 1
    assert rep == want
    kappa = 14 / math.log(1000003)
    assert rep.predicted_window == g_lambda(kappa, "undirected") * rep.predicted_t0 / math.sqrt(14)


def test_asymptotic_window_small_k():
    # t_alpha - t0 ~ alpha * sqrt(2/k) * t0 in the sparse regime.  At k = 4
    # the first-order window is only accurate on the log scale (the relative
    # shift alpha*sqrt(2/k) ~ 0.7 is not small), so the multiplicative form
    # log(t_alpha/t0) ~ alpha*sqrt(2/k) is the finite-scale reading.
    n, k = 10 ** 8, 4
    sol = solve_times(n, k, "undirected", alphas=[1.0])
    rel = math.log(sol.t_alpha[1.0] / sol.t0)
    assert abs(rel - math.sqrt(2.0 / k)) / math.sqrt(2.0 / k) < 0.05
    rep = asymptotic_times(solve_times(n, 3, "undirected"))  # kappa < 0.2 regime
    assert rep.regime == "k << log n"
    assert abs(rep.predicted_window - math.sqrt(2.0) * rep.predicted_t0 / math.sqrt(3)) < 1e-12
