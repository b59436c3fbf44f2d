"""The step laws, H(s), H'(s), t_alpha and Psi against mpmath at 50 digits.

Each quantity is held to a stated bound in units of u = 2^-53.  While scipy is
installed, the same grids measure the error of the scipy forms the package
used before (`special.ive`, `stats.poisson.pmf`, `stats.norm.sf`), and the
package's worst error on each grid is no larger than scipy's.

The oracle's step laws: the Poisson law from mpmath's loggamma; the Bessel law
from mpmath's besseli where its series converge (orders up to 6 sqrt(s)), and
for the entropy sums from Miller's recurrence run at 50 digits from far above
the window, checked against besseli at those orders.  Above s = 10^4 the
Poisson entropy sums are integrals over the order: by Poisson summation a sum
of a smooth law over Z equals its integral up to terms of order e^{-2 pi^2 s}.
"""

import functools
import math

import numpy as np
import pytest

from cayley_cutoff import entropic, walk

mpmath = pytest.importorskip("mpmath")
mpf = mpmath.mpf

U = 2.0 ** -53
DPS = 50
#: s = 0 and a log grid from 10^-6 to the solver's cap 2^29
GRID = [0.0] + [float(s) for s in np.geomspace(1e-6, entropic.BRACKET_CAP, 9)]
#: where the pmf entries are checked: the grid's s > 0, and both sides of the
#: mode's rounding at s = 1/2, 5/2 and 10^4
PMF_GRID = GRID[1:] + [0.5, 2.5, 1e4 - 0.5, 1e4 + 0.5]

try:
    from scipy import special, stats
except ImportError:  # the oracle bounds still hold; only the comparison is skipped
    special = stats = None


def _pmf_bound(s: float, p) -> float:
    """A step-law entry p is built from about sqrt(s) cumulative log terms:
    8 u (1 + |log p|) s^(1/4) bounds its relative error."""
    return 8 * U * (1 + abs(float(mpmath.log(p)))) * max(1.0, s) ** 0.25


def _oracle_pmf(model: str, s: float, x: int):
    with mpmath.workdps(DPS):
        s = mpf(s)
        if model == "directed":
            return mpmath.exp(x * mpmath.log(s) - s - mpmath.loggamma(x + 1))
        return mpmath.exp(-s) * mpmath.besseli(abs(x), s)


def _sample_orders(model: str, s: float) -> list[int]:
    """41 orders across the window, with the center and its neighbour: for the
    Bessel law above s = 2 10^4, across the 6 sqrt(s) that besseli reaches."""
    dist = entropic.step_distribution(model, s)
    center = int(round(s)) if model == "directed" else 0
    reach = dist.hi - center
    if model == "undirected" and s > 2e4:
        reach = int(6 * math.sqrt(s))
    ends = max(dist.lo, center - reach), center + reach
    return sorted({int(x) for x in np.linspace(*ends, 41)} | {center, center + 1})


def _miller_half(s, half: int) -> list:
    """e^{-s} I_j(s) for j = 0 .. half + 1 at 50 digits: Miller's recurrence
    r_{j-1} = (2j/s) r_j + r_{j+1} from far above the window, in integers scaled
    by 2^400 (s = man 2^e is a binary fraction), normalised by
    sum_j e^{-s} I_{|j|}(s) = 1."""
    top = half + int(4 * math.sqrt(s)) + 60
    with mpmath.workdps(DPS):
        man, exp = mpf(s).man_exp  # 2j / s = j 2^(1 - e) / man
        r = [0] * (top + 2)
        r[top] = 1 << 400
        for j in range(top, 0, -1):
            twice = (j * r[j] << (1 - exp)) if exp <= 1 else (j * r[j]) >> (exp - 1)
            r[j - 1] = twice // man + r[j + 1]
        scale = 1 / mpf(r[0] + 2 * sum(r[1:]))
        return [mpf(v) * scale for v in r[:half + 2]]


def _oracle_law(model: str, s):
    """(multiplicity, p, log p, dp/ds) over the window of s at 50 digits, s <= 10^4
    for the Poisson law: the even Bessel law runs over x >= 0, x > 0 counted twice."""
    half = entropic.window_half_width(float(s))
    with mpmath.workdps(DPS):
        if model == "directed":
            center = int(round(float(s)))
            xs = range(max(0, center - half), center + half + 1)
            logp = [x * mpmath.log(s) - s - mpmath.loggamma(x + 1) for x in xs]
            p = [mpmath.exp(v) for v in logp]
            before = _oracle_pmf(model, s, xs[0] - 1) if xs[0] else 0  # p(lo - 1)
            dp = [a - b for a, b in zip([before] + p[:-1], p)]
            return [1] * len(p), p, logp, dp
        law = _miller_half(s, half)
        p = law[:half + 1]
        dp = [law[1] - law[0]] + [(law[j - 1] + law[j + 1]) / 2 - law[j]
                                  for j in range(1, half + 1)]
        return [1] + [2] * half, p, [mpmath.log(v) for v in p], dp


def _poisson_integral(s):
    """(H, H') of Po(s) for s > 10^4 as integrals over the order nu."""
    s = mpf(s)
    points = [s + k * mpmath.sqrt(s) for k in range(-16, 17, 2)]
    logp = lambda nu: nu * mpmath.log(s) - s - mpmath.loggamma(nu + 1)  # noqa: E731
    h = mpmath.quad(lambda nu: -mpmath.exp(logp(nu)) * logp(nu), points)
    hd = mpmath.quad(lambda nu: (mpmath.exp(logp(nu)) - mpmath.exp(logp(nu - 1))) * logp(nu),
                     points)
    return h, hd


@functools.lru_cache(maxsize=None)
def oracle_entropy(model: str, s):
    """(H(s), H'(s)) at 50 digits; s may be an mpf."""
    with mpmath.workdps(DPS):
        if s == 0:
            return mpf(0), None
        if model == "directed" and s > 1e4:
            return _poisson_integral(s)
        mult, p, logp, dp = _oracle_law(model, s)
        return (-mpmath.fdot([m * v for m, v in zip(mult, p)], logp),
                -mpmath.fdot([m * v for m, v in zip(mult, dp)], logp))


def _oracle_variance(model: str, s):
    """Var Q_1(s) at 50 digits."""
    with mpmath.workdps(DPS):
        mult, p, logp, _ = _oracle_law(model, s)
        h = oracle_entropy(model, s)[0]
        return mpmath.fdot([m * v for m, v in zip(mult, p)], [(v + h) ** 2 for v in logp])


def _relerr(got: float, want) -> float:
    with mpmath.workdps(DPS):
        return float(abs(mpf(got) - want) / abs(want)) if want else abs(got)


def _scipy_law(model: str, s: float) -> np.ndarray:
    """The step law as the package built it from scipy, on the same window."""
    dist = entropic.step_distribution(model, s)
    if model == "directed":
        return stats.poisson.pmf(dist.support, s)
    return special.ive(np.abs(dist.support), s)


def _entropy_of(p: np.ndarray) -> float:
    p = p[p > entropic.PMF_FLOOR]
    return -math.fsum(p * np.log(p))


@pytest.mark.parametrize("model", entropic.MODELS)
def test_step_pmf_matches_mpmath(model):
    worst = {"port": 0.0, "scipy": 0.0}
    for s in PMF_GRID:
        dist = entropic.step_distribution(model, s)
        for x in _sample_orders(model, s):
            want = _oracle_pmf(model, s, x)
            if want < entropic.PMF_FLOOR:
                continue
            bound = _pmf_bound(s, want)
            err = _relerr(dist.prob(x), want)
            assert err <= bound, (model, s, x, err, bound)
            worst["port"] = max(worst["port"], err / bound)
            if special is not None:
                scipy_p = (special.ive(abs(x), s) if model == "undirected"
                           else stats.poisson.pmf(x, s))
                worst["scipy"] = max(worst["scipy"], _relerr(float(scipy_p), want) / bound)
    if special is not None:
        assert worst["port"] <= worst["scipy"], worst


def test_miller_oracle_matches_besseli():
    # the oracle's own recurrence against besseli, where besseli's series converge
    for s in (1e-6, 0.3, 23.2, 1e4, 2.0 ** 20):
        half = entropic.window_half_width(s)
        law = _miller_half(s, half)
        with mpmath.workdps(DPS):
            for j in {0, 1, int(math.sqrt(s)), min(half, int(6 * math.sqrt(s)) + 60)}:
                want = mpmath.exp(-s) * mpmath.besseli(j, s)
                assert abs(law[j] - want) <= mpf(10) ** -45 * want


@pytest.mark.parametrize("model", entropic.MODELS)
def test_entropy_and_derivative_match_mpmath(model):
    # H: 16 u relative.  H' by the backward equation sums second differences
    # of the pmf, each of relative size 1/s, so it is held to u (16 + 4 s).
    worst = {"port": 0.0, "scipy": 0.0}
    for s in GRID:
        h, hd = oracle_entropy(model, s)
        err = _relerr(entropic.entropy(model, s), h)
        assert err <= 16 * U, (model, s, err)
        worst["port"] = max(worst["port"], err)
        if s > 0:
            err = _relerr(entropic.entropy_derivative(model, s), hd)
            assert err <= U * (16 + 4 * s), (model, s, err)
        if special is not None and s > 0:
            worst["scipy"] = max(worst["scipy"], _relerr(_entropy_of(_scipy_law(model, s)), h))
    if special is not None:
        assert worst["port"] <= worst["scipy"], worst


def _oracle_time(model: str, k: int, target, t_start: float):
    """k s with H(s) = target at 50 digits, from a bracket around t_start / k."""
    if target <= 0:  # no time reaches it; the solver reports the boundary t = 0
        return mpf(0)
    with mpmath.workdps(DPS):
        s = mpmath.findroot(lambda s: oracle_entropy(model, s)[0] - target,
                            (mpf(t_start / k) * 0.99, mpf(t_start / k) * 1.01),
                            solver="anderson", tol=mpf(10) ** -45)
        return k * s


#: every regime of kappa = k / log n, the `entropic` pins' three among them
CUTOFF_CASES = [(10 ** 4, 10, "undirected"), (1000003, 14, "undirected"),
                (1000003, 14, "directed"), (10 ** 8, 4, "undirected"),
                (10 ** 6, 2, "undirected"), (1000, 10 ** 6, "undirected"),
                (1000, 10 ** 6, "directed")]


@pytest.mark.parametrize("n,k,model", CUTOFF_CASES)
def test_cutoff_times_match_mpmath(n, k, model):
    # brentq stops within rtol |t| = 1e-12 |t| of the root of the computed H,
    # whose own error (16 u relative) moves the root by far less: 2e-12 in all
    alphas = (-1.0, 0.0, 1.0)
    sol = entropic.solve_times(n, k, model, alphas=alphas)
    with mpmath.workdps(DPS):
        t0 = _oracle_time(model, k, mpmath.log(n) / k, sol.t0)
        v = _oracle_variance(model, t0 / k)
        assert _relerr(sol.t0, t0) <= 2e-12
        assert _relerr(sol.v, v) <= 1e-12
        for alpha in alphas:
            target = (mpmath.log(n) + alpha * mpmath.sqrt(v * k)) / k
            want = _oracle_time(model, k, target, sol.t_alpha[alpha])
            assert _relerr(sol.t_alpha[alpha], want) <= 2e-12, (alpha, sol.t_alpha[alpha], want)


def test_psi_matches_mpmath():
    # 0.5 erfc(alpha / sqrt 2): the rounding of alpha / sqrt 2 moves erfc's log by
    # about alpha^2 u, so the bound is u (4 + 2 alpha^2)
    alphas = np.linspace(-8.0, 8.0, 1601)
    worst = {"port": 0.0, "scipy": 0.0}
    for alpha in alphas:
        with mpmath.workdps(DPS):
            want = mpmath.ncdf(-mpf(float(alpha)))
        err = _relerr(walk.psi(alpha), want)
        assert err <= U * (4 + 2 * alpha ** 2), (alpha, err)
        worst["port"] = max(worst["port"], err)
        if stats is not None:
            worst["scipy"] = max(worst["scipy"], _relerr(float(stats.norm.sf(alpha)), want))
    if stats is not None:
        assert worst["port"] <= worst["scipy"], worst
