"""Step distributions, entropy, and the entropic/cutoff time solver.

The per-coordinate step distribution at elapsed time s is Poisson(s) for the
directed model and the continuous-time simple random walk on Z run for time s
(pmf e^{-s} I_{|x|}(s)) for the undirected model.  Everything downstream — the
entropy H(s), the moments of Q_1 = -log nu_s(W_1), and the times t_alpha
solving k * E[Q_1(t_alpha)] = log n + alpha*sqrt(v k) — is computed from pmfs
truncated to a window whose tail mass is below 1e-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MODELS = ("undirected", "directed")

#: pmf values below this are dropped from entropy/variance sums (log-of-zero guard).
PMF_FLOOR = 1e-300

#: absolute log of the window-truncation target 1e-15.
_LOG_TRUNC = abs(math.log(1e-15))

#: hard cap for the root-finding bracket (in units of t).  scipy's scaled Bessel
#: function is NaN from s = 2^30 on, and the window at the cap has ~556k entries.
BRACKET_CAP = 2.0 ** 29


class BracketError(RuntimeError):
    """Raised when the entropy target cannot be bracketed below the time cap."""


@dataclass(frozen=True)
class StepDistribution:
    """Truncated pmf of one walk coordinate after elapsed time s."""

    model: str
    s: float
    lo: int
    hi: int
    pmf: np.ndarray

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    @property
    def mean(self) -> float:
        """Exact mean of the untruncated law (s directed, 0 undirected)."""
        return self.s if self.model == "directed" else 0.0

    def prob(self, x):
        """pmf at an integer or integer array x; 0 outside the window, a float for a scalar."""
        idx = np.asarray(x) - self.lo
        inside = (idx >= 0) & (idx < self.pmf.size)
        p = np.where(inside, self.pmf[np.clip(idx, 0, self.pmf.size - 1)], 0.0)
        return float(p) if p.ndim == 0 else p


@dataclass(frozen=True)
class EntropicSolution:
    """Solved entropic time t0 and cutoff times t_alpha for one (n, k, model)."""

    n: int
    k: int
    model: str
    t0: float
    v: float
    omega: float
    t_alpha: dict[float, float] = field(default_factory=dict)


@dataclass(frozen=True)
class AsymptoticReport:
    """Closed-form regime prediction for t0 and the cutoff window vs the solver."""

    regime: str
    kappa: float
    predicted_t0: float
    predicted_window: float
    solver_t0: float
    relative_gap: float


def _check_model(model: str) -> None:
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")


def window_half_width(s: float) -> int:
    """Half-width guaranteeing truncated tail mass < 1e-15."""
    return int(math.ceil(max(60.0, 12.0 * math.sqrt(s) + _LOG_TRUNC)))


#: switch to the centered Poisson pmf evaluation above this s.  scipy's pmf
#: forms the log as a difference of terms of size ~ s log s, so its absolute
#: log error grows like ulp(s log s); the centered route keeps it near 1e-15.
_POISSON_CENTERED_MIN = 10 ** 4


def poisson_logpmf(x, s: float):
    """log Po(s)(x) for integers x >= 0, the form scipy.stats.poisson evaluates."""
    from scipy import special  # here, so the spectral-only commands never load scipy
    return special.xlogy(x, s) - special.gammaln(x + 1) - s


def _poisson_pmf_centered(lo: int, hi: int, s: float) -> np.ndarray:
    """Poisson pmf on [lo, hi] for large s, free of large-term cancellation.

    log p at the mode m = round(s) comes from Stirling with the O(s)-sized
    terms combined analytically (m log(s/m) + (m - s) = -delta^2/(2m) + ...),
    and log p elsewhere from cumulative sums of the small ratios log(s/j).
    """
    m = int(round(s))
    delta = s - m
    log_pm = (m * math.log1p(delta / m) + (m - s)
              - 0.5 * math.log(2.0 * math.pi * m)
              - 1.0 / (12.0 * m) + 1.0 / (360.0 * m ** 3))
    logp = np.empty(hi - lo + 1)
    logp[m - lo] = log_pm
    if hi > m:
        j = np.arange(m + 1, hi + 1, dtype=float)
        logp[m - lo + 1:] = log_pm + np.cumsum(np.log1p((s - j) / j))
    if lo < m:
        j = np.arange(m, lo, -1, dtype=float)
        logp[:m - lo] = log_pm - np.cumsum(np.log1p((s - j) / j))[::-1]
    return np.exp(logp)


def step_distribution(model: str, s: float, reach: int = 0) -> StepDistribution:
    """Truncated step pmf, centered at the mean (s directed, 0 undirected).

    The window reaches max(window_half_width(s), reach) from its center: a
    caller can widen it past the 1e-15 tail bound, never narrow it.
    """
    _check_model(model)
    if s < 0:
        raise ValueError("s must be >= 0")
    half = max(window_half_width(s), reach)
    if model == "directed":
        center = int(round(s))
        lo = max(0, center - half)
        hi = center + half
        if s >= _POISSON_CENTERED_MIN:
            pmf = _poisson_pmf_centered(lo, hi, s)
        else:
            pmf = np.exp(poisson_logpmf(np.arange(lo, hi + 1), s))
    else:
        from scipy import special
        lo, hi = -half, half
        # e^{-s} I_{|x|}(s): scaled Bessel, stable for any s.
        pmf = special.ive(np.abs(np.arange(lo, hi + 1)), s)
    if not np.isfinite(pmf).all():
        raise ValueError(f"{model} step pmf at s = {s} is not finite")
    return StepDistribution(model=model, s=float(s), lo=lo, hi=hi, pmf=np.asarray(pmf, float))


def entropy(model: str, s: float) -> float:
    """Shannon entropy H(s) of the step distribution, in nats: the mean of Q_1(s)."""
    return _q1_mean(model, s)[0]


def _q1_mean(model: str, s: float):
    """(H(s), p, log p): the mean of Q_1(s) and the pmf mass above PMF_FLOOR it sums.

    At s = 0 the law is a point mass, H = 0.0 and both arrays are empty.
    """
    if s == 0:
        return 0.0, np.zeros(0), np.zeros(0)
    dist = step_distribution(model, s)
    p = dist.pmf[dist.pmf > PMF_FLOOR]
    logp = np.log(p)
    return -math.fsum(p * logp), p, logp


def entropy_derivative(model: str, s: float) -> float:
    """dH/ds via the backward equation: -sum_x p'(x) (log p(x) + 1).

    The time derivative of the pmf is p'(x) = (p(x+1) + p(x-1))/2 - p(x) for
    the undirected walk and p'(x) = p(x-1) - p(x) for the directed one.
    """
    if s <= 0:
        raise ValueError("s must be > 0")
    p = step_distribution(model, s).pmf
    padded = np.pad(p, 1)  # no flow across either end of the window
    down, up = padded[:-2], padded[2:]
    dp = 0.5 * (up + down) - p if model == "undirected" else down - p
    mask = p > PMF_FLOOR
    terms = -dp[mask] * (np.log(p[mask]) + 1.0)
    return math.fsum(terms)


def q1_moments(model: str, s: float) -> tuple[float, float]:
    """Mean and variance of Q_1(s) = -log nu_s(W_1)."""
    mean, p, logp = _q1_mean(model, s)
    return mean, math.fsum(p * (-logp - mean) ** 2)


def entropy_inverse(model: str, target: float, s_hint: float = 4.0) -> float:
    """Solve H(s) = target for s (H is strictly increasing, H(0) = 0)."""
    if not target > 0:
        raise ValueError(f"entropy target must be > 0, got {target}")
    # Both step laws have variance s, and an integer-valued law of variance s
    # has entropy at most (1/2) log(2 pi e (s + 1/12)); above that bound at the
    # cap no bracket exists, and doubling toward it would build huge pmfs.
    if target > 0.5 * math.log(2.0 * math.pi * math.e * (BRACKET_CAP + 1.0 / 12.0)):
        raise BracketError(f"entropy target {target} unreachable below cap")
    hi = min(max(4.0, float(s_hint)), BRACKET_CAP)
    while entropy(model, hi) < target:
        hi *= 2.0
        if hi > BRACKET_CAP:
            raise BracketError(f"entropy target {target} unreachable below cap")
    return _brentq(lambda s: entropy(model, s) - target, 0.0, hi, xtol=1e-280, rtol=1e-12)


def _brentq(f, xpre: float, xcur: float, xtol: float, rtol: float) -> float:
    """A root of f between xpre and xcur, where f changes sign: the bits of
    scipy's `optimize.brentq`, without the import of scipy.optimize.

    A line-for-line port of scipy's Zeros/brentq.c (Brent's method, the same
    float operations in the same order) with the checks of its wrapper that a
    bracketed f can reach: a NaN f(x) raises ValueError naming x, and no
    convergence within 100 iterations (scipy's default) raises RuntimeError.
    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers; BSD
    3-clause license, whose full notice is in LICENSE-scipy.txt.
    """
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2  # the tolerance is 2 delta
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


def solve_times(n: int, k: int, model: str, alphas=()) -> EntropicSolution:
    """Solve for the entropic time t0 and each cutoff time t_alpha.

    Stage 1 finds t0 with E[Q_1(t0)] = log(n)/k; stage 2 evaluates
    v = Var Q_1(t0); stage 3 solves E[Q_1(t_alpha)] = (log n + alpha*sqrt(vk))/k.
    """
    _check_model(model)
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    log_n = math.log(n)
    s_hint = max(4.0, float(n) ** (2.0 / k))
    s0 = entropy_inverse(model, log_n / k, s_hint)
    _, v = q1_moments(model, s0)
    omega = (v * k) ** 0.25
    t_alpha: dict[float, float] = {}
    for alpha in alphas:
        target = (log_n + alpha * math.sqrt(v * k)) / k
        if target <= 0:
            # Strongly negative alpha can push the per-coordinate entropy target
            # below 0, which no time attains; the boundary t = 0 (entropy 0) is
            # the closest point and preserves monotonicity in alpha.
            t_alpha[float(alpha)] = 0.0
        else:
            t_alpha[float(alpha)] = k * entropy_inverse(model, target, s_hint)
    return EntropicSolution(
        n=n, k=k, model=model, t0=k * s0, v=v, omega=omega, t_alpha=t_alpha)


def f_lambda(lam: float, model: str) -> float:
    """Inverse-entropy map: the s with H(s) = 1/lam."""
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    return entropy_inverse(model, 1.0 / lam)


def g_lambda(lam: float, model: str) -> float:
    """Window coefficient sqrt(v(lam)) / (f(lam) * H'(f(lam)))."""
    s = f_lambda(lam, model)
    _, var = q1_moments(model, s)
    return math.sqrt(var) / (s * entropy_derivative(model, s))


#: regime classifier thresholds on kappa = k / log n.
KAPPA_SMALL = 0.2
KAPPA_LARGE = 5.0

REGIME_SMALL_K = "k << log n"
REGIME_INTERMEDIATE = "k ~ lambda log n"
REGIME_LARGE_K = "k >> log n"


def asymptotic_times(sol: EntropicSolution) -> AsymptoticReport:
    """The regime-matched closed-form prediction for t0 and the window, against sol.t0.

    kappa < 0.2: t0 ~ k n^{2/k} / (2 pi e), window sqrt(2) * t0 / sqrt(k);
    kappa > 5:   t0 ~ log n / log kappa, window sqrt(kappa log kappa) * t0 / sqrt(k);
    otherwise:   t0 = k f(kappa), window g(kappa) * t0 / sqrt(k).
    """
    n, k, model = sol.n, sol.k, sol.model
    log_n = math.log(n)
    kappa = k / log_n
    if kappa < KAPPA_SMALL:
        regime = REGIME_SMALL_K
        predicted_t0 = k * float(n) ** (2.0 / k) / (2 * math.pi * math.e)
        window_coeff = math.sqrt(2.0)
    elif kappa > KAPPA_LARGE:
        regime = REGIME_LARGE_K
        predicted_t0 = log_n / math.log(kappa)
        window_coeff = math.sqrt(kappa * math.log(kappa))
    else:
        regime = REGIME_INTERMEDIATE
        predicted_t0 = k * f_lambda(kappa, model)
        window_coeff = g_lambda(kappa, model)
    predicted_window = window_coeff * predicted_t0 / math.sqrt(k)
    return AsymptoticReport(
        regime=regime, kappa=kappa, predicted_t0=predicted_t0,
        predicted_window=predicted_window, solver_t0=sol.t0,
        relative_gap=abs(predicted_t0 - sol.t0) / sol.t0,
    )
