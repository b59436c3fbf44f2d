"""Step distributions, entropy, and the entropic/cutoff time solver.

The per-coordinate step distribution at elapsed time s is Poisson(s) for the
directed model and the continuous-time simple random walk on Z run for time s
(pmf e^{-s} I_{|x|}(s)) for the undirected model, truncated to a window whose
tail mass is below 1e-15.  `step_distribution` builds every law, and its
StepDistribution keeps the log pmf beside the pmf, so c(x) = -log nu_s(x) has
one table: the entropy H(s), the moments of Q_1 = c(W_1) and the times
t_alpha solving k * E[Q_1(t_alpha)] = log n + alpha*sqrt(v k) sum it, the
walk's Q adds up its `cost` (c floored at PMF_FLOOR), and the LCLT scan reads it.

Both laws, with their logs, come from numpy arithmetic and the C library's
log and exp (`math`): the Poisson law from cumulative sums of log(s/j) around
its mode, the Bessel law by Miller's backward recurrence, each normalised to
unit mass.  Neither follows numpy's run-time SIMD dispatch, so H, t_0 and
t_alpha have the same bits at every dispatch level.  The root finder is a
port of scipy's brentq, and no scipy module is imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MODELS = ("undirected", "directed")

#: pmf values below this leave entropy/variance sums and cost log(1/PMF_FLOOR) in Q.
PMF_FLOOR = 1e-300

#: absolute log of the window-truncation target 1e-15.
_LOG_TRUNC = abs(math.log(1e-15))

#: hard cap for the root-finding bracket (in units of t).  It bounds every step
#: law's window: at the cap the window has ~556k entries, and the undirected
#: law refuses any s above it rather than build a larger one.
BRACKET_CAP = 2.0 ** 29


class BracketError(RuntimeError):
    """Raised when the entropy target cannot be bracketed below the time cap."""


@dataclass(frozen=True)
class StepDistribution:
    """Truncated pmf of one walk coordinate after elapsed time s, and its log."""

    model: str
    s: float
    lo: int
    hi: int
    pmf: np.ndarray
    logpmf: np.ndarray

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    @property
    def mean(self) -> float:
        """Exact mean of the untruncated law (s directed, 0 undirected)."""
        return self.s if self.model == "directed" else 0.0

    def _at(self, table: np.ndarray, x, outside: float):
        """table at an integer or integer array x, `outside` past the window."""
        idx = np.asarray(x) - self.lo
        inside = (idx >= 0) & (idx < table.size)
        v = np.where(inside, table[np.clip(idx, 0, table.size - 1)], outside)
        return float(v) if v.ndim == 0 else v

    def prob(self, x):
        """pmf at an integer or integer array x; 0 outside the window, a float for a scalar."""
        return self._at(self.pmf, x, 0.0)

    def cost(self, x):
        """c(x) = -log nu_s(x), the summand of Q: -max(logpmf(x), log PMF_FLOOR), so
        log(1 / PMF_FLOOR) outside the window and wherever the pmf is below the floor."""
        floor = math.log(PMF_FLOOR)
        return -np.maximum(self._at(self.logpmf, x, floor), floor)


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


def _log(values: list[float]) -> np.ndarray:
    """log of each value by the C library, -inf where it is 0 (below the float
    range): numpy's float64 log and exp pick SIMD kernels at run time, whose
    last bits differ between CPUs, and libm's do not."""
    return np.array([math.log(x) if x > 0 else -math.inf for x in values], dtype=float)


def _exp(values: list[float]) -> np.ndarray:
    """exp of each value by the C library (see `_log`)."""
    return np.array(list(map(math.exp, values)), dtype=float)


def _log_ratios(s: float, j: np.ndarray) -> np.ndarray:
    """log(s / j) for counts j >= 1, by log1p where j <= 2 s: there s - j is exact,
    so a term near the mode carries an error of u |s - j| / j, not u."""
    near = j <= 2.0 * s
    out = np.empty(j.size)
    out[near] = list(map(math.log1p, ((s - j[near]) / j[near]).tolist()))
    out[~near] = _log((s / j[~near]).tolist())
    return out


def _poisson_law(lo: int, hi: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(pmf, log pmf) of Po(s) on [lo, hi], s > 0: cumulative sums of log(s / j)
    from m = round(s), normalised by the window's own mass (the mass outside it
    is below 1e-15), so no term of size s log s is formed and cancelled."""
    m = int(round(s))
    logw = np.concatenate([-np.cumsum(_log_ratios(s, np.arange(m, lo, -1.0)))[::-1], [0.0],
                           np.cumsum(_log_ratios(s, np.arange(m + 1.0, hi + 1)))])
    w = _exp(logw.tolist())
    w[m - lo] = 0.0
    log_pm = -math.log1p(math.fsum(w))
    w[m - lo] = 1.0
    return w * math.exp(log_pm), logw + log_pm


def _bessel_law(half: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(pmf, log pmf) of e^{-s} I_{|x|}(s) on [-half, half], s > 0, by Miller's
    backward recurrence.

    r_{j-1} = (2j/s) r_j + r_{j+1} runs down from r_{top+1} = 0 above the
    window, carried as the ratios rho_j = r_j / r_{j-1} = s / (2j + s rho_{j+1}):
    each lies in (0, 1), so the recurrence is rescaled at every step and no s
    overflows it.  The start's error at the window's top order is about
    (I_top / I_half)^2 < e^-50.  The identity sum_j e^{-s} I_{|j|}(s) = 1 gives
    the law at 0, and the negative half mirrors the positive one bit for bit.
    (Gautschi, Computational aspects of three-term recurrence relations, SIAM
    Review 9 (1967) 24-82.)
    """
    top = half + 20 + int(2.0 * math.sqrt(s))
    ratios = [0.0] * top
    rho = 0.0
    for j in range(top, 0, -1):
        rho = s / (2 * j + s * rho)
        ratios[j - 1] = rho
    w = np.cumprod(ratios)  # I_j / I_0 for j = 1, ..., top
    log_p0 = -math.log1p(2.0 * math.fsum(w.tolist()))
    p, logp = w[:half] * math.exp(log_p0), _log(w[:half].tolist()) + log_p0
    return (np.concatenate([p[::-1], [math.exp(log_p0)], p]),
            np.concatenate([logp[::-1], [log_p0], logp]))


def step_distribution(model: str, s: float, reach: int = 0) -> StepDistribution:
    """Truncated step pmf and its log, centered at the mean (s directed, 0 undirected).

    The window reaches max(window_half_width(s), reach) from its center: a
    caller can widen it past the 1e-15 tail bound, never narrow it.  At s = 0
    the law is a point mass at 0, log pmf 0 there and -inf elsewhere.
    """
    _check_model(model)
    if not s >= 0:
        raise ValueError("s must be >= 0")
    if model == "undirected" and s > BRACKET_CAP:
        raise ValueError(f"undirected step law at s = {s} is past BRACKET_CAP = 2^29")
    half = max(window_half_width(s), reach)
    if model == "directed":
        center = int(round(s))
        lo = max(0, center - half)
    else:
        center, lo = 0, -half
    hi = center + half
    if s == 0:
        logpmf = np.where(np.arange(lo, hi + 1) == center, 0.0, -np.inf)
        pmf = _exp(logpmf.tolist())
    else:
        pmf, logpmf = _poisson_law(lo, hi, s) if model == "directed" else _bessel_law(half, s)
    return StepDistribution(model=model, s=float(s), lo=lo, hi=hi, pmf=pmf, logpmf=logpmf)


def entropy(model: str, s: float) -> float:
    """Shannon entropy H(s) of the step distribution, in nats: the mean of Q_1(s)."""
    return _q1_mean(step_distribution(model, s))[0]


def _q1_mean(dist: StepDistribution):
    """(H, p, log p): the mean of Q_1 under `dist` and the pmf mass above PMF_FLOOR
    it sums (on the point mass at s = 0, H = 0.0)."""
    keep = dist.pmf > PMF_FLOOR
    p, logp = dist.pmf[keep], dist.logpmf[keep]
    return 0.0 - math.fsum(p * logp), p, logp


def entropy_derivative(model: str, s: float, *, _law: StepDistribution | None = None) -> float:
    """dH/ds via the backward equation: -sum_x p'(x) (log p(x) + 1).

    The time derivative of the pmf is p'(x) = (p(x+1) + p(x-1))/2 - p(x) for
    the undirected walk and p'(x) = p(x-1) - p(x) for the directed one.  That
    second difference is of size p / s and cancels about log10(s) of p's
    digits, so H' keeps about 16 - log10(s): a relative error of 2.8e-12 at
    s = 1.1e5 and 3.6e-9 at 2^29 against a 50-digit oracle.  Only the window
    coefficient reads it, passing the step law it already built as `_law`.
    """
    if s <= 0:
        raise ValueError("s must be > 0")
    law = _law or step_distribution(model, s)
    p, logp = law.pmf, law.logpmf
    padded = np.pad(p, 1)  # no flow across either end of the window
    down, up = padded[:-2], padded[2:]
    dp = 0.5 * (up + down) - p if model == "undirected" else down - p
    mask = p > PMF_FLOOR
    return math.fsum(-dp[mask] * (logp[mask] + 1.0))


def q1_moments(model: str, s: float, *,
               _law: StepDistribution | None = None) -> tuple[float, float]:
    """Mean and variance of Q_1(s) = -log nu_s(W_1), on `_law` if it is given."""
    mean, p, logp = _q1_mean(_law or step_distribution(model, s))
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


def _window_coeff(model: str, s: float) -> float:
    """The window coefficient g(lam) = sqrt(v(s)) / (s H'(s)) at s = f(lam), from one
    step law and with no second solve of f."""
    law = step_distribution(model, s)
    _, var = q1_moments(model, s, _law=law)
    return math.sqrt(var) / (s * entropy_derivative(model, s, _law=law))


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
        s = f_lambda(kappa, model)
        predicted_t0 = k * s
        window_coeff = _window_coeff(model, s)
    predicted_window = window_coeff * predicted_t0 / math.sqrt(k)
    return AsymptoticReport(
        regime=regime, kappa=kappa, predicted_t0=predicted_t0,
        predicted_window=predicted_window, solver_t0=sol.t0,
        relative_gap=abs(predicted_t0 - sol.t0) / sol.t0,
    )
