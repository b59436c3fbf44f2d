"""Auxiliary walk sampling, the entropy statistic Q, typicality, and CLT probes.

The auxiliary walk W(t) has k independent coordinates, each a rate-1/k Poisson
counting process (directed) or continuous-time simple random walk (undirected).
Q(t) = -log of the product pmf at W(t) concentrates around log n at the
entropic time; the probes here estimate its Gaussian-profile probabilities by
Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import entropic
from .groups import Element, GeneratorMultiset, GroupSpec, dot


class PmfUnderflowError(RuntimeError):
    """A walk coordinate fell outside the representable pmf support."""


@dataclass(frozen=True)
class AuxiliaryState:
    """One realization of the auxiliary walk W(t) in Z^k."""

    w: np.ndarray
    t: float
    model: str


@dataclass(frozen=True)
class TypicalityParams:
    """Window radius r_alpha, floor p_alpha, their closed-form bounds, at time t_alpha."""

    r_alpha: int
    p_alpha: float
    r_star: float
    p_star: float
    omega: float
    t_alpha: float


@dataclass(frozen=True)
class ProbeResult:
    """Monte Carlo estimate with binomial standard error and its target value."""

    estimate: float
    stderr: float
    samples: int
    target: float
    details: dict = field(default_factory=dict)


def psi(alpha: float) -> float:
    """Standard normal upper-tail probability."""
    return float(special.ndtr(-alpha))


def sample_walks(model: str, t: float, k: int, samples: int,
                 rng: np.random.Generator) -> np.ndarray:
    """(samples, k) int64 array of independent draws of W(t).

    W(t) makes Poisson(t) jumps in all, each along a uniform coordinate and
    +1 (directed) or +-1 with probability 1/2 (undirected).  For t <= k the
    jumps themselves are drawn and summed per coordinate by one unbuffered add
    over the flat cells row*k + col: O(t) draws per walk, the exact law, no pmf
    truncation.  For t > k each coordinate is drawn directly, Poisson(t/k)
    jumps of which Binomial(jumps, 1/2) are +1 (undirected), so the cost is
    O(min(t, k)) per walk either way.
    """
    if t < 0 or k < 1:
        raise ValueError("need t >= 0 and k >= 1")
    if model not in entropic.MODELS:
        raise ValueError(f"unknown model {model!r}")
    if t > k:
        jumps = rng.poisson(t / k, size=(samples, k))
        if model == "directed":
            return jumps
        return 2 * rng.binomial(jumps, 0.5) - jumps
    per_walk = rng.poisson(t, size=samples)
    cells = (np.repeat(np.arange(samples, dtype=np.int64) * k, per_walk)
             + rng.integers(0, k, size=int(per_walk.sum())))
    steps = 1 if model == "directed" else 2 * rng.integers(0, 2, size=cells.size) - 1
    w = np.zeros(samples * k, dtype=np.int64)
    np.add.at(w, cells, steps)
    return w.reshape(samples, k)


def sample_W(model: str, t: float, k: int, rng: np.random.Generator) -> AuxiliaryState:
    """Draw the k coordinates of W(t); each coordinate has elapsed time t/k."""
    return AuxiliaryState(w=sample_walks(model, t, k, 1, rng)[0], t=float(t), model=model)


def _cost(dist, x) -> np.ndarray:
    """c(x) = -log max(pmf(x), PMF_FLOOR) for integer values x; pmf = 0 outside the window."""
    idx = np.asarray(x) - dist.lo
    inside = (idx >= 0) & (idx < dist.pmf.size)
    p = np.where(inside, dist.pmf[np.clip(idx, 0, dist.pmf.size - 1)], 0.0)
    return -np.log(np.maximum(p, entropic.PMF_FLOOR))


def _typicality_terms(dist, x, r_alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Per value x: its cost c(x) and the local window test |x - mean| <= r_alpha."""
    return _cost(dist, x), np.abs(np.asarray(x) - dist.mean) <= r_alpha


def typical_mask(w: np.ndarray, dist, r_alpha: int, q_threshold: float) -> np.ndarray:
    """Row mask of the typical walks in w (shape (samples, k)).

    Local: every |w_i - mean| <= r_alpha.  Global: Q(w) = sum_i c(w_i) >=
    q_threshold; q_threshold = -inf tests locality alone.  Only the nonzero
    coordinates are read: the k - nnz zeros of a row add (k - nnz) c(0) to Q,
    and they fail the local test together when |0 - mean| > r_alpha.
    """
    samples, k = w.shape
    flat = np.flatnonzero(w != 0)
    rows = flat // k
    cost, within = _typicality_terms(dist, w.reshape(-1)[flat], r_alpha)
    zero_cost, zero_within = _typicality_terms(dist, 0, r_alpha)
    nnz = np.bincount(rows, minlength=samples)
    q = (k - nnz) * zero_cost + np.bincount(rows, weights=cost, minlength=samples)
    local = np.bincount(rows[~within], minlength=samples) == 0
    if not zero_within:
        local &= nnz == k
    return local & (q >= q_threshold)


def q_value(model: str, t: float, k: int, w) -> float:
    """Q = -sum_i log nu_{t/k}(w_i)."""
    if t <= 0:
        raise ValueError("t must be > 0")
    w = np.asarray(w, dtype=np.int64)
    dist = entropic.step_distribution(model, t / k)
    if w.min() < dist.lo or w.max() > dist.hi:
        raise PmfUnderflowError("walk coordinate outside the pmf window")
    probs = dist.pmf[w - dist.lo]
    if np.any(probs <= entropic.PMF_FLOOR):
        raise PmfUnderflowError("step pmf underflow at a walk coordinate")
    return -math.fsum(np.log(probs))


def _sample_q_counts(dist, k: int, samples: int, rng: np.random.Generator,
                     chunk: int = 20000):
    """Category counts of k iid step draws, per sample, via multinomial blocks.

    Sampling k individual coordinates per sample would cost O(samples*k); the
    multinomial over the truncated support is equivalent and costs
    O(samples * window).  Yields count blocks over the support values with
    pmf > 0, in increasing order.
    """
    p = dist.pmf[dist.pmf > 0]
    probs = p / p.sum()
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        yield rng.multinomial(k, probs, size=m)
        done += m


def clt_probe(n: int, k: int, model: str, alpha: float, samples: int,
              rng: np.random.Generator) -> ProbeResult:
    """Estimate P(Q(t_alpha) <= log n) and the omega-shifted variants; target Psi(alpha)."""
    if samples < 10 ** 3:
        raise ValueError("need at least 1000 samples")
    sol = entropic.solve_times(n, k, model, alphas=[alpha])
    t_a = sol.t_alpha[float(alpha)]
    dist = entropic.step_distribution(model, t_a / k)
    log_n = math.log(n)
    weights = _cost(dist, dist.support[dist.pmf > 0])
    hits_mid = hits_plus = hits_minus = 0
    for counts in _sample_q_counts(dist, k, samples, rng):
        q = counts @ weights
        hits_mid += int((q <= log_n).sum())
        hits_plus += int((q <= log_n + sol.omega).sum())
        hits_minus += int((q <= log_n - sol.omega).sum())
    est = hits_mid / samples
    return ProbeResult(
        estimate=est,
        stderr=math.sqrt(est * (1.0 - est) / samples),
        samples=samples,
        target=psi(alpha),
        details={
            "plus": hits_plus / samples,
            "minus": hits_minus / samples,
            "t_alpha": t_a,
            "omega": sol.omega,
        },
    )


def typicality_params(n: int, k: int, model: str, alpha: float) -> TypicalityParams:
    """Minimal window radius r_alpha with tail <= k^{-3/2}, and the pmf floor p_alpha."""
    sol = entropic.solve_times(n, k, model, alphas=[alpha])
    t_a = sol.t_alpha[float(alpha)]
    s = t_a / k
    level = k ** -1.5

    def scan(dist):
        mean = dist.mean
        support = dist.support
        for r in range(0, dist.hi - dist.lo + 1):
            inside = np.abs(support - mean) <= r
            tail = 1.0 - float(dist.pmf[inside].sum())
            if tail <= level:
                p_alpha = float(dist.pmf[inside].min())
                return r, p_alpha
        return None

    dist = entropic.step_distribution(model, s)
    found = scan(dist)
    if found is None:
        # widen the window once, then give up
        wide = entropic.step_distribution(model, s, 2 * (dist.hi - dist.lo + 1))
        found = scan(wide)
        if found is None:
            raise RuntimeError("typicality level unreachable inside widened window")
    r_alpha, p_alpha = found
    return TypicalityParams(
        r_alpha=r_alpha,
        p_alpha=p_alpha,
        r_star=0.5 * n ** (1.0 / k) * math.log(k) ** 2,
        p_star=n ** (-1.0 / k) * k ** -2.0,
        omega=sol.omega,
        t_alpha=t_a,
    )


def typicality_probe(n: int, k: int, model: str, alpha: float, samples: int,
                     rng: np.random.Generator) -> ProbeResult:
    """Estimate P(W(t_alpha) not typical); target Psi(alpha).

    Typicality = every coordinate within r_alpha of its mean (local) and
    product pmf at most n^{-1} e^{-omega} (global).
    """
    if samples < 10 ** 3:
        raise ValueError("need at least 1000 samples")
    params = typicality_params(n, k, model, alpha)
    t_a = params.t_alpha
    dist = entropic.step_distribution(model, t_a / k)
    log_n = math.log(n)
    # global condition mu(w) <= n^{-1} e^{-omega}  <=>  Q(w) >= log n + omega
    q_threshold = log_n + params.omega
    weights, within = _typicality_terms(dist, dist.support[dist.pmf > 0], params.r_alpha)
    fails = local_fails = 0
    for counts in _sample_q_counts(dist, k, samples, rng):
        q = counts @ weights
        local_bad = counts[:, ~within].sum(axis=1) > 0
        global_bad = q < q_threshold
        fails += int((local_bad | global_bad).sum())
        local_fails += int(local_bad.sum())
    est = fails / samples
    return ProbeResult(
        estimate=est,
        stderr=math.sqrt(est * (1.0 - est) / samples),
        samples=samples,
        target=psi(alpha),
        details={"local_failure_rate": local_fails / samples, "t_alpha": t_a},
    )


def simulate_S(group: GroupSpec, Z: GeneratorMultiset, t: float, model: str,
               rng: np.random.Generator) -> Element:
    """One draw of the Cayley walk position S(t) = sum_i W_i(t) Z_i."""
    state = sample_W(model, t, Z.k, rng)
    return dot(group, state.w.tolist(), Z)


@dataclass(frozen=True)
class TvErrorBudget:
    epsilon: float
    in_regime: bool


def tv_error_budget(n: int, k: int) -> TvErrorBudget:
    """Expected |d_Z(t_alpha) - Psi(alpha)| scale: 2 ln(k/ln k)/sqrt(k).

    The bound is established for k <= (1/2) ln n / ln ln n; outside that range
    the value is still returned but flagged.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    eps = 2.0 * math.log(k / math.log(k)) / math.sqrt(k)
    log_n = math.log(n)
    in_regime = k <= 0.5 * log_n / math.log(log_n)
    return TvErrorBudget(epsilon=eps, in_regime=in_regime)


def berry_esseen_band(k: int, v: float) -> float:
    """Advisory accuracy band for probe targets: 3000^{3/4}/sqrt(k) + omega/sqrt(vk)."""
    vk = v * k
    return 3000.0 ** 0.75 / math.sqrt(k) + vk ** 0.25 / math.sqrt(vk)
