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

from . import entropic

#: walks drawn per chunk by `_draws` for the probes and the `modified_l2` check.
CHUNK = 20000


@dataclass(frozen=True)
class TypicalityParams:
    """Window radius r_alpha, floor p_alpha, their closed-form bounds, at time t_alpha.

    dist is the step law at t_alpha / k.  The global condition
    mu(w) <= n^{-1} e^{-omega} is Q(w) >= q_threshold = log n + omega.
    """

    r_alpha: int
    p_alpha: float
    r_star: float
    p_star: float
    omega: float
    t_alpha: float
    dist: entropic.StepDistribution
    q_threshold: float

    def typical(self, q: np.ndarray, local: np.ndarray) -> np.ndarray:
        """The rows that pass the local window and the global condition."""
        return local & (q >= self.q_threshold)


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
    from scipy import special
    return float(special.ndtr(-alpha))


def _binomial(hits: int, samples: int) -> tuple[float, float]:
    """The estimate hits/samples and its binomial standard error."""
    est = hits / samples
    return est, math.sqrt(est * (1.0 - est) / samples)


def _sum_runs(cells: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum `values` over each run of equal sorted `cells`: the runs' cells and nonzero sums."""
    first = np.flatnonzero(np.diff(cells, prepend=-1))
    sums = np.add.reduceat(values, first)
    nonzero = sums != 0
    return cells[first[nonzero]], sums[nonzero]


def _walk_cells(model: str, t: float, k: int, samples: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero coordinates of `samples` independent draws of W(t).

    Returns the increasing flat cells row*k + col and their int64 values.
    W(t) makes Poisson(t) jumps in all, each along a uniform coordinate and
    +1 (directed) or +-1 with probability 1/2 (undirected).  For t <= k the
    jumps themselves are drawn and summed per cell (undirected cells that net
    to 0 are dropped): O(t) draws per walk, the exact law, no pmf truncation.
    For t > k each coordinate is drawn directly, Poisson(t/k) jumps of which
    Binomial(jumps, 1/2) are +1 (undirected), so the cost is O(min(t, k)) per
    walk either way.
    """
    if t < 0 or k < 1:
        raise ValueError("need t >= 0 and k >= 1")
    entropic._check_model(model)
    if t > k:
        jumps = rng.poisson(t / k, size=(samples, k))
        w = (jumps if model == "directed" else 2 * rng.binomial(jumps, 0.5) - jumps).reshape(-1)
        cells = np.flatnonzero(w != 0)
        return cells, w[cells]
    per_walk = rng.poisson(t, size=samples)
    cells = (np.repeat(np.arange(samples, dtype=np.int64) * k, per_walk)
             + rng.integers(0, k, size=int(per_walk.sum())))
    up = 1 if model == "directed" else rng.integers(0, 2, size=cells.size)
    # One sort of 2*cell + up groups the jumps by cell; each step 2 up - 1
    # comes back from the low bit and is summed per cell.  Only the sorted
    # keys stay alive through the sum.
    keys = np.sort(2 * cells + up)
    del cells, up
    return _sum_runs(keys >> 1, 2 * (keys & 1) - 1)


def _cost(dist, x) -> np.ndarray:
    """c(x) = -log max(pmf(x), PMF_FLOOR) for integer values x; pmf = 0 outside the window."""
    return -np.log(np.maximum(dist.prob(x), entropic.PMF_FLOOR))


def _row_terms(rows: np.ndarray, values: np.ndarray, samples: int, k: int, dist,
               r_alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Q and the local test of each of `samples` rows, from their nonzero coordinates.

    rows[j] is the row of the j-th nonzero coordinate and values[j] its value.
    Q = (k - nnz) c(0) + sum over the nonzeros of c(w_i); the local test holds
    when every |w_i - mean| <= r_alpha, and the k - nnz zeros of a row fail it
    together when |0 - mean| > r_alpha.  r_alpha = inf tests nothing locally.
    """
    nnz = np.bincount(rows, minlength=samples)
    q = (k - nnz) * _cost(dist, 0) + np.bincount(rows, weights=_cost(dist, values),
                                                  minlength=samples)
    local = np.bincount(rows[np.abs(values - dist.mean) > r_alpha], minlength=samples) == 0
    if abs(dist.mean) > r_alpha:
        local &= nnz == k
    return q, local


def _draws(dist, t: float, k: int, samples: int, rng: np.random.Generator,
           r_alpha: float = math.inf, walks: int = 1, chunk: int = CHUNK):
    """Per chunk of at most `chunk` of the `samples` rows, `walks` draws of W(t), drawn in
    turn, then each scored: [(cells, values, Q, local test)] (`_walk_cells`, `_row_terms`)."""
    for start in range(0, samples, chunk):
        m = min(chunk, samples - start)
        draws = [_walk_cells(dist.model, t, k, m, rng) for _ in range(walks)]
        yield [(cells, values, *_row_terms(cells // k, values, m, k, dist, r_alpha))
               for cells, values in draws]


def _result(hits: int, samples: int, alpha: float, **details) -> ProbeResult:
    """The ProbeResult of `hits` in `samples` draws: binomial estimate, target Psi(alpha)."""
    return ProbeResult(*_binomial(hits, samples), samples, psi(alpha), details)


def clt_probe(n: int, k: int, model: str, alpha: float, samples: int,
              rng: np.random.Generator) -> ProbeResult:
    """Estimate P(Q <= log n), and at log n -/+ omega, at t_alpha, with no window radius."""
    if samples < 10 ** 3:
        raise ValueError("need at least 1000 samples")
    sol, t_a, dist = _step_law(n, k, model, alpha)
    log_n = math.log(n)
    hits_mid = hits_plus = hits_minus = 0
    for [(_, _, q, _)] in _draws(dist, t_a, k, samples, rng):
        hits_mid += int((q <= log_n).sum())
        hits_plus += int((q <= log_n + sol.omega).sum())
        hits_minus += int((q <= log_n - sol.omega).sum())
    return _result(hits_mid, samples, alpha, plus=hits_plus / samples,
                   minus=hits_minus / samples, t_alpha=t_a, omega=sol.omega)


def _step_law(n: int, k: int, model: str, alpha: float):
    """solve_times' solution at alpha, its t_alpha, and the step law at t_alpha / k."""
    sol = entropic.solve_times(n, k, model, alphas=[alpha])
    t_a = sol.t_alpha[float(alpha)]
    return sol, t_a, entropic.step_distribution(model, t_a / k)


def typicality_params(n: int, k: int, model: str, alpha: float) -> TypicalityParams:
    """Minimal window radius r_alpha with tail <= k^{-3/2}, and the pmf floor p_alpha."""
    sol, t_a, dist = _step_law(n, k, model, alpha)
    level = k ** -1.5
    distance = np.abs(dist.support - dist.mean)
    for r_alpha in range(0, dist.hi - dist.lo + 1):
        inside = distance <= r_alpha
        if 1.0 - float(dist.pmf[inside].sum()) <= level:
            break
    else:
        raise RuntimeError(f"typicality level k^(-3/2) unreachable inside the step "
                           f"law's window at k = {k}")
    p_alpha = float(dist.pmf[inside].min())
    return TypicalityParams(
        r_alpha=r_alpha,
        p_alpha=p_alpha,
        r_star=0.5 * n ** (1.0 / k) * math.log(k) ** 2,
        p_star=n ** (-1.0 / k) * k ** -2.0,
        omega=sol.omega,
        t_alpha=t_a,
        dist=dist,
        q_threshold=math.log(n) + sol.omega,
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
    fails = local_fails = 0
    for [(_, _, q, local)] in _draws(params.dist, params.t_alpha, k, samples, rng, params.r_alpha):
        fails += int((~params.typical(q, local)).sum())
        local_fails += int((~local).sum())
    return _result(fails, samples, alpha, local_failure_rate=local_fails / samples,
                   t_alpha=params.t_alpha)
