"""Shared oracles for the test suite.

The dense uniformized matrix exponential below is an independent route to the
heat kernel: it never touches the character/DFT code path, so agreement with
`spectral.heat_kernel_row` cross-checks both implementations.  Its one-element
group arithmetic (`zero`, `add`, `neg`, `dot`) and the single-walk simulators
(`sample_walks`, `q_value`, `simulate_S`) are brute-force oracles with no
caller in the library.  The dense walk oracles read every coordinate of
`(samples, k)` walk arrays, where the library's typicality test and lemma
checks read only the nonzero cells.  `vz_uniform_oracle` counts V.Z case by
case where the library runs one census per batch of cases, and
`invariant_characters_oracle` filters by one generator at a time.
"""

import math
from itertools import product

import numpy as np
from scipy import stats

from cayley_cutoff import entropic, walk
from cayley_cutoff.groups import (GeneratorMultiset, GroupSpec, element_of, index_of,
                                  make_group, sample_generators)
from cayley_cutoff.lemmas import _report

Element = tuple[int, ...]


class PmfUnderflowError(RuntimeError):
    """A walk coordinate fell outside the representable pmf support."""


def zero(group: GroupSpec) -> Element:
    return (0,) * group.d


def add(group: GroupSpec, a: Element, b: Element) -> Element:
    """Coordinate-wise sum modulo the group moduli."""
    if len(a) != group.d or len(b) != group.d:
        raise ValueError("element dimension mismatch")
    return tuple((x + y) % m for x, y, m in zip(a, b, group.moduli))


def neg(group: GroupSpec, a: Element) -> Element:
    """Additive inverse, coordinate-wise."""
    if len(a) != group.d:
        raise ValueError("element dimension mismatch")
    return tuple((-x) % m for x, m in zip(a, group.moduli))


def dot(group: GroupSpec, w, Z: GeneratorMultiset) -> Element:
    """Integer combination sum_i w_i * Z_i reduced coordinate-wise mod m_j.

    Entries of w may be negative; Python's floored modulo yields the canonical
    representative.  The sum is taken in Python ints (object arrays): in int64
    it would wrap once |w| * m reaches about 2^63 / k.
    """
    w = np.array(w, dtype=object)
    if w.shape != (Z.k,):
        raise ValueError("weight vector length does not match k")
    return tuple((w @ Z.generators.astype(object) % group.moduli).tolist())


def sample_walks(model: str, t: float, k: int, samples: int,
                 rng: np.random.Generator) -> np.ndarray:
    """(samples, k) int64 array of independent draws of W(t).

    The nonzero coordinates drawn by `walk._walk_cells`, scattered into zeros.
    """
    cells, values = walk._walk_cells(model, t, k, samples, rng)
    w = np.zeros(samples * k, dtype=np.int64)
    w[cells] = values
    return w.reshape(samples, k)


def q_value(model: str, t: float, k: int, w) -> float:
    """Q = -sum_i log nu_{t/k}(w_i)."""
    if t <= 0:
        raise ValueError("t must be > 0")
    probs = entropic.step_distribution(model, t / k).prob(np.asarray(w, dtype=np.int64))
    if np.any(probs <= entropic.PMF_FLOOR):
        raise PmfUnderflowError("walk coordinate outside the pmf window or pmf underflow")
    return -math.fsum(np.log(probs))


def simulate_S(group: GroupSpec, Z: GeneratorMultiset, t: float, model: str,
               rng: np.random.Generator) -> Element:
    """One draw of the Cayley walk position S(t) = sum_i W_i(t) Z_i."""
    return dot(group, sample_walks(model, t, Z.k, 1, rng)[0], Z)


def dense_transition(group: GroupSpec, Z: GeneratorMultiset, model: str) -> np.ndarray:
    """One-step transition matrix of the Cayley walk, built entry by entry."""
    n = group.n
    P = np.zeros((n, n))
    for g in range(n):
        x = element_of(group, g)
        for z in Z.generators:
            if model == "directed":
                P[g, index_of(group, add(group, x, z))] += 1.0 / Z.k
            else:
                P[g, index_of(group, add(group, x, z))] += 0.5 / Z.k
                P[g, index_of(group, add(group, x, neg(group, z)))] += 0.5 / Z.k
    return P


def uniformized_row(P: np.ndarray, t: float, tol: float = 1e-16) -> np.ndarray:
    """Row 0 of e^{-t(I-P)} by uniformization: sum_j Po(t)(j) * (P^j)[0, :]."""
    n = P.shape[0]
    v = np.zeros(n)
    v[0] = 1.0
    top = int(t + 12.0 * math.sqrt(t) + 60.0)
    weights = stats.poisson.pmf(np.arange(top + 1), t)
    out = np.zeros(n)
    for j in range(top + 1):
        out += weights[j] * v
        v = v @ P
    return out


def tv_from_uniform(row: np.ndarray) -> float:
    n = row.size
    return 0.5 * float(np.abs(row - 1.0 / n).sum())


def typical_mask(w: np.ndarray, dist, r_alpha: int, q_threshold: float) -> np.ndarray:
    """Row mask of the typical walks in w (shape (samples, k)), through `walk._row_terms`.

    Local: every |w_i - mean| <= r_alpha.  Global: Q(w) = sum_i c(w_i) >=
    q_threshold; q_threshold = -inf tests locality alone.
    """
    samples, k = w.shape
    flat = np.flatnonzero(w != 0)
    q, local = walk._row_terms(flat // k, w.reshape(-1)[flat], samples, k, dist, r_alpha)
    return local & (q >= q_threshold)


def dense_modified_l2_probe(group, k, model, alpha, replicates, samples, rng):
    """`lemmas.modified_l2_probe` on dense walk arrays: V = W_1 - W_2 row by row."""
    n = group.n
    if n > 2 * 10 ** 4:
        raise ValueError("probe capped at n <= 2e4")
    params = walk.typicality_params(n, k, model, alpha)
    t_a = params.t_alpha
    hits = zero_hits = accepted_total = 0
    chunk = 20000
    for rep in range(replicates):
        Z = sample_generators(group, k, rng)
        done = 0
        while done < samples:
            m_chunk = min(chunk, samples - done)
            done += m_chunk
            w1 = sample_walks(model, t_a, k, m_chunk, rng)
            w2 = sample_walks(model, t_a, k, m_chunk, rng)
            typ = (typical_mask(w1, params.dist, params.r_alpha, params.q_threshold)
                   & typical_mask(w2, params.dist, params.r_alpha, params.q_threshold))
            v = w1[typ] - w2[typ]
            accepted = v.shape[0]
            accepted_total += accepted
            if accepted == 0:
                continue
            hits += int((v @ Z.generators % group.moduli == 0).all(axis=1).sum())
            zero_hits += int((v == 0).all(axis=1).sum())
    if accepted_total == 0:
        raise RuntimeError("typicality rejection accepted no samples")
    p_hat = hits / accepted_total
    sigma_p = math.sqrt(max(p_hat, 1.0 / accepted_total) / accepted_total)
    d_est = n * p_hat - 1.0
    slack = 3.0 * n * sigma_p
    efficiency = accepted_total / (replicates * samples)
    empty_budget = math.exp(-params.omega) / max(efficiency, 1e-12)
    empty_rate = n * zero_hits / accepted_total
    violation = d_est - slack - 0.5
    return _report("modified_l2", violation <= 0,
                   f"n={n} k={k} alpha={alpha} D={d_est:.4g} (3sigma={slack:.3g})",
                   max(violation, 0.0),
                   d_estimate=d_est, stderr=n * sigma_p,
                   rejection_efficiency=efficiency,
                   empty_contribution=empty_rate, empty_budget=empty_budget)


def dense_set_probability_check(n, k, model, alpha, I, samples, rng):
    """`lemmas.set_probability_check` on dense walk arrays: the support of V is w1 != w2."""
    I = frozenset(int(i) for i in I)
    if len(I) > k:
        raise ValueError("|I| cannot exceed k")
    params = walk.typicality_params(n, k, model, alpha)
    w1 = sample_walks(model, params.t_alpha, k, samples, rng)
    w2 = sample_walks(model, params.t_alpha, k, samples, rng)
    target = np.zeros(k, dtype=bool)
    target[list(I)] = True
    support_match = ((w1 != w2) == target).all(axis=1)

    def _both(threshold):
        return (typical_mask(w1, params.dist, params.r_alpha, threshold)
                & typical_mask(w2, params.dist, params.r_alpha, threshold))

    typ = _both(params.q_threshold)
    local_only = _both(-math.inf)

    def _estimate(mask):
        est = float(mask.mean())
        se = math.sqrt(max(est * (1 - est), 0.0) / samples)
        return est, se

    est_typ, se_typ = _estimate(support_match & typ)
    bound_typ = math.exp(-params.omega) / n / params.p_star ** len(I)
    est_loc, se_loc = _estimate(support_match & local_only)
    bound_loc = 2.0 ** (k - len(I)) * n ** (-1.0 + len(I) / k)
    violation = max(est_typ - (bound_typ + 3 * se_typ),
                    est_loc - (bound_loc + 3 * se_loc))
    return _report("set_probability", violation <= 0,
                   f"n={n} k={k} |I|={len(I)} est={est_typ:.3g} bound={bound_typ:.3g}",
                   max(violation, 0.0),
                   estimate=est_typ, bound=bound_typ,
                   local_estimate=est_loc, local_bound=bound_loc)


def vz_uniform_oracle(moduli, V, k: int):
    """`lemmas.vz_uniform_check` for one case, on its own histogram and Python sets."""
    group = make_group(moduli)
    V = [int(v) for v in V]
    g = [math.gcd(math.gcd(*(abs(v) for v in V)), m) for m in group.moduli]
    expected_support = set(index_of(group, list(product(
        *[range(0, m, gj) for m, gj in zip(group.moduli, g)]))).tolist())
    # Enumerate all Z in G^k as flat indices (Z_i is base-n digit i) and
    # histogram V.Z, reduced coordinate-wise after each term to keep it small.
    total = np.arange(group.n ** k, dtype=np.int64)
    vz = np.zeros((total.size, group.d), dtype=np.int64)
    for i in range(k):
        z_i = element_of(group, total // group.n ** i % group.n)
        vz = (vz + V[i] * z_i) % group.moduli
    hist = np.bincount(index_of(group, vz), minlength=group.n)
    counts = {int(i): int(c) for i, c in enumerate(hist) if c > 0}

    support_ok = set(counts) == expected_support
    uniform_ok = len(set(counts.values())) == 1
    passed = support_ok and uniform_ok
    worst = "support mismatch" if not support_ok else (
        "nonuniform counts" if not uniform_ok else "uniform on %d points" % len(counts))
    return _report("vz_uniform", passed, worst, 0.0 if passed else 1.0,
                   support_size=len(counts), gcds=g)


def invariant_characters_oracle(group: GroupSpec, Z: GeneratorMultiset,
                                candidates: np.ndarray) -> np.ndarray:
    """`spectral._invariant_characters`, filtering the candidates one generator at a time."""
    lcm = math.lcm(*group.moduli)
    coords = element_of(group, candidates).astype(object) * [lcm // m for m in group.moduli]
    for z in np.unique(Z.generators, axis=0).astype(object):
        ok = coords @ z % lcm == 0
        candidates, coords = candidates[ok], coords[ok]
    return candidates
