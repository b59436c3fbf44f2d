"""Brute-force and Monte Carlo checks of the supporting lemmas.

Each check returns a CheckReport; exact checks carry explicit tolerances,
Monte Carlo checks carry three-standard-error slack and fixed seeds.  The
DEFAULT_CHECKS registry drives the `verify` CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import entropic, walk
from .groups import (GroupSpec, element_levels, element_of, make_group, replicate_rng,
                     sample_generators)


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    worst_case: str
    max_violation: float
    details: dict = field(default_factory=dict)


#: Most V.Z sums one exhaustive census forms (n^k per case, times the cases
#: of a batch).
VZ_EXHAUSTIVE_CAP = 10 ** 6


def _report(name, worst_case, violation, **details) -> CheckReport:
    """The check passes iff violation <= 0; its max_violation is the positive part."""
    return CheckReport(name=name, passed=bool(violation <= 0), worst_case=str(worst_case),
                       max_violation=float(max(violation, 0.0)), details=details)


def _worst(cases, passing):
    """The first failing (violation, case) of largest violation, else (0.0, passing)."""
    failing = [case for case in cases if not case[0] <= 0]
    return max(failing, key=lambda case: case[0], default=(0.0, passing))


# ---------------------------------------------------------------------------
# exact number-theoretic checks
# ---------------------------------------------------------------------------

def vz_uniform_check(moduli, V) -> CheckReport:
    """V.Z over all Z in G^k, k = len(V), is exactly uniform on the subgroup generated by gcds.

    Requires every V_i nonzero mod every m_j and n^k <= 1e6 (exhaustive count).
    """
    group = make_group(moduli)
    V = [int(v) for v in V]
    for v in V:
        for m in group.moduli:
            if v % m == 0:
                raise ValueError(f"V entry {v} is 0 mod {m}")
    if group.n ** len(V) > VZ_EXHAUSTIVE_CAP:
        raise ValueError("n^k exceeds the exhaustive cap 1e6")

    support_ok, uniform_ok, support_size, gcds = (a[0] for a in _vz_census(group, [V]))
    passed = support_ok and uniform_ok
    worst = "support mismatch" if not support_ok else (
        "nonuniform counts" if not uniform_ok else "uniform on %d points" % support_size)
    return _report("vz_uniform", worst, 0.0 if passed else 1.0,
                   support_size=int(support_size), gcds=gcds.tolist())


def _vz_counts(group: GroupSpec, V: np.ndarray) -> np.ndarray:
    """(c, n) int64 histogram of V_r.Z over all Z in G^k, one row per row V_r of V.

    Z runs over G^k as flat indices whose base-n digit i is Z_i.  Rows of V go
    in blocks of at most VZ_EXHAUSTIVE_CAP // n^k, so no block forms more sums
    than the cap.  Entries of V must lie in [0, lcm(m)), which keeps every
    product exact in int64.
    """
    c, k = V.shape
    n = group.n
    z = element_of(group, np.arange(n ** k)[:, None] // n ** np.arange(k) % n)
    block = VZ_EXHAUSTIVE_CAP // n ** k
    counts = []
    for lo in range(0, c, block):
        v = V[lo:lo + block]
        index = sum(v @ z[..., j].T % m * w
                    for j, (m, w) in enumerate(zip(group.moduli, group.radix_weights)))
        index += n * np.arange(len(v))[:, None]
        counts.append(np.bincount(index.ravel(), minlength=len(v) * n).reshape(-1, n))
    return np.concatenate(counts)


def _vz_census(group: GroupSpec, V):
    """The vz_uniform verdict of every row of the (c, k) integer array V at once.

    Returns (support_ok, uniform_ok, support_size, gcds) as arrays over the c
    rows, gcds of shape (c, d): the support of the counts must be exactly the
    elements whose coordinate j is a multiple of gcd(gcd|V_r|, m_j), with every
    nonzero count equal.  V.Z mod m_j and the gcds depend on V mod m_j only, so
    V is reduced mod lcm(m) first, on Python ints.
    """
    V = (np.asarray(V, dtype=object) % math.lcm(*group.moduli)).astype(np.int64)
    counts = _vz_counts(group, V)
    gcds = np.gcd(np.gcd.reduce(V, axis=1)[:, None], group.moduli)
    coords = element_of(group, np.arange(group.n))
    expected = (coords % gcds[:, None, :] == 0).all(axis=2)
    support = counts > 0
    support_ok = (support == expected).all(axis=1)
    uniform_ok = (~support | (counts == counts.max(axis=1, keepdims=True))).all(axis=1)
    return support_ok, uniform_ok, support.sum(axis=1), gcds


def divisibility_check(model: str, s: float, r: int, gamma: int) -> CheckReport:
    """P(gamma | V_1 given 0 < |V_1| <= 2r) <= 1/gamma, from the exact pmf.

    V_1 is a rate-2 simple random walk at per-coordinate time s under either
    model, i.e. the undirected step pmf at time 2s.
    """
    if gamma < 2 or r < 1:
        raise ValueError("need gamma >= 2 and r >= 1")
    dist = entropic.step_distribution("undirected", 2.0 * s, reach=2 * r)
    xs = dist.support
    in_window = (np.abs(xs) <= 2 * r) & (xs != 0)
    total = float(dist.pmf[in_window].sum())
    divisible = float(dist.pmf[in_window & (xs % gamma == 0)].sum())
    prob = divisible / total
    violation = prob - (1.0 / gamma + 1e-12)
    return _report("divisibility", f"model={model} s={s} r={r} gamma={gamma} prob={prob:.6g}",
                   violation, probability=prob)


def unimodality_check(s: float, M: int) -> CheckReport:
    """m -> P(|X_s| = m) is nonincreasing on {0..M} (slack 1e-14)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0:
        return _report("unimodality", "degenerate at 0", 0.0)
    dist = entropic.step_distribution("undirected", s, reach=M + 1)
    p = dist.prob(np.arange(M + 1))
    increase = np.diff(p)
    worst_idx = int(np.argmax(increase))
    return _report("unimodality", f"s={s} worst step {worst_idx}->{worst_idx + 1}",
                   float(increase.max()) - 1e-14)


def cos_taylor_check(grid_points: int) -> CheckReport:
    """2(pi theta)^2 >= 1-cos(2 pi theta) >= 2 e^{-7 pi^2 theta^2/18}(pi theta)^2 >= (2/3)(pi theta)^2."""
    if grid_points < 10 ** 3:
        raise ValueError("need at least 1000 grid points")
    theta = np.linspace(-0.5, 0.5, grid_points)
    slack = 1e-12
    # The grid goes in blocks of 2^16 points, whose start keeps the alignment
    # of the whole array, so every elementwise value has the same bits as on
    # the whole grid.  Each inequality keeps its maximum and first index, and
    # the first inequality reaching the overall maximum wins: the index argmax
    # over the three stacked violation rows would pick.
    block = 1 << 16
    best = [(-math.inf, 0)] * 3
    for start in range(0, grid_points, block):
        t = theta[start:start + block]
        sq = (np.pi * t) ** 2
        mid = 1.0 - np.cos(2.0 * np.pi * t)
        lower = 2.0 * np.exp(-7.0 * np.pi ** 2 * t ** 2 / 18.0) * sq
        for j, gap in enumerate((mid - 2.0 * sq, lower - mid, (2.0 / 3.0) * sq - lower)):
            violation = gap - slack
            top = float(violation.max())
            if top > best[j][0]:
                best[j] = (top, start + int(np.argmax(violation)))
    worst, i = max(best, key=lambda entry: entry[0])
    return _report("cos_taylor", f"theta={theta[i]:.6f}", worst)


def level_set_count_check(group: GroupSpec) -> CheckReport:
    """Census of A(s) = {x : max_j m_j/gcd(x_j, m_j) = s}; |A(s)| <= (s^2/2)^d for s >= 2."""
    if group.n > 10 ** 5:
        raise ValueError("census capped at n <= 1e5")
    levels, counts = np.unique(element_levels(group), return_counts=True)
    census = dict(zip(levels.tolist(), counts.tolist()))
    bounds = {level: (level ** 2 / 2.0) ** group.d for level in census if level >= 2}
    violation, worst = _worst([(census[s] - bound, f"s={s}: |A(s)|={census[s]} > {bound}")
                               for s, bound in bounds.items()], "all levels within bound")
    return _report("level_set", worst, violation, census=census)


# ---------------------------------------------------------------------------
# exit times of an interval
# ---------------------------------------------------------------------------

def _killed_transition(ell: int) -> np.ndarray:
    """Substochastic one-step matrix of the rate-1 SRW killed on leaving (-ell, ell)."""
    m = 2 * ell - 1
    return 0.5 * (np.eye(m, k=1) + np.eye(m, k=-1))


def _killed_survival(ell: int):
    """lam_A, the least rate of the killed generator I - P_hat, and s -> log P_0(tau > s).

    I - P_hat on the interior of (-ell, ell) is symmetric tridiagonal, so
    P_0(tau > s) = sum_j a_j e^{-lam_j s} over its eigenpairs, with a_j the
    origin's entry of eigenvector j times its sum.  The log form
    -lam_A s + log(sum_j a_j e^{-(lam_j - lam_A) s}) stays finite at hundreds
    of relaxation times, where e^{-lam_A s} alone underflows.
    """
    if not 1 <= ell <= 30:
        raise ValueError("ell must be in [1, 30]")
    evals, evecs = np.linalg.eigh(np.eye(2 * ell - 1) - _killed_transition(ell))
    amps = evecs.sum(axis=0) * evecs[ell - 1, :]
    lam_A = float(evals[0])

    def log_survival(s: float) -> float:
        return -lam_A * s + math.log(float(np.sum(amps * np.exp(-(evals - lam_A) * s))))

    return lam_A, log_survival


def exit_interval_check(ell: int, s_grid) -> CheckReport:
    """Survival P_0(tau > s) >= e^{-lambda s} with lambda = 1 - cos(pi/(2 ell)).

    Also verifies the quasi-stationary identity: mu(x) = cos(pi x/(2 ell))
    satisfies (mu P_hat)(x) = mu(x) cos(pi/(2 ell)) on the interior.
    """
    _, log_survival = _killed_survival(ell)
    lam = 1.0 - math.cos(math.pi / (2 * ell))
    cases = []
    for s in s_grid:
        survival, floor = math.exp(log_survival(float(s))), math.exp(-lam * s)
        cases.append((floor - survival - 1e-12,
                      f"ell={ell} s={s}: survival={survival:.12g} < e^(-lam s)={floor:.12g}"))
    violation, worst = _worst(cases, "survival >= exponential floor everywhere")
    # quasi-stationary identity (exact linear algebra); when broken, it names the report
    P = _killed_transition(ell)
    xs = np.arange(-ell + 1, ell)
    mu = np.cos(math.pi * xs / (2 * ell))
    resid = float(np.max(np.abs(mu @ P - math.cos(math.pi / (2 * ell)) * mu)))
    if resid > 1e-12:
        violation, worst = max(violation, resid), f"quasi-stationary residual {resid:g}"
    return _report("exit_interval", worst, violation, quasi_stationary_residual=resid)


def dirichlet_rate_check(ell: int, t_max: float | None = None) -> CheckReport:
    """-(1/t) log P_0(tau > t) approaches the minimal killed eigenvalue within 1%.

    t_max defaults to 200 relaxation times 1/lam_A, the least it may be.
    """
    lam_A, log_survival = _killed_survival(ell)
    if t_max is None:
        t_max = 200.0 / lam_A
    if t_max < 200.0 / lam_A:
        raise ValueError("t_max below 200 relaxation times")
    rate = -log_survival(t_max) / t_max
    gap = abs(rate - lam_A) / lam_A
    closed_form = 1.0 - math.cos(math.pi / (2 * ell))
    eig_err = abs(lam_A - closed_form)
    violation = max(gap - 0.01, eig_err - 1e-10)
    return _report("dirichlet_rate", f"ell={ell} rate={rate:.10g} lam_A={lam_A:.10g}",
                   violation, relative_gap=gap, lambda_A=lam_A)


# ---------------------------------------------------------------------------
# tail/pointwise pmf structure
# ---------------------------------------------------------------------------

RATIO_BAND = (0.05, 20.0)
LOG_TAIL_BAND = (0.1, 10.0)


def tail_ratio_check(model: str, s_grid, r_grid) -> CheckReport:
    """Tail/point ratio ~ (s/r) v 1 and log-tail scale within frozen bands.

    The step law of `model`: "directed" is Poisson(s), whose upper and lower
    tails about s are both checked; "undirected" is the symmetric walk, whose
    upper tail about 0 is checked.
    """
    cases = []
    for s in s_grid:
        for r in r_grid:
            r = int(r)
            if r < math.sqrt(s) or r < 1:
                continue
            dist = entropic.step_distribution(model, float(s), reach=r + 80)
            # tails summed from the window, which reaches r + 80 past each point
            xs = dist.support
            if model == "directed":
                x = int(round(s + r))
                pairs = [(float(dist.pmf[xs >= x].sum()), dist.prob(x))]
                if s - r >= 0:
                    x_lo = int(math.floor(s - r))
                    pairs.append((float(dist.pmf[xs <= x_lo].sum()), dist.prob(x_lo)))
            else:
                # the SRW upper tail P(X_s >= r) against the point r
                pairs = [(float(dist.pmf[xs >= r].sum()), dist.prob(r))]
            for tail, point in pairs:
                if point <= 0 or tail <= 0:
                    continue
                scale = max(s / r, 1.0)
                ratio = tail / point / scale
                log_scale = r * min(r / s, 1.0) * math.log(max(r / s, math.e))
                log_ratio = -math.log(tail) / log_scale
                cases += [(max(lo_b - value, value - hi_b),
                           f"{model} s={s} r={r} {label}={value:.4g}")
                          for value, (lo_b, hi_b), label in (
                              (ratio, RATIO_BAND, "ratio"),
                              (log_ratio, LOG_TAIL_BAND, "log-tail"))]
    if not cases:
        raise ValueError("no (s, r) pair satisfied r >= sqrt(s)")
    violation, worst = _worst(cases, "all ratios within bands")
    return _report("tail_ratio", worst, violation, checked=len(cases) // 2)


def lclt_scan(model: str, s_grid) -> CheckReport:
    """Pointwise Gaussian approximation in the bulk: log-error <= 2 s^{-1/4}.

    The centered variable is Po(s) - s (directed) or the SRW value (undirected);
    both have variance s.
    """
    cases = []
    for s in s_grid:
        s = float(s)
        if s < 10:
            raise ValueError("LCLT scan needs s >= 10")
        dist = entropic.step_distribution(model, s)
        centered = dist.support - dist.mean
        bulk = np.abs(centered) <= s ** (7.0 / 12.0)
        c = centered[bulk]
        log_err = np.abs(dist.logpmf[bulk] + 0.5 * math.log(2 * math.pi * s) + c ** 2 / (2 * s))
        top = float(log_err.max())
        cases.append((top - 2.0 * s ** -0.25, f"{model} s={s} max log-error {top:.4g}"))
    violation, worst = _worst(cases, "within the 2 s^{-1/4} envelope")
    return _report("lclt", worst, violation)


# ---------------------------------------------------------------------------
# Monte Carlo probes
# ---------------------------------------------------------------------------

def gcd_expectation_probe(d: int, I_size: int, r: int, samples: int,
                          rng: np.random.Generator) -> CheckReport:
    """Monte Carlo E[g^d] with g the gcd of |I| window-conditioned coordinates.

    Each |V_i| is drawn as a symmetric mixture of uniforms on {1..Y_i},
    Y_i ~ Unif{1..2r} (the structure underlying the gcd bound).  Bounds:
    1 + 3*2^{d-|I|} when |I| >= d+2, else 8*(2r)^{d-|I|+2}; in the harmonic
    case |I| = d+1 the sharper 2 ln(2r) bound is also enforced.
    """
    if I_size < 1:
        raise ValueError("I_size must be >= 1")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    ys = rng.integers(1, 2 * r + 1, size=(samples, I_size))
    vs = rng.integers(1, ys + 1)
    g = np.gcd.reduce(vs, axis=1).astype(float)
    vals = g ** d
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    if I_size >= d + 2:
        bound = 1.0 + 3.0 * 2.0 ** (d - I_size)
        label = "1+3*2^(d-|I|)"
    else:
        bound = 8.0 * (2.0 * r) ** (d - I_size + 2)
        label = "8*(2r)^(d-|I|+2)"
    violation = est - (bound + 3 * se)
    worst = f"d={d} |I|={I_size} r={r} E[g^d]={est:.4g} vs {label}={bound:.4g}"
    if I_size == d + 1:
        harmonic = 2.0 * math.log(2.0 * r)
        violation = max(violation, est - (harmonic + 3 * se))
        worst += f" harmonic={harmonic:.4g}"
    return _report("gcd_expectation", worst, violation, estimate=est, stderr=se)


def _difference(cells1, values1, cells2, values2) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero cells of W_1 - W_2 and their int64 values, in increasing order.

    Takes the increasing cells of each walk.  The cells of both are merged by
    a stable sort, each run of one cell is summed, and cells that cancel are
    dropped: integer arithmetic only, so the difference is exact.
    """
    cells = np.concatenate([cells1, cells2])
    order = np.argsort(cells, kind="stable")
    cells = cells[order]
    return walk._sum_runs(cells, np.concatenate([values1, -values2])[order])


def modified_l2_probe(group: GroupSpec, k: int, model: str, alpha: float,
                      replicates: int, samples: int,
                      rng: np.random.Generator) -> CheckReport:
    """Monte Carlo D_alpha = n P(V.Z = 0 | both walks typical) - 1; expect <= 0.5.

    Also tracks the all-zero difference contribution (n P(V = 0 | typ)) against
    its e^{-omega}/P(typ) budget, and reports the rejection efficiency of the
    typicality conditioning.
    """
    n = group.n
    if n > 2 * 10 ** 4:
        raise ValueError("probe capped at n <= 2e4")
    for name, count in (("replicates", replicates), ("samples", samples)):
        if count < 1:
            raise ValueError(f"need {name} >= 1, got {count}")
    params = walk.typicality_params(n, k, model, alpha)
    hits = zero_hits = accepted_total = 0
    for rep in range(replicates):
        Z = sample_generators(group, k, rng)
        for (cells1, values1, q1, local1), (cells2, values2, q2, local2) in walk._draws(
                params.dist, params.t_alpha, k, samples, rng, params.r_alpha, walks=2):
            typ = params.typical(q1, local1) & params.typical(q2, local2)
            accepted = int(typ.sum())
            accepted_total += accepted
            if accepted == 0:
                continue
            keep1, keep2 = typ[cells1 // k], typ[cells2 // k]
            cells, values = _difference(cells1[keep1], values1[keep1],
                                        cells2[keep2], values2[keep2])
            # V = 0 on the accepted rows with no nonzero cell left; every other
            # row hits when sum_i (V_i mod m_j) Z_ij = 0 (mod m_j) for each j.
            rows, cols = np.divmod(cells, k)
            first = np.flatnonzero(np.diff(rows, prepend=-1))
            residues = np.add.reduceat(values[:, None] % group.moduli
                                       * Z.generators[cols] % group.moduli, first)
            zeros = accepted - first.size
            zero_hits += zeros
            hits += zeros + int((residues % group.moduli == 0).all(axis=1).sum())
    if accepted_total == 0:
        raise RuntimeError("typicality rejection accepted no samples")
    # Pool hits over replicates; the collision probability is ~1/n, so the
    # estimator of D = n*p - 1 carries 3 sigma slack like every MC check here.
    p_hat = hits / accepted_total
    sigma_p = math.sqrt(max(p_hat, 1.0 / accepted_total) / accepted_total)
    d_est = n * p_hat - 1.0
    slack = 3.0 * n * sigma_p
    efficiency = accepted_total / (replicates * samples)
    empty_budget = math.exp(-params.omega) / max(efficiency, 1e-12)
    empty_rate = n * zero_hits / accepted_total
    violation = d_est - slack - 0.5
    return _report("modified_l2", f"n={n} k={k} alpha={alpha} D={d_est:.4g} (3sigma={slack:.3g})",
                   violation, d_estimate=d_est, stderr=n * sigma_p,
                   rejection_efficiency=efficiency,
                   empty_contribution=empty_rate, empty_budget=empty_budget)


def set_probability_check(n: int, k: int, model: str, alpha: float, I,
                          samples: int, rng: np.random.Generator) -> CheckReport:
    """P(support of V equals I, both walks typical) <= n^{-1} e^{-omega} p_*^{-|I|}.

    Also checks the local-only variant P(I, local window) <= 2^{k-|I|} n^{-1+|I|/k}.
    At `verify`'s size (n = 10^4, k = 20, |I| = 19) the bounds are 2.2e48 and
    1.26, both above 1, so that check cannot fail.
    """
    I = frozenset(int(i) for i in I)
    if len(I) > k:
        raise ValueError("|I| cannot exceed k")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    params = walk.typicality_params(n, k, model, alpha)
    # One chunk of all the samples: the stream `verify` pins draws W_1 whole, then W_2.
    [((cells1, values1, q1, local1), (cells2, values2, q2, local2))] = walk._draws(
        params.dist, params.t_alpha, k, samples, rng, params.r_alpha, walks=2, chunk=samples)
    typ, local_only = params.typical(q1, local1) & params.typical(q2, local2), local1 & local2
    del q1, q2, local1, local2  # freed before `_difference`, where the check peaks
    cells, _ = _difference(cells1, values1, cells2, values2)
    rows, cols = np.divmod(cells, k)
    target = np.isin(np.arange(k), list(I))
    inside = np.bincount(rows[target[cols]], minlength=samples)
    outside = np.bincount(rows[~target[cols]], minlength=samples)
    support_match = (inside == len(I)) & (outside == 0)
    est_typ, se_typ = walk._binomial(int((support_match & typ).sum()), samples)
    bound_typ = math.exp(-params.omega) / n / params.p_star ** len(I)
    est_loc, se_loc = walk._binomial(int((support_match & local_only).sum()), samples)
    bound_loc = 2.0 ** (k - len(I)) * n ** (-1.0 + len(I) / k)
    violation = max(est_typ - (bound_typ + 3 * se_typ),
                    est_loc - (bound_loc + 3 * se_loc))
    return _report("set_probability",
                   f"n={n} k={k} |I|={len(I)} est={est_typ:.3g} bound={bound_typ:.3g}",
                   violation, estimate=est_typ, bound=bound_typ,
                   local_estimate=est_loc, local_bound=bound_loc)


def eigenvalue_tail_probe(group: GroupSpec, k: int, s_target: int, samples: int,
                          rng: np.random.Generator) -> CheckReport:
    """P((1/k) sum_i {x_bar.Z_i}^2 <= c1 n^{-2/k}) is small for x at level s_target.

    One `sample_generators` call draws the Z_i, k per sample; {a} is the centered fractional
    part; the bound is s_target^{-9k/10} if s_target <= n^{1/k}, else 2^{-k}/n.  c1 = 0.01.
    With three standard errors of slack, 20000 samples resolve only an estimate
    about 190 times `verify`'s 2^{-k}/n = 2.4e-6 at n = 101, k = 12 (10 hits,
    207 times, is the fewest that fail), and about 11 times its 5.4e-5 at n = 36.
    """
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    c1 = 0.01
    n = group.n
    found = np.flatnonzero(element_levels(group)[1:] == s_target)
    if found.size == 0:
        raise ValueError(f"no element with level {s_target}")
    x = element_of(group, int(found[0]) + 1)
    Z = sample_generators(group, samples * k, rng).generators.reshape(samples, k, group.d)
    frac = np.zeros((samples, k))
    for j, (xj, m) in enumerate(zip(x, group.moduli)):
        frac += xj / m * Z[..., j]
    centered = frac - np.round(frac)
    statistic = (centered ** 2).mean(axis=1)
    threshold = c1 * n ** (-2.0 / k)
    est, se = walk._binomial(int((statistic <= threshold).sum()), samples)
    if s_target <= n ** (1.0 / k):
        bound = float(s_target) ** (-0.9 * k)
        label = "s^(-9k/10)"
    else:
        bound = 2.0 ** -k / n
        label = "2^(-k)/n"
    violation = est - (bound + 3 * se)
    return _report("eigenvalue_tail",
                   f"n={n} k={k} s*={s_target} est={est:.3g} {label}={bound:.3g}",
                   violation, estimate=est, bound=bound)


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

def _vz_uniform_sweep() -> CheckReport:
    """All cyclic m <= 12, k <= 3, V entries in [-3,3]\\{0} admissible for m.

    One census per (m, k); on a failure, the per-case report of the first
    failing case in (m, k, product) order.
    """
    cases = 0
    for m in range(2, 13):
        values = [v for v in (-3, -2, -1, 1, 2, 3) if v % m != 0]
        for k in (1, 2, 3):
            V = np.array(list(product(values, repeat=k)))
            support_ok, uniform_ok, _, _ = _vz_census(make_group([m]), V)
            failed = np.flatnonzero(~(support_ok & uniform_ok))
            if failed.size:
                return vz_uniform_check([m], V[failed[0]])
            cases += len(V)
    return _report("vz_uniform", f"{cases} exact cases uniform", 0.0, cases=cases)


def _seeded(fn, seed):
    return lambda: fn(replicate_rng(seed, 0))


DEFAULT_CHECKS: dict[str, object] = {
    "vz_uniform": _vz_uniform_sweep,
    "cos_taylor": lambda: cos_taylor_check(10 ** 6),
    "unimodality": lambda: _best_of(
        [unimodality_check(s, M) for s, M in ((0.5, 60), (2.5, 60), (40, 120), (400, 200))]),
    "divisibility": lambda: _best_of(
        [divisibility_check("undirected", s, r, gamma)
         for s in (0.5, 3.0, 20.0) for r in (5, 10, 25) for gamma in (2, 3, 7)]),
    "exit_interval": lambda: _best_of(
        [exit_interval_check(ell, (0.1, 0.5, 1.0, 2.0, 5.0, 10.0))
         for ell in range(1, 13)]),
    "dirichlet_rate": lambda: _best_of(
        [dirichlet_rate_check(ell) for ell in (1, 4, 8, 12)]),
    "tail_ratio": lambda: _best_of(
        [tail_ratio_check("directed", (25.0, 100.0, 400.0), (5, 10, 25, 60, 150)),
         tail_ratio_check("undirected", (25.0, 100.0, 400.0), (5, 10, 25, 60, 150))]),
    "lclt": lambda: _best_of(
        [lclt_scan("directed", (100.0, 10000.0)),
         lclt_scan("undirected", (100.0, 10000.0))]),
    "level_set": lambda: _best_of(
        [level_set_count_check(make_group(m)) for m in ([12], [36], [6, 4])]),
    "gcd_expectation": _seeded(
        lambda rng: _best_of(
            [gcd_expectation_probe(1, 3, 10, 40000, rng),
             gcd_expectation_probe(1, 2, 10, 40000, rng),
             gcd_expectation_probe(2, 4, 25, 40000, rng),
             gcd_expectation_probe(0, 2, 10, 40000, rng)]), 20260824),
    "modified_l2": _seeded(
        lambda rng: modified_l2_probe(make_group([10007]), 200, "undirected", 0.0,
                                      3, 200000, rng), 20260825),
    "set_probability": _seeded(
        lambda rng: set_probability_check(10 ** 4, 20, "undirected", 0.0,
                                          range(19), 40000, rng), 20260826),
    "eigenvalue_tail": _seeded(
        lambda rng: _best_of(
            [eigenvalue_tail_probe(make_group([101]), 12, 101, 20000, rng),
             eigenvalue_tail_probe(make_group([36]), 9, 6, 20000, rng)]), 20260827),
}


def _best_of(reports) -> CheckReport:
    """Collapse a list of same-family reports to the worst one, by `_worst`'s rule."""
    violation, worst = _worst([(r.max_violation, r) for r in reports], reports[0])
    return _report(worst.name, worst.worst_case, violation,
                   **{"cases": len(reports), **worst.details})


#: the forced-failure check that `self_test=True` adds: the suite's negative control.
SELF_TEST = "self_test"


def run_all(only: str | None = None, self_test: bool = False) -> list[CheckReport]:
    """Run the registered checks (optionally a single one) and return reports.

    self_test registers SELF_TEST, which always fails, after the default checks.
    """
    registry = dict(DEFAULT_CHECKS)
    if self_test:
        registry[SELF_TEST] = lambda: _report(SELF_TEST, "forced failure (negative control)", 1.0)
    if only is not None:
        if only not in registry:
            raise KeyError(f"unknown check {only!r}; known: {sorted(registry)}")
        registry = {only: registry[only]}
    return [fn() for fn in registry.values()]
