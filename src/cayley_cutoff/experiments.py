"""Experiment orchestration: cutoff profiles, gap scans, TV curves, reports.

Every experiment is driven by an ExperimentConfig with a mandatory base seed;
replicate r draws from the counter-based stream (base_seed, r), so output is
byte-identical across reruns and across serial/parallel execution.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import entropic, lemmas, spectral, walk
from .groups import GroupSpec, make_group, replicate_rng, sample_generators

TOOL_VERSION = "cayley-cutoff 0.1.0"

#: refuse runs estimated over this many DFT butterfly-equivalents without force.
BUDGET_LIMIT = 10 ** 9

#: the forced-failure check that `verify --self-test-fail` registers.
SELF_TEST = "self_test"


class BudgetExceededError(RuntimeError):
    """Estimated DFT work exceeds the budget; pass force=True to override."""


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    moduli: tuple[int, ...] = ()
    k: int = 0
    model: str = "undirected"
    alphas: tuple[float, ...] = ()
    t_grid: str | None = None
    replicates: int = 1
    base_seed: int = 0
    out: str | None = None
    fmt: str = "csv"
    only: str | None = None
    force: bool = False
    jobs: int = 1

    def __post_init__(self):
        """Reject a bad parameter before anything runs, naming its flag."""
        if self.base_seed is None:
            raise ValueError("--seed is required (seeds are always explicit)")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"--format must be csv or json, got {self.fmt!r}")
        if self.model not in entropic.MODELS:
            raise ValueError(f"--model must be one of {entropic.MODELS}, got {self.model!r}")
        for flag, value in (("--replicates", self.replicates), ("--jobs", self.jobs)):
            if value < 1:
                raise ValueError(f"{flag} must be >= 1, got {value}")
        if not all(math.isfinite(a) for a in self.alphas):
            raise ValueError(f"--alpha values must be finite, got {list(self.alphas)}")
        if self.command == "verify":
            if self.only not in (None, SELF_TEST, *lemmas.DEFAULT_CHECKS):
                raise ValueError(f"--only: unknown check {self.only!r}; "
                                 f"known: {', '.join(lemmas.DEFAULT_CHECKS)}")
            return
        try:
            group = self.group()
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"--group: {exc}") from None
        if self.k < 1:
            raise ValueError(f"--k is required and must be >= 1, got {self.k}")
        if self.command == "cutoff-profile" and self.k < group.d:
            raise ValueError(f"--k must be >= d = {group.d} for a connectable instance, "
                             f"got {self.k}")
        if self.command == "cheeger" and group.n > spectral.CHEEGER_MAX_N:
            raise ValueError(f"--group: cheeger scans every vertex subset, so n <= "
                             f"{spectral.CHEEGER_MAX_N}, got n = {group.n}")
        if self.t_grid is not None:
            _t_grid_triple(self.t_grid)

    def group(self) -> GroupSpec:
        return make_group(self.moduli)

    def digest(self) -> str:
        payload = {k: v for k, v in asdict(self).items() if k not in ("out", "jobs")}
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _instance(config: ExperimentConfig, r: int):
    """Replicate r: its generators Z, spectrum, gaps, and the row head naming it."""
    group = config.group()
    Z = sample_generators(group, config.k, replicate_rng(config.base_seed, r))
    spec = spectral.eigenvalues(group, Z, config.model)
    blob = json.dumps(Z.generators.tolist())
    head = {"replicate": r, "seed": config.base_seed,
            "instance_digest": hashlib.sha256(blob.encode()).hexdigest()[:12]}
    return Z, spec, spectral.gap_summary(spec), head


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return format(v, ".17g")
    return str(v)


def _csv_quote(s: str) -> str:
    if any(c in s for c in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def render_csv(config: ExperimentConfig, rows) -> str:
    """Header comment, then the keys of the first row as columns, then one line per row."""
    columns = list(rows[0])
    lines = [f"# {TOOL_VERSION} config={config.digest()}"]
    lines.append(",".join(_csv_quote(c) for c in columns))
    for row in rows:
        lines.append(",".join(_csv_quote(_fmt_value(row[c])) for c in columns))
    return "\n".join(lines) + "\n"


def render_json(config: ExperimentConfig, rows, summary=None) -> str:
    meta = {"meta": {"tool": TOOL_VERSION, "config_digest": config.digest()}}
    lines = [json.dumps(meta, sort_keys=True)]
    for row in rows:
        lines.append(json.dumps(row, sort_keys=True, default=_fmt_value))
    if summary is not None:
        lines.append(json.dumps({"summary": summary}, sort_keys=True,
                                default=_fmt_value))
    return "\n".join(lines) + "\n"


def _emit(config: ExperimentConfig, rows, summary=None) -> str:
    if config.fmt == "csv":
        text = render_csv(config, rows)
        if summary:
            srows = summary if isinstance(summary, list) else [summary]
            for srow in srows:
                text += "# summary " + json.dumps(srow, sort_keys=True,
                                                  default=_fmt_value) + "\n"
    else:
        text = render_json(config, rows, summary)
    return _write(config, text)


def _write(config: ExperimentConfig, text: str) -> str:
    """Write text to --out when one is given; return it either way."""
    if config.out:
        with open(config.out, "w", newline="") as fh:
            fh.write(text)
    return text


def _map_replicates(config: ExperimentConfig, fn, payload) -> list:
    """Run fn(replicate_index, payload) for each replicate, serial or pooled.

    Results are merged in replicate order regardless of completion order.
    """
    indices = list(range(config.replicates))
    if config.jobs <= 1:
        return [fn(r, payload) for r in indices]
    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        return list(pool.map(fn, indices, [payload] * len(indices)))


def _budget_check(config: ExperimentConfig, n: int, transforms_per_replicate: int,
                  replicates: int | None = None):
    """Price each replicate as its spectrum transform plus its row transforms.

    `replicates` defaults to `config.replicates`; a runner that computes fewer
    replicates passes the number it computes.
    """
    replicates = config.replicates if replicates is None else replicates
    work = (replicates * (transforms_per_replicate + 1)
            * n * max(math.log2(n), 1.0))
    if work > BUDGET_LIMIT and not config.force:
        raise BudgetExceededError(
            f"estimated {work:.3g} butterfly-equivalents exceeds {BUDGET_LIMIT:g}; "
            "pass --force to override")


# ---------------------------------------------------------------------------
# cutoff profile
# ---------------------------------------------------------------------------

def _tv_at(spec: spectral.SpectralData, times: list[float]) -> list[float]:
    """tv_exact of the heat-kernel row at each time, two nonzero times per transform.

    A row at t = 0 takes no transform, so it is left out of the pairs.
    """
    moving = [t for t in times if t != 0]
    tv = {}
    for i in range(0, len(moving), 2):
        pair = moving[i:i + 2]
        tv.update(zip(pair, spectral.tv_exact(spectral.heat_kernel_row(spec, pair))))
    if len(moving) < len(times):
        tv[0.0] = spectral.tv_exact(spectral.heat_kernel_row(spec, 0.0))
    return [tv[t] for t in times]


def _cutoff_worker(r: int, payload: dict) -> dict:
    t_alpha: dict[float, float] = payload["t_alpha"]
    _, spec, gaps, head = _instance(payload["config"], r)
    alphas = sorted(t_alpha)
    row = {**head, "connected": gaps.connected}
    for alpha, tv in zip(alphas, _tv_at(spec, [t_alpha[a] for a in alphas])):
        row[f"tv_alpha_{alpha:g}"] = tv
    return row


def run_cutoff_profile(config: ExperimentConfig) -> tuple[str, list[dict]]:
    group = config.group()
    alphas = config.alphas or (-1.5, 0.0, 1.5)
    _budget_check(config, group.n, len(alphas))
    sol = entropic.solve_times(group.n, config.k, config.model, alphas=alphas)
    payload = {"config": config, "t_alpha": sol.t_alpha}
    rows = _map_replicates(config, _cutoff_worker, payload)
    summary = []
    for alpha in sorted(sol.t_alpha):
        vals = [row[f"tv_alpha_{alpha:g}"] for row in rows]
        summary.append({
            "alpha": alpha,
            "t_alpha": sol.t_alpha[alpha],
            "mean_tv": float(np.mean(vals)),
            "q25": float(np.quantile(vals, 0.25)),
            "median": float(np.median(vals)),
            "q75": float(np.quantile(vals, 0.75)),
            "target_psi": walk.psi(alpha),
        })
    return _emit(config, rows, summary), rows


# ---------------------------------------------------------------------------
# gap scan
# ---------------------------------------------------------------------------

def _gap_worker(r: int, payload: dict) -> dict:
    config: ExperimentConfig = payload["config"]
    _, spec, gaps, head = _instance(config, r)
    scale = spec.group.n ** (2.0 / config.k)
    return {
        **head,
        "connected": gaps.connected,
        "gamma": gaps.gamma,
        "gamma_star": gaps.gamma_star,
        "t_rel": gaps.t_rel,
        "t_rel_over_scale": gaps.t_rel / scale,
    }


def run_gap_scan(config: ExperimentConfig) -> tuple[str, list[dict]]:
    group = config.group()
    _budget_check(config, group.n, 0)
    rows = _map_replicates(config, _gap_worker, {"config": config})
    ratios = [row["t_rel_over_scale"] for row in rows if row["connected"]]
    summary = {
        "connected_fraction": sum(r["connected"] for r in rows) / len(rows),
        "min_ratio": min(ratios) if ratios else math.inf,
        "max_ratio": max(ratios) if ratios else math.inf,
    }
    for c in (1, 2, 5, 10, 20, 50):
        above = sum(1 for r in ratios if r > c)
        summary[f"fraction_above_{c}"] = above / len(ratios) if ratios else 0.0
    return _emit(config, rows, summary), rows


# ---------------------------------------------------------------------------
# tv curve and spectrum
# ---------------------------------------------------------------------------

def _t_grid_triple(text: str) -> tuple[float, float, int]:
    """Parse and check "lo:hi:points" without building the grid."""
    message = f"--t-grid must be lo:hi:points with 0 < lo < hi and points >= 2, got {text!r}"
    try:
        lo, hi, pts = text.split(":")
        lo, hi, pts = float(lo), float(hi), int(pts)
    except ValueError:
        raise ValueError(message) from None
    if not 0 < lo < hi < math.inf or pts < 2:
        raise ValueError(message)
    return lo, hi, pts


def _parse_t_grid(text: str) -> np.ndarray:
    """Parse "lo:hi:points" into a log-spaced grid."""
    return np.geomspace(*_t_grid_triple(text))


def default_t_grid(n: int, k: int, model: str) -> np.ndarray:
    """60 log-spaced times bracketing the cutoff window [t_-3, t_3]."""
    sol = entropic.solve_times(n, k, model, alphas=(-3.0, 3.0))
    lo = 0.5 * sol.t_alpha[-3.0]
    if lo <= 0:  # t_{-3} clamped at the t = 0 boundary
        lo = 0.02 * sol.t0
    return np.geomspace(lo, 2.0 * sol.t_alpha[3.0], 60)


def _curve_worker(r: int, payload: dict) -> list[dict]:
    _, spec, gaps, head = _instance(payload["config"], r)
    grid = [float(t) for t in payload["grid"]]
    return [{**head, "t": t, "tv": tv, "l2_bound": spectral.l2_bound(spec, t),
             "gamma": gaps.gamma}
            for t, tv in zip(grid, _tv_at(spec, grid))]


def run_tv_curve(config: ExperimentConfig) -> tuple[str, list[dict]]:
    group = config.group()
    if config.t_grid:  # priced from its point count before the grid is built
        _budget_check(config, group.n, _t_grid_triple(config.t_grid)[2])
        grid = _parse_t_grid(config.t_grid)
    else:
        grid = default_t_grid(group.n, config.k, config.model)
        _budget_check(config, group.n, len(grid))
    payload = {"config": config, "grid": grid}
    rows = [row for part in _map_replicates(config, _curve_worker, payload) for row in part]
    return _emit(config, rows), rows


def run_spectrum(config: ExperimentConfig) -> tuple[str, list[dict]]:
    _budget_check(config, config.group().n, 0, replicates=1)
    _, spec, gaps, head = _instance(config, 0)
    rows = [
        {"index": i, "instance_digest": head["instance_digest"],
         "re": float(lam.real), "im": float(lam.imag)}
        for i, lam in enumerate(spec.eigenvalues)
    ]
    summary = {"gamma": gaps.gamma, "gamma_star": gaps.gamma_star,
               "t_rel": gaps.t_rel, "connected": gaps.connected}
    return _emit(config, rows, summary), rows


def _cheeger_worker(r: int, payload: dict) -> dict:
    Z, spec, gaps, head = _instance(payload["config"], r)
    lo, hi = spectral.cheeger_bounds(gaps) if gaps.connected else (0.0, 0.0)
    return {**head, "connected": gaps.connected, "gamma": gaps.gamma,
            "cheeger": spectral.cheeger_exact(spec.group, Z),
            "cheeger_low": lo, "cheeger_high": hi}


def run_cheeger(config: ExperimentConfig) -> tuple[str, list[dict]]:
    rows = _map_replicates(config, _cheeger_worker, {"config": config})
    return _emit(config, rows), rows


# ---------------------------------------------------------------------------
# entropic report and verify
# ---------------------------------------------------------------------------

def run_entropic_report(config: ExperimentConfig) -> tuple[str, list[dict]]:
    group = config.group()
    alphas = config.alphas or (-1.0, 0.0, 1.0)
    sol = entropic.solve_times(group.n, config.k, config.model, alphas=alphas)
    asym = entropic.asymptotic_times(group.n, config.k, config.model)
    record = {
        "n": sol.n, "k": sol.k, "model": sol.model,
        "t0": sol.t0, "v": sol.v, "omega": sol.omega,
        "t_alpha": {f"{a:g}": t for a, t in sorted(sol.t_alpha.items())},
        "asymptotic": {
            "regime": asym.regime, "kappa": asym.kappa,
            "predicted_t0": asym.predicted_t0,
            "predicted_window": asym.predicted_window,
            "solver_t0": asym.solver_t0, "relative_gap": asym.relative_gap,
        },
    }
    # the report is JSON whatever --format says, and its digest says so too
    return _write(config, render_json(replace(config, fmt="json"), [record])), [record]


def run_verify(config: ExperimentConfig, extra_checks: dict | None = None
               ) -> tuple[str, int]:
    reports = lemmas.run_all(only=config.only, extra_checks=extra_checks)
    width = max(len(r.name) for r in reports)
    lines = [f"# {TOOL_VERSION} config={config.digest()}"]
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        lines.append(f"{rep.name:<{width}}  {status}  max_violation={rep.max_violation:.3g}"
                     f"  {rep.worst_case}")
    failures = sum(not r.passed for r in reports)
    lines.append(f"{len(reports)} checks, {failures} failures")
    return _write(config, "\n".join(lines) + "\n"), (1 if failures else 0)


RUNNERS = {
    "cutoff-profile": run_cutoff_profile,
    "gap-scan": run_gap_scan,
    "tv-curve": run_tv_curve,
    "spectrum": run_spectrum,
    "cheeger": run_cheeger,
    "entropic": run_entropic_report,
}
