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
from dataclasses import dataclass, field, asdict

import numpy as np

from . import entropic, lemmas, spectral, walk
from .groups import (GeneratorMultiset, GroupSpec, make_group, parse_group,
                     replicate_rng, sample_generators)

TOOL_VERSION = "cayley-cutoff 0.1.0"

#: refuse runs estimated over this many DFT butterfly-equivalents without force.
BUDGET_LIMIT = 10 ** 9


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
    samples: int = 1000
    base_seed: int = 0
    out: str | None = None
    fmt: str = "csv"
    only: str | None = None
    force: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")

    def group(self) -> GroupSpec:
        return make_group(self.moduli)

    def digest(self) -> str:
        payload = {k: v for k, v in asdict(self).items() if k not in ("out", "jobs")}
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ExperimentRecord:
    replicate: int
    seed: int
    instance_digest: str
    observables: dict[str, float] = field(default_factory=dict)


def _instance_digest(Z: GeneratorMultiset) -> str:
    blob = json.dumps([list(z) for z in Z.generators])
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


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


def render_csv(config: ExperimentConfig, columns, rows) -> str:
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


def _emit(config: ExperimentConfig, columns, rows, summary=None) -> str:
    if config.fmt == "csv":
        text = render_csv(config, columns, rows)
        if summary:
            srows = summary if isinstance(summary, list) else [summary]
            for srow in srows:
                text += "# summary " + json.dumps(srow, sort_keys=True,
                                                  default=_fmt_value) + "\n"
    else:
        text = render_json(config, rows, summary)
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


def _budget_check(config: ExperimentConfig, n: int, transforms_per_replicate: int):
    """Price each replicate as its spectrum transform plus its row transforms."""
    work = (config.replicates * (transforms_per_replicate + 1)
            * n * max(math.log2(n), 1.0))
    if work > BUDGET_LIMIT and not config.force:
        raise BudgetExceededError(
            f"estimated {work:.3g} butterfly-equivalents exceeds {BUDGET_LIMIT:g}; "
            "pass --force to override")


# ---------------------------------------------------------------------------
# cutoff profile
# ---------------------------------------------------------------------------

def _cutoff_worker(r: int, payload: dict) -> dict:
    config: ExperimentConfig = payload["config"]
    group = config.group()
    t_alpha: dict[float, float] = payload["t_alpha"]
    rng = replicate_rng(config.base_seed, r)
    Z = sample_generators(group, config.k, rng)
    spec = spectral.eigenvalues(group, Z, config.model)
    gaps = spectral.gap_summary(spec)
    row = {
        "replicate": r,
        "seed": config.base_seed,
        "instance_digest": _instance_digest(Z),
        "connected": gaps.connected,
    }
    for alpha, t in sorted(t_alpha.items()):
        tv = spectral.tv_exact(spectral.heat_kernel_row(spec, t))
        row[f"tv_alpha_{alpha:g}"] = tv
    return row


def run_cutoff_profile(config: ExperimentConfig) -> tuple[str, list[dict]]:
    group = config.group()
    if config.k < group.d:
        raise ValueError("need k >= d for a connectable instance")
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
    columns = ["replicate", "seed", "instance_digest", "connected"] + [
        f"tv_alpha_{a:g}" for a in sorted(sol.t_alpha)]
    return _emit(config, columns, rows, summary), rows


# ---------------------------------------------------------------------------
# gap scan
# ---------------------------------------------------------------------------

def _gap_worker(r: int, payload: dict) -> dict:
    config: ExperimentConfig = payload["config"]
    group = config.group()
    rng = replicate_rng(config.base_seed, r)
    Z = sample_generators(group, config.k, rng)
    spec = spectral.eigenvalues(group, Z, config.model)
    gaps = spectral.gap_summary(spec)
    scale = group.n ** (2.0 / config.k)
    return {
        "replicate": r,
        "seed": config.base_seed,
        "instance_digest": _instance_digest(Z),
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
    columns = ["replicate", "seed", "instance_digest", "connected", "gamma",
               "gamma_star", "t_rel", "t_rel_over_scale"]
    return _emit(config, columns, rows, summary), rows


# ---------------------------------------------------------------------------
# tv curve and spectrum
# ---------------------------------------------------------------------------

def _parse_t_grid(spec_str: str) -> np.ndarray:
    """Parse "lo:hi:points" into a log-spaced grid."""
    lo, hi, pts = spec_str.split(":")
    lo, hi, pts = float(lo), float(hi), int(pts)
    if lo <= 0 or hi <= lo or pts < 2:
        raise ValueError("t-grid must be lo:hi:points with 0 < lo < hi")
    return np.geomspace(lo, hi, pts)


def default_t_grid(n: int, k: int, model: str) -> np.ndarray:
    """60 log-spaced times bracketing the cutoff window [t_-3, t_3]."""
    sol = entropic.solve_times(n, k, model, alphas=(-3.0, 3.0))
    lo = 0.5 * sol.t_alpha[-3.0]
    if lo <= 0:  # t_{-3} clamped at the t = 0 boundary
        lo = 0.02 * sol.t0
    return np.geomspace(lo, 2.0 * sol.t_alpha[3.0], 60)


def run_tv_curve(config: ExperimentConfig) -> tuple[str, list[dict]]:
    group = config.group()
    if config.t_grid:
        grid = _parse_t_grid(config.t_grid)
    else:
        grid = default_t_grid(group.n, config.k, config.model)
    _budget_check(config, group.n, len(grid))
    rows = []
    for r in range(config.replicates):
        rng = replicate_rng(config.base_seed, r)
        Z = sample_generators(group, config.k, rng)
        spec = spectral.eigenvalues(group, Z, config.model)
        gaps = spectral.gap_summary(spec)
        digest = _instance_digest(Z)
        for t in grid:
            tv = spectral.tv_exact(spectral.heat_kernel_row(spec, float(t)))
            rows.append({
                "replicate": r,
                "seed": config.base_seed,
                "instance_digest": digest,
                "t": float(t),
                "tv": tv,
                "l2_bound": spectral.l2_bound(spec, float(t)),
                "gamma": gaps.gamma,
            })
    columns = ["replicate", "seed", "instance_digest", "t", "tv", "l2_bound", "gamma"]
    return _emit(config, columns, rows), rows


def run_spectrum(config: ExperimentConfig) -> tuple[str, list[dict]]:
    group = config.group()
    _budget_check(config, group.n, 0)
    rng = replicate_rng(config.base_seed, 0)
    Z = sample_generators(group, config.k, rng)
    spec = spectral.eigenvalues(group, Z, config.model)
    digest = _instance_digest(Z)
    rows = [
        {"index": i, "instance_digest": digest,
         "re": float(lam.real), "im": float(lam.imag)}
        for i, lam in enumerate(spec.eigenvalues)
    ]
    gaps = spectral.gap_summary(spec)
    summary = {"gamma": gaps.gamma, "gamma_star": gaps.gamma_star,
               "t_rel": gaps.t_rel, "connected": gaps.connected}
    return _emit(config, ["index", "instance_digest", "re", "im"], rows, summary), rows


def run_cheeger(config: ExperimentConfig) -> tuple[str, list[dict]]:
    group = config.group()
    rows = []
    for r in range(config.replicates):
        rng = replicate_rng(config.base_seed, r)
        Z = sample_generators(group, config.k, rng)
        spec = spectral.eigenvalues(group, Z, config.model)
        gaps = spectral.gap_summary(spec)
        phi = spectral.cheeger_exact(group, Z)
        row = {
            "replicate": r,
            "seed": config.base_seed,
            "instance_digest": _instance_digest(Z),
            "connected": gaps.connected,
            "gamma": gaps.gamma,
            "cheeger": phi,
        }
        if gaps.connected:
            lo, hi = spectral.cheeger_bounds(gaps)
            row["cheeger_low"] = lo
            row["cheeger_high"] = hi
        else:
            row["cheeger_low"] = 0.0
            row["cheeger_high"] = 0.0
        rows.append(row)
    columns = ["replicate", "seed", "instance_digest", "connected", "gamma",
               "cheeger", "cheeger_low", "cheeger_high"]
    return _emit(config, columns, rows), rows


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
    cfg = config if config.fmt == "json" else ExperimentConfig(
        **{**asdict(config), "fmt": "json"})
    text = render_json(cfg, [record])
    if config.out:
        with open(config.out, "w", newline="") as fh:
            fh.write(text)
    return text, [record]


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
    text = "\n".join(lines) + "\n"
    if config.out:
        with open(config.out, "w", newline="") as fh:
            fh.write(text)
    return text, (1 if failures else 0)


RUNNERS = {
    "cutoff-profile": run_cutoff_profile,
    "gap-scan": run_gap_scan,
    "tv-curve": run_tv_curve,
    "spectrum": run_spectrum,
    "cheeger": run_cheeger,
    "entropic": run_entropic_report,
}
