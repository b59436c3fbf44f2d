"""Experiment orchestration: cutoff profiles, gap scans, TV curves, reports.

Every experiment is driven by an ExperimentConfig with a mandatory base seed;
replicate r draws from the counter-based stream (base_seed, r), so output is
byte-identical across reruns and across serial/parallel execution.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__, entropic, lemmas, spectral, walk
from .groups import GroupSpec, make_group, replicate_rng, sample_generators

TOOL_VERSION = f"cayley-cutoff {__version__}"

#: refuse runs estimated over this many DFT butterfly-equivalents without force.
BUDGET_LIMIT = 10 ** 9

#: refuse runs that draw more than this many generator coordinates (replicates
#: k d) without force.  A replicate's work in k is about 1 us per coordinate at
#: d = 1, nearly all of it the instance digest (2-core Xeon: 3.0 s and 465 MB
#: peak RSS at Z_5, k = 4 10^6), so this cap is some seconds, as BUDGET_LIMIT is.
GENERATOR_LIMIT = 4 * 10 ** 6

#: Fewest elements of a group whose replicates, in one process, run on the
#: `spectral._fft_workers()` threads (below LONG_AXIS; from CHIRP_AXIS on, each
#: thread transforms in its own kept four-step buffer).  Median of 3, 2 cores,
#: serial against threads: gap scans 0.84 -> 1.89 s at n = 1009 (Python that
#: holds the GIL), 0.35 -> 0.53 s at 4099, 0.38 -> 0.34 s at 8209, 0.73 -> 0.41 s
#: at 16411; cutoff profiles 1.6-2.0x faster from 16411 to 100003 and on 256^2.
SHORT_GROUP = 2 ** 14

#: The end of the band of groups whose replicates `_map_replicates` runs on
#: threads; a longer group runs each of its passes on every core.  It bounds
#: memory: past it, threads save little wall and cost a third more peak RSS.
#: Whole `cutoff-profile --k 14 --model directed --replicates 4` processes, 2
#: cores, median of 9 alternating, threads (the band's end moved past n)
#: against serial: 0.95 against 1.04 s and 158 against 122 MB at n = 524309,
#: 1.61 against 1.65 s and 246 against 177 MB at n = 1000003.
LONG_AXIS = 2 ** 18


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
    base_seed: int | None = None
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
            if self.only not in (None, lemmas.SELF_TEST, *lemmas.DEFAULT_CHECKS):
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
        return _digest({k: v for k, v in asdict(self).items() if k not in ("out", "jobs")})


def _digest(obj) -> str:
    """The first 12 hex digits of the sha256 of obj as sorted-key JSON."""
    blob = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _instance(config: ExperimentConfig, r: int):
    """Replicate r: its generators Z, spectrum, gaps, and the row head naming it."""
    group = config.group()
    Z = sample_generators(group, config.k, replicate_rng(config.base_seed, r))
    spec = spectral.eigenvalues(group, Z, config.model)
    head = {"replicate": r, "seed": config.base_seed,
            "instance_digest": _digest(Z.generators.tolist())}
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
        return format(v, ".17g")
    return str(v)


def _csv_quote(s: str) -> str:
    if any(c in s for c in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _emit(config: ExperimentConfig, rows, summary=None) -> str:
    """Render rows, and a summary, as config.fmt; write them to --out and return them.

    CSV: a header comment, the keys of the first row as columns, one line per
    row, then one `# summary` line per summary entry if the summary is truthy.
    JSON: a meta line, one object per row, then one {"summary": ...} line if
    the summary is not None.
    """
    def dump(obj) -> str:
        return json.dumps(obj, sort_keys=True, default=_fmt_value)

    if config.fmt == "csv":
        columns = list(rows[0])
        lines = [f"# {TOOL_VERSION} config={config.digest()}",
                 ",".join(_csv_quote(c) for c in columns)]
        lines += [",".join(_csv_quote(_fmt_value(row[c])) for c in columns) for row in rows]
        if summary:
            lines += ["# summary " + dump(s)
                      for s in (summary if isinstance(summary, list) else [summary])]
    else:
        lines = [dump({"meta": {"tool": TOOL_VERSION, "config_digest": config.digest()}})]
        lines += [dump(row) for row in rows]
        if summary is not None:
            lines.append(dump({"summary": summary}))
    return _write(config, "\n".join(lines) + "\n")


def _write(config: ExperimentConfig, text: str) -> str:
    """Write text to --out when one is given; return it either way."""
    if config.out:
        with open(config.out, "w", newline="") as fh:
            fh.write(text)
    return text


def _map_replicates(config: ExperimentConfig, fn, *args) -> list:
    """Run fn(config, *args, r) for each replicate r; return the results in
    replicate order, whatever order they complete in.

    With min(jobs, replicates, CPUs) > 1 they run in that many processes.  Fork
    starts every worker on the first submit, and each gets one block of
    ceil(replicates / workers) replicates, one round trip per block rather than
    per replicate.  Otherwise a group of SHORT_GROUP to LONG_AXIS elements runs
    its replicates as one-replicate leaves of `spectral._in_leaves`, one
    contiguous run of them per `spectral._fft_workers()` thread (numpy and
    pocketfft release the GIL; a replicate thread runs each pass's leaves of
    `spectral._leaves` serially); a run stops at its first exception, and the
    first in replicate order propagates.  Anything else runs serially.
    """
    work = functools.partial(fn, config, *args)
    indices = range(config.replicates)
    workers = min(config.jobs, config.replicates, len(os.sched_getaffinity(0)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, indices, chunksize=-(-config.replicates // workers)))
    if not SHORT_GROUP <= config.group().n < LONG_AXIS:
        return [work(r) for r in indices]
    return spectral._in_leaves(lambda r, _, __: work(r), [(r, r + 1) for r in indices])


def _budget_check(config: ExperimentConfig, rows: int, scan: float = 0):
    """Price each of `config.replicates` replicates as the transforms it runs:
    one for its spectrum and `spectral.row_pairs(rows)` for its `rows`
    heat-kernel rows.  A transform of n points costs n log2 n
    butterfly-equivalents; `scan` adds as many per replicate for other work
    (cheeger's subset comparisons).  Its generators are priced apart, before
    any is drawn: k of d coordinates each, against GENERATOR_LIMIT."""
    group = config.group()
    coordinates = config.replicates * config.k * group.d
    work = (config.replicates * (1 + spectral.row_pairs(rows)) * group.n
            * max(math.log2(group.n), 1.0))
    work += config.replicates * scan
    if coordinates > GENERATOR_LIMIT and not config.force:
        raise BudgetExceededError(
            f"--k: drawing {coordinates:.3g} generator coordinates (replicates x k x d) "
            f"exceeds {GENERATOR_LIMIT:g}; lower --k or pass --force to override")
    if work > BUDGET_LIMIT and not config.force:
        raise BudgetExceededError(
            f"estimated {work:.3g} butterfly-equivalents exceeds {BUDGET_LIMIT:g}; "
            "pass --force to override")


# ---------------------------------------------------------------------------
# cutoff profile
# ---------------------------------------------------------------------------

def _cutoff_worker(config: ExperimentConfig, t_alpha: dict[float, float], r: int) -> dict:
    _, spec, gaps, head = _instance(config, r)
    row = {**head, "connected": gaps.connected}
    for alpha, tv in zip(t_alpha, spectral.tv_at(spec, list(t_alpha.values()))):
        row[f"tv_alpha_{alpha:g}"] = tv
    return row


def run_cutoff_profile(config: ExperimentConfig) -> tuple[str, list[dict]]:
    alphas = config.alphas or (-1.5, 0.0, 1.5)
    _budget_check(config, len(alphas))
    sol = entropic.solve_times(config.group().n, config.k, config.model, alphas=sorted(alphas))
    rows = _map_replicates(config, _cutoff_worker, sol.t_alpha)
    summary = []
    for alpha, t in sol.t_alpha.items():
        vals = [row[f"tv_alpha_{alpha:g}"] for row in rows]
        summary.append({
            "alpha": alpha,
            "t_alpha": t,
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

def _gap_worker(config: ExperimentConfig, r: int) -> dict:
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
    _budget_check(config, 0)
    rows = _map_replicates(config, _gap_worker)
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


def default_t_grid(n: int, k: int, model: str) -> np.ndarray:
    """60 log-spaced times bracketing the cutoff window [t_-3, t_3]."""
    sol = entropic.solve_times(n, k, model, alphas=(-3.0, 3.0))
    lo = 0.5 * sol.t_alpha[-3.0]
    if lo <= 0:  # t_{-3} clamped at the t = 0 boundary
        lo = 0.02 * sol.t0
    return np.geomspace(lo, 2.0 * sol.t_alpha[3.0], 60)


def _curve_worker(config: ExperimentConfig, grid: np.ndarray, r: int) -> list[dict]:
    _, spec, gaps, head = _instance(config, r)
    grid = [float(t) for t in grid]
    return [{**head, "t": t, "tv": tv, "l2_bound": l2, "gamma": gaps.gamma}
            for t, tv, l2 in zip(grid, spectral.tv_at(spec, grid), spectral.l2_bound(spec, grid))]


def run_tv_curve(config: ExperimentConfig) -> tuple[str, list[dict]]:
    if config.t_grid:  # priced from its point count before the grid is built
        lo, hi, points = _t_grid_triple(config.t_grid)
        _budget_check(config, points)
        grid = np.geomspace(lo, hi, points)
    else:
        grid = default_t_grid(config.group().n, config.k, config.model)
        _budget_check(config, len(grid))
    rows = [row for part in _map_replicates(config, _curve_worker, grid) for row in part]
    return _emit(config, rows), rows


def run_spectrum(config: ExperimentConfig) -> tuple[str, list[dict]]:
    _budget_check(replace(config, replicates=1), 0)
    _, spec, gaps, head = _instance(config, 0)
    rows = [
        {"index": i, "instance_digest": head["instance_digest"],
         "re": float(lam.real), "im": float(lam.imag)}
        for i, lam in enumerate(spec.eigenvalues)
    ]
    summary = {"gamma": gaps.gamma, "gamma_star": gaps.gamma_star,
               "t_rel": gaps.t_rel, "connected": gaps.connected}
    return _emit(config, rows, summary), rows


def _cheeger_worker(config: ExperimentConfig, r: int) -> dict:
    Z, spec, gaps, head = _instance(config, r)
    lo, hi = spectral.cheeger_bounds(gaps) if gaps.connected else (0.0, 0.0)
    return {**head, "connected": gaps.connected, "gamma": gaps.gamma,
            "cheeger": spectral.cheeger_exact(spec.group, Z),
            "cheeger_low": lo, "cheeger_high": hi}


def run_cheeger(config: ExperimentConfig) -> tuple[str, list[dict]]:
    # `spectral.cheeger_exact` compares the n vertices of each of 2^n subsets
    # across each of k generators
    n = config.group().n
    _budget_check(config, 0, scan=config.k * 2 ** n * n)
    rows = _map_replicates(config, _cheeger_worker)
    return _emit(config, rows), rows


# ---------------------------------------------------------------------------
# entropic report and verify
# ---------------------------------------------------------------------------

def run_entropic_report(config: ExperimentConfig) -> tuple[str, list[dict]]:
    alphas = config.alphas or (-1.0, 0.0, 1.0)
    sol = entropic.solve_times(config.group().n, config.k, config.model, alphas=alphas)
    record = {**asdict(sol),
              "t_alpha": {f"{a:g}": t for a, t in sorted(sol.t_alpha.items())},
              "asymptotic": asdict(entropic.asymptotic_times(sol))}
    # the report is JSON whatever --format says, and its digest says so too
    return _emit(replace(config, fmt="json"), [record]), [record]


def run_verify(config: ExperimentConfig, self_test: bool = False) -> tuple[str, int]:
    reports = lemmas.run_all(only=config.only, self_test=self_test)
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
