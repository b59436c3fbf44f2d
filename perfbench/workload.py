"""Workload process: runs one benchmark workload through cayley_cutoff's public API.

Started by run.py with src/ on PYTHONPATH and the thread variables pinned; import
time is excluded from every timing.  `--trace 0` repeats the workload while the
next repeat fits in `--seconds` and reports the median wall time.  `--trace 1`
runs it once plainly and once with every public function wrapped by a span
tracer, and reports per-layer totals plus the tracing overhead.  Prints one JSON
line for the launcher.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import cayley_cutoff
from cayley_cutoff import cli, groups, walk

import gate
from run import DEFAULT_SEEDS, SRC, THREAD_VARS, WORKLOADS, cli_args
from spans import Tracer, instrumented

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class PassResult:
    """One run of a workload: timed wall, operations attempted, gate failures."""

    wall_s: float
    attempted: int
    failures: list[str] = field(default_factory=list)
    output_bytes: int = 0
    #: ru_maxrss read right after the timed calls, before the gate allocates
    peak_rss_mb: float = 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def timed(fn):
    """(seconds, result) of fn(); result is None when fn raised."""
    start = perf_counter()
    try:
        result = fn()
    except Exception:
        traceback.print_exc()
        result = None
    return perf_counter() - start, result


def csv_pass(workload: str, check, attempted: int, seed: int, out_dir: Path, params: dict,
             reference: dict | None) -> PassResult:
    """Time one CLI command that writes a CSV, then gate the file."""
    out = out_dir / f"{workload}.csv"
    wall, status = timed(lambda: call_cli(cli_args(workload, seed, params) + ["--out", str(out)]))
    result = PassResult(wall, attempted, peak_rss_mb=peak_rss_mb())
    if status is None:
        result.failures = [f"{workload} command raised"] * attempted
    else:
        result.failures = check(out, seed, params, reference)
        result.output_bytes = out.stat().st_size
    return result


def profile_pass(seed: int, out_dir: Path, params: dict, reference: dict | None) -> PassResult:
    return csv_pass("profile", gate.check_profile, params["replicates"],
                    seed, out_dir, params, reference)


def curve_pass(seed: int, out_dir: Path, params: dict, reference: dict | None) -> PassResult:
    return csv_pass("curve", gate.check_curve, params["t_grid"][2],
                    seed, out_dir, params, reference)


def montecarlo_pass(seed: int, out_dir: Path, params: dict, reference: dict) -> PassResult:
    out = out_dir / "verify.txt"
    wall, verified = timed(
        lambda: call_cli(cli_args("montecarlo", seed, params) + ["--out", str(out)]))
    probes = []
    for j, (name, alpha) in enumerate(params["probes"]):
        # looked up at call time, so a traced pass reaches the wrappers
        seconds, estimate = timed(lambda: getattr(walk, name)(
            params["n"], params["k"], params["model"], alpha, params["samples"],
            groups.replicate_rng(seed, j)))
        wall += seconds
        probes.append((name, alpha, estimate))
    result = PassResult(wall, len(reference["checks"]) + len(probes), peak_rss_mb=peak_rss_mb())
    if verified is None:
        result.failures += ["verify raised"] * len(reference["checks"])
    else:
        result.failures += gate.check_verify(out.read_text(), verified[0], reference["checks"])
        result.output_bytes = out.stat().st_size
    for (name, alpha, estimate), ref in zip(probes, reference["probes"]):
        if estimate is None:
            result.failures.append(f"{name}(alpha={alpha:g}) raised")
        else:
            result.failures += gate.check_probe(estimate, ref, params["samples"])
    return result


PASSES = {"profile": profile_pass, "curve": curve_pass, "montecarlo": montecarlo_pass}


def negative_control(seed: int, out_dir: Path) -> bool:
    """A verify run forced to fail must read as exactly one failed operation."""
    out = out_dir / "control.txt"
    status, _ = call_cli(["verify", "--seed", str(seed), "--only", "self_test",
                          "--self-test-fail", "--out", str(out)])
    return len(gate.check_verify(out.read_text(), status, ["self_test"])) == 1


def load_reference(workload: str, seed: int) -> dict | None:
    """The stored reference; profile and curve compare against it only at the default seed."""
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        reference = json.load(fh)
    if workload != "montecarlo" and seed != reference["seed"]:
        return None
    return reference


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _observe_eigenvalues(counts, args, result):
    counts["spectral.eigenvalues.terms"] += args["group"].n * args["Z"].k


def _observe_heat_kernel_row(counts, args, result):
    counts["spectral.heat_kernel_row.points"] += result.probs.size
    counts["spectral.heat_kernel_row.bytes_computed"] += (
        args["spec"].eigenvalues.nbytes + result.probs.nbytes)


def _observe_modified_l2(counts, args, result):
    counts["lemmas.modified_l2.accept_ratio"] = result.details["rejection_efficiency"]


OBSERVERS = {"spectral.eigenvalues": _observe_eigenvalues,
             "spectral.heat_kernel_row": _observe_heat_kernel_row,
             "lemmas.modified_l2_probe": _observe_modified_l2}

#: span name -> reported statistics; every workload reports every name (0 when idle).
SPAN_STATS = {
    "groups.sample_generators": ("s", "calls"),
    "spectral.eigenvalues": ("s", "self_s", "calls"),
    "spectral.heat_kernel_row": ("s", "self_s", "calls"),
    "spectral.tv_exact": ("s", "self_s", "calls"),
    "spectral.l2_bound": ("s", "calls"),
    "spectral.gap_summary": ("s", "calls"),
    "entropic.solve_times": ("s", "calls"),
    "entropic.entropy": ("calls",),
    "entropic.step_distribution": ("s", "calls"),
    "walk.clt_probe": ("s", "calls"),
    "walk.typicality_probe": ("s", "calls"),
    "walk.typicality_params": ("s", "calls"),
    "experiments.run_cutoff_profile": ("self_s",),
    "experiments.run_tv_curve": ("self_s",),
    "experiments.run_verify": ("self_s",),
}
COUNT_UNITS = {"spectral.eigenvalues.terms": "count",
               "spectral.heat_kernel_row.points": "count",
               "spectral.heat_kernel_row.bytes_computed": "bytes",
               "lemmas.modified_l2.accept_ratio": "ratio"}


def layer_metrics(tracer: Tracer, check_names, traced: PassResult,
                  untraced: PassResult) -> dict[str, list]:
    totals = tracer.totals()
    stats = dict(SPAN_STATS)
    stats.update({f"lemmas.{name}": ("s",) for name in check_names})
    metrics = {}
    for span, wanted in stats.items():
        entry = totals.get(span, {"s": 0.0, "self_s": 0.0, "calls": 0})
        for stat in wanted:
            metrics[f"{span}.{stat}"] = [entry[stat], "count" if stat == "calls" else "s"]
    for name, unit in COUNT_UNITS.items():
        metrics[name] = [tracer.counts.get(name, 0), unit]
    metrics["experiments.output_bytes"] = [traced.output_bytes, "bytes"]
    metrics["trace.overhead_s"] = [traced.wall_s - untraced.wall_s, "s"]
    return metrics


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment() -> dict:
    config = np.show_config(mode="dicts")
    deps = config.get("Build Dependencies", {})
    fft = getattr(np.fft, "_pocketfft_umath", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: deps.get("blas", {}).get(key)
                 for key in ("name", "version", "openblas configuration")},
        "lapack": deps.get("lapack", {}).get("name"),
        "fft": f"numpy.fft ({fft.__name__})" if fft else "numpy.fft",
        "simd": config.get("SIMD Extensions", {}),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    package = Path(cayley_cutoff.__file__).resolve()
    if SRC.resolve() not in package.parents:
        raise SystemExit(f"cayley_cutoff imported from {package}, not from {SRC}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    run_pass = PASSES[args.workload]
    params = WORKLOADS[args.workload]
    reference = load_reference(args.workload, seed)

    def once() -> PassResult:
        gc.collect()
        return run_pass(seed, args.out_dir, params, reference)

    layers = {}
    if args.trace:
        untraced = once()
        tracer = Tracer(f"{args.workload}-seed{seed}-pid{os.getpid()}", OBSERVERS)
        with instrumented(tracer):
            traced = once()
        if args.trace_file:
            tracer.write(args.trace_file)
        checks = load_reference("montecarlo", seed)["checks"]
        layers = layer_metrics(tracer, checks, traced, untraced)
        results = [untraced, traced]
    else:
        deadline = perf_counter() + args.seconds
        results, durations = [], []
        while True:
            start = perf_counter()
            results.append(once())
            durations.append(perf_counter() - start)
            if perf_counter() + statistics.median(durations) > deadline:
                break
    control = None
    if args.workload == "montecarlo":
        control = "detected" if negative_control(seed, args.out_dir) else "missed"
    failures = [msg for r in results for msg in r.failures]
    print(json.dumps({
        # a traced pass is not a timing: wall_s comes from untraced passes only
        "wall_s": statistics.median(r.wall_s for r in (results[:1] if args.trace else results)),
        "peak_rss_mb": results[0].peak_rss_mb,
        "attempted": sum(r.attempted for r in results),
        "failed": len(failures),
        "failures": failures[:20],
        "negative_control": control,
        "environment": environment(),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
