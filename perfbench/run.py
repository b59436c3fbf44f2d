"""Benchmark launcher for cayley-cutoff: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload profile [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from `src/` next to
this directory, never from an installed copy.  The launcher

1. times `setup_s`: fresh interpreters that import `cayley_cutoff.cli` and
   build the workload's config (one warm-up spawn, then the median of
   SETUP_REPEATS);
2. starts one workload process (`workload.py`) with the BLAS/OpenMP thread
   variables pinned to 1, which runs the workload, gates every output and
   reports its own peak RSS;
3. with `--trace 1`, also takes cumulative import times from `-X importtime`;
4. prints an environment record, a table of every metric with its unit, and
   as the last line one JSON object: correct, attempted, failed, metrics.

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Workload sizes.  profile is the README's headline cutoff-profile command
# (spectrum-bound); curve brackets [t_-3, t_3] at n ~ 1e6 with the directed
# model (FFT- and reduction-bound); montecarlo is the lemma suite plus the
# nominal-scale CLT/typicality probes (sampler-bound, spectral code idle).
PROFILE = {"moduli": [100003], "k": 400, "model": "undirected",
           "alphas": [-1.5, 0.0, 1.5], "replicates": 20}
CURVE = {"moduli": [1000003], "k": 14, "model": "directed", "t_grid": [0.9, 45.0, 24]}
MONTECARLO = {"verify_only": None, "n": 10 ** 6, "k": 10 ** 4, "model": "undirected",
              "samples": 300000,
              "probes": [["clt_probe", 0.0], ["typicality_probe", 0.0],
                         ["clt_probe", 1.5], ["typicality_probe", 1.5]]}
WORKLOADS = {"profile": PROFILE, "curve": CURVE, "montecarlo": MONTECARLO}

#: profile and curve seed the generator draws; montecarlo seeds the probes (its
#: `verify --seed` only changes the config digest, the lemma streams are fixed).
DEFAULT_SEEDS = {"profile": 1, "curve": 7, "montecarlo": 20260601}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
#: the workload process must finish well inside the 180 s a run may take.
WORKLOAD_TIMEOUT_S = 150
#: per-layer import metric -> module prefix in `-X importtime` output.
IMPORT_METRICS = {"setup.import.cayley_cutoff_s": "cayley_cutoff",
                  "setup.import.scipy.stats_s": "scipy.stats",
                  "setup.import.scipy.optimize_s": "scipy.optimize",
                  "setup.import.numpy_s": "numpy"}
SETUP_CODE = ("import sys, cayley_cutoff.cli as cli; "
              "cli.make_config(cli.build_parser().parse_args(sys.argv[1:]))")


def cli_args(workload: str, seed: int, params: dict) -> list[str]:
    """The cayley-cutoff command line a workload runs (montecarlo: its verify part)."""
    if workload == "profile":
        return ["cutoff-profile", "--group", ",".join(map(str, params["moduli"])),
                "--k", str(params["k"]), "--model", params["model"], "--seed", str(seed),
                "--alpha=" + ",".join(f"{a:g}" for a in params["alphas"]),
                "--replicates", str(params["replicates"])]
    if workload == "curve":
        lo, hi, points = params["t_grid"]
        return ["tv-curve", "--group", ",".join(map(str, params["moduli"])),
                "--k", str(params["k"]), "--model", params["model"], "--seed", str(seed),
                "--t-grid", f"{lo:g}:{hi:g}:{points}"]
    only = params["verify_only"]
    return ["verify", "--seed", str(seed)] + (["--only", only] if only else [])


def workload_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def time_setup(argv: list[str], env: dict) -> float:
    """Median wall time of a fresh interpreter that imports the CLI and builds the config."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):  # the first spawn may compile bytecode
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples[1:])


def parse_importtime(text: str, prefixes) -> dict[str, float]:
    """Cumulative seconds per module prefix, counting only its outermost imports."""
    entries = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)\s*$", line)
        if m:
            entries.append((len(m.group(2)), m.group(3), int(m.group(1))))

    def under(name, prefix):
        return name == prefix or name.startswith(prefix + ".")

    totals = {prefix: 0 for prefix in prefixes}
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative_us in reversed(entries):  # parents before children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for prefix in prefixes:
            if under(name, prefix) and not any(under(a, prefix) for _, a in ancestors):
                totals[prefix] += cumulative_us
        ancestors.append((depth, name))
    return {prefix: us / 1e6 for prefix, us in totals.items()}


def import_metrics(env: dict) -> dict:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cayley_cutoff.cli"],
                          env=env, check=True, capture_output=True, text=True, timeout=60)
    seconds = parse_importtime(proc.stderr, IMPORT_METRICS.values())
    return {name: [seconds[prefix], "s"] for name, prefix in IMPORT_METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="default: the workload's own seed")
    parser.add_argument("--seconds", type=int, default=20,
                        help="repeat the workload while the next repeat fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    if not (SRC / "cayley_cutoff" / "__init__.py").is_file():
        print(f"run.py: no cayley_cutoff sources under {SRC}; run inside a checkout",
              file=sys.stderr)
        return 2

    env = workload_env()
    out_root = ROOT / ".perfbench_out"
    out_dir = out_root / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = time_setup(cli_args(args.workload, seed, WORKLOADS[args.workload]), env)
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(out_dir),
               "--trace-file", str(out_root / f"trace-{args.workload}.jsonl")]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"run.py: workload process exited with {proc.returncode}", file=sys.stderr)
            return 1
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        layers = {**child["layers"], **import_metrics(env)} if args.trace else {}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    end_to_end = {"wall_s": [child["wall_s"], "s"], "setup_s": [setup_s, "s"],
                  "peak_rss_mb": [child["peak_rss_mb"], "MB"]}
    print(json.dumps({"environment": child["environment"]}, sort_keys=True))
    for message in child["failures"]:
        print("FAILED", message)
    control = child["negative_control"]
    print(f"{'error_rate':<44} {child['failed'] / child['attempted']:>14.6g} ratio "
          f"({child['failed']} of {child['attempted']} operations"
          + (f"; negative control {control})" if control else ")"))
    for name, (value, unit) in {**end_to_end, **layers}.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    reported = layers if args.trace else end_to_end
    print(json.dumps({
        "correct": child["failed"] == 0 and control != "missed",
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
