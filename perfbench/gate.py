"""Correctness gate for the benchmark workloads.

Each `check_*` function returns one message per failed operation (a replicate,
a t-row, a lemma check or a probe call), so a faster wrong answer is counted
as a failure and never as a gain.

Checks that hold at every seed come from an independent oracle built here with
plain numpy: the generators are drawn again from the same counter-based Philox
stream, the spectrum is `n/k * ifftn` of the generator histogram, and a row of
the heat kernel is one `fftn`.  At a workload's default seed the outputs must
also match the stored reference in `reference/`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

#: absolute tolerance on TV values; two exact spectrum routes differ by ~5e-12.
TV_TOL = 1e-9
#: relative tolerance on times, L2 bounds and gaps computed by another route.
REL_TOL = 1e-9
#: a probe estimate may sit this many combined standard errors from its reference.
PROBE_SIGMAS = 4.0


# ---------------------------------------------------------------------------
# independent oracle
# ---------------------------------------------------------------------------

def draw_generators(moduli, k: int, seed: int, replicate: int) -> list[np.ndarray]:
    """The k generators of one replicate, one coordinate array per modulus."""
    key = (int(seed) % 2 ** 64, int(replicate) % 2 ** 64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return [rng.integers(0, m, size=k) for m in moduli]


def instance_digest(cols) -> str:
    gens = [[int(c[i]) for c in cols] for i in range(len(cols[0]))]
    return hashlib.sha256(json.dumps(gens).encode()).hexdigest()[:12]


def spectrum(moduli, cols, model: str) -> np.ndarray:
    """lambda_x = (1/k) sum_i chi_x(z_i) from one inverse FFT of the histogram."""
    counts = np.zeros(tuple(moduli))
    np.add.at(counts, tuple(cols), 1.0)
    lam = (counts.size / len(cols[0])) * np.fft.ifftn(counts)
    return (lam.real if model == "undirected" else lam).reshape(-1)


def tv(lam: np.ndarray, moduli, t: float) -> float:
    n = lam.size
    weights = np.exp(-t * (1.0 - lam)).reshape(tuple(moduli))
    row = np.fft.fftn(weights).real.reshape(-1) / n
    return 0.5 * float(np.abs(row - 1.0 / n).sum())


def l2_bound(lam: np.ndarray, t: float) -> float:
    return 0.5 * math.sqrt(float(np.exp(-2.0 * t * (1.0 - lam.real[1:])).sum()))


def gap(lam: np.ndarray) -> float:
    return float((1.0 - lam.real[1:]).min())


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------

def read_csv(path) -> tuple[list[dict], list[dict]]:
    """Rows and `# summary` records of an experiment CSV."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    summary = [json.loads(line[len("# summary "):])
               for line in lines if line.startswith("# summary ")]
    body = [line for line in lines if not line.startswith("#")]
    return list(csv.DictReader(body)), summary


# ---------------------------------------------------------------------------
# workload checks
# ---------------------------------------------------------------------------

def check_profile(path, seed: int, params: dict, reference: dict | None) -> list[str]:
    """Digests exact, TV at each t_alpha within TV_TOL of the oracle (and reference)."""
    moduli, k, model = params["moduli"], params["k"], params["model"]
    alphas = [float(a) for a in params["alphas"]]
    rows, summary = read_csv(path)
    failures = []
    t_alpha = {float(s["alpha"]): float(s["t_alpha"]) for s in summary}
    if sorted(t_alpha) != sorted(alphas):
        return ["summary alphas %s != %s" % (sorted(t_alpha), alphas)] * params["replicates"]
    if reference is not None:
        for a, t_ref in reference["t_alpha"].items():
            if not _close(t_alpha[float(a)], t_ref):
                return ["t_alpha[%s] = %r != reference %r" % (a, t_alpha[float(a)], t_ref)
                        ] * params["replicates"]
    for r in range(params["replicates"]):
        row = rows[r] if r < len(rows) else None
        if row is None or int(row["replicate"]) != r or int(row["seed"]) != seed:
            failures.append(f"replicate {r}: missing or misnumbered row")
            continue
        cols = draw_generators(moduli, k, seed, r)
        lam = spectrum(moduli, cols, model)
        problems = []
        if row["instance_digest"] != instance_digest(cols):
            problems.append("digest %s != oracle" % row["instance_digest"])
        if row["connected"] != ("true" if gap(lam) > 1e-9 else "false"):
            problems.append("connected flag %s" % row["connected"])
        for a in alphas:
            value = float(row[f"tv_alpha_{a:g}"])
            expect = tv(lam, moduli, t_alpha[a])
            if not 0.0 <= value <= 1.0 or abs(value - expect) > TV_TOL:
                problems.append(f"tv_alpha_{a:g} {value!r} vs oracle {expect!r}")
        if reference is not None:
            ref = reference["rows"][r]
            if row["instance_digest"] != ref["instance_digest"]:
                problems.append("digest differs from reference")
            for a in alphas:
                col = f"tv_alpha_{a:g}"
                if abs(float(row[col]) - ref[col]) > TV_TOL:
                    problems.append(f"{col} differs from reference {ref[col]!r}")
        if problems:
            failures.append(f"replicate {r}: " + "; ".join(problems))
    return failures


def check_curve(path, seed: int, params: dict, reference: dict | None) -> list[str]:
    """TV in [0, 1], nonincreasing in t and <= l2_bound on every row, plus oracle/reference."""
    moduli, k, model = params["moduli"], params["k"], params["model"]
    lo, hi, points = params["t_grid"]
    grid = np.geomspace(lo, hi, points)
    rows, _ = read_csv(path)
    cols = draw_generators(moduli, k, seed, 0)
    lam = spectrum(moduli, cols, model)
    digest = instance_digest(cols)
    # the oracle TV costs one FFT per row, so it checks the ends and the middle
    spot = {0, points // 2, points - 1}
    failures = []
    previous = 1.0
    for i, t in enumerate(grid):
        row = rows[i] if i < len(rows) else None
        if row is None or int(row["replicate"]) != 0 or int(row["seed"]) != seed:
            failures.append(f"row {i}: missing or misnumbered")
            continue
        value, bound = float(row["tv"]), float(row["l2_bound"])
        problems = []
        if not _close(float(row["t"]), float(t), 1e-12):
            problems.append(f"t {row['t']} != {t!r}")
        if row["instance_digest"] != digest:
            problems.append("digest %s != oracle" % row["instance_digest"])
        if not 0.0 <= value <= 1.0:
            problems.append(f"tv {value!r} outside [0, 1]")
        if value > previous + 1e-12:
            problems.append(f"tv {value!r} rose above the previous row's {previous!r}")
        if value > bound * (1.0 + REL_TOL):
            problems.append(f"tv {value!r} above l2_bound {bound!r}")
        if not _close(bound, l2_bound(lam, float(t)), 1e-8):
            problems.append(f"l2_bound {bound!r} vs oracle {l2_bound(lam, float(t))!r}")
        if not _close(float(row["gamma"]), gap(lam), 1e-8):
            problems.append(f"gamma {row['gamma']} vs oracle {gap(lam)!r}")
        if i in spot and abs(value - tv(lam, moduli, float(t))) > TV_TOL:
            problems.append(f"tv {value!r} vs oracle {tv(lam, moduli, float(t))!r}")
        if reference is not None:
            ref = reference["rows"][i]
            if row["instance_digest"] != ref["instance_digest"]:
                problems.append("digest differs from reference")
            if abs(value - ref["tv"]) > TV_TOL:
                problems.append(f"tv differs from reference {ref['tv']!r}")
            if not _close(bound, ref["l2_bound"], 1e-8):
                problems.append(f"l2_bound differs from reference {ref['l2_bound']!r}")
        previous = value
        if problems:
            failures.append(f"row {i} (t={t:.6g}): " + "; ".join(problems))
    return failures


def check_verify(text: str, status: int, names) -> list[str]:
    """One failure per expected check whose line is missing or not PASS."""
    verdicts = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[1] in ("PASS", "FAIL"):
            verdicts[parts[0]] = parts[1]
    failures = [f"{name}: {verdicts.get(name, 'missing')}"
                for name in names if verdicts.get(name) != "PASS"]
    if not failures and (status != 0 or f"{len(names)} checks, 0 failures" not in text):
        failures.append(f"verify exit status {status} with every check passing")
    return failures


def check_probe(result, reference: dict, samples: int) -> list[str]:
    """Estimate within PROBE_SIGMAS combined standard errors of the reference."""
    problems = []
    if result.samples != samples:
        problems.append(f"samples {result.samples} != {samples}")
    if not 0.0 <= result.estimate <= 1.0:
        problems.append(f"estimate {result.estimate!r} outside [0, 1]")
    sigma = math.hypot(result.stderr, reference["stderr"])
    if abs(result.estimate - reference["estimate"]) > PROBE_SIGMAS * sigma:
        problems.append(f"estimate {result.estimate!r} is more than {PROBE_SIGMAS:g} "
                        f"standard errors from reference {reference['estimate']!r}")
    target = 0.5 * math.erfc(reference["alpha"] / math.sqrt(2.0))
    if not _close(result.target, target, 1e-12):
        problems.append(f"target {result.target!r} != Psi(alpha) {target!r}")
    if not _close(result.details["t_alpha"], reference["t_alpha"]):
        problems.append(f"t_alpha {result.details['t_alpha']!r} != reference")
    return [f"{reference['probe']}(alpha={reference['alpha']:g}): " + "; ".join(problems)
            ] if problems else []
