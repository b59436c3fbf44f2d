"""A seeded sweep over small configurations of every subcommand.

Each run either exits 0 with output that keeps the walk's identities, or exits
2 with a message that names a flag.  The identities, for every reported total
variation TV at time t on a group of order n:

- 0 <= TV <= 1 - 1/n;
- TV is nonincreasing in t along a `tv-curve` replicate;
- TV <= l2_bound(t) (Cauchy-Schwarz with Plancherel, in both models);
- gamma >= 0, exactly (`eigenvalues` keeps every gap 1 - Re lambda >= 0).

Rounding slack: a row is an FFT of weights w with ||w||_2 <= sqrt(n), so its
L1 error is at most c u log2(n) sqrt(n) (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., section 24.1), u the unit roundoff; `_slack`
takes c = 8.  Comparisons of TV allow that much, the gamma bound none.  A run
with `--jobs 2` must also print what `--jobs 1` prints.
"""

import contextlib
import csv
import io
import json
import math
import re

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cayley_cutoff import cli, entropic, lemmas
from cayley_cutoff.cli import main
from cayley_cutoff.groups import parse_group

FLAGS = {cli._flag(key) for key in cli.KEYS}

#: every check but modified_l2, which alone takes about 0.2 s
QUICK_CHECKS = [name for name in lemmas.DEFAULT_CHECKS if name != "modified_l2"]


def _slack(n: int) -> float:
    return 8 * np.finfo(float).eps * max(math.log2(n), 1.0) * math.sqrt(n)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def _records(text: str, fmt: str) -> tuple[list[dict], list[dict]]:
    """The rows and the summary entries of a csv or json output."""
    lines = text.splitlines()
    if fmt == "json":
        records = [json.loads(line) for line in lines[1:]]
        rows = [r for r in records if "summary" not in r]
        summary = [r["summary"] for r in records if "summary" in r]
        return rows, summary[0] if summary and isinstance(summary[0], list) else summary
    summary = [json.loads(line[len("# summary "):]) for line in lines
               if line.startswith("# summary ")]
    body = [line for line in lines[1:] if not line.startswith("#")]
    return list(csv.DictReader(body)), summary


@st.composite
def runs(draw) -> list[str]:
    """argv for one run: each flag the subcommand reads, mostly drawn from
    small valid values; one in 20 is left out and one in 20 is out of range."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    keys = cli.COMMANDS[command]
    argv = [command]

    def maybe(key, valid, invalid):
        # not 0 and 1, which hypothesis draws far more often than 1 in 20
        roll = draw(st.integers(0, 19)) if key in keys else 7
        if roll != 7:
            argv.append(f"{cli._flag(key)}={draw(invalid if roll == 13 else valid)}")

    def joined(values):
        return values.map(lambda xs: ",".join(map(repr, xs)))

    # cheeger scans all 2^n subsets: n <= 16 runs, and 101 (n > 24) is refused
    if command == "cheeger":
        groups, bad = st.lists(st.integers(2, 4), min_size=1, max_size=2), "101"
    else:
        groups, bad = st.lists(st.integers(2, 12), min_size=1, max_size=3), "2,x"
    maybe("group", joined(groups), st.sampled_from(["1", "4,0", "", bad]))
    maybe("k", st.integers(1, 64), st.integers(-2, 0))
    maybe("model", st.sampled_from(entropic.MODELS), st.just("bogus"))
    maybe("seed", st.integers(-2 ** 70, 2 ** 70), st.just("x"))
    maybe("alpha", joined(st.lists(st.floats(-2, 2), min_size=1, max_size=3)),
          st.sampled_from(["nan", "0,inf", "40", "a"]))
    maybe("t_grid", st.tuples(st.floats(0.01, 10), st.floats(1.5, 1e3), st.integers(2, 8)).map(
        lambda g: f"{g[0]!r}:{g[0] * g[1]!r}:{g[2]}"), st.sampled_from(["0:1:5", "2:1:3", "1:2"]))
    maybe("replicates", st.integers(1, 3), st.integers(-1, 0))
    maybe("jobs", st.integers(1, 2), st.integers(-1, 0))
    maybe("fmt", st.sampled_from(["csv", "json"]), st.just("xml"))
    maybe("only", st.sampled_from(QUICK_CHECKS), st.just("nope"))
    return argv


def _check_output(argv: list[str], text: str):
    """The identities above, on the output of a run that exited 0."""
    config = cli.make_config(cli.build_parser().parse_args(argv))
    if config.command in ("verify", "entropic"):
        return
    n = parse_group(",".join(map(str, config.moduli))).n
    slack = _slack(n)
    rows, summary = _records(text, config.fmt)
    tvs = [float(v) for row in rows for key, v in row.items() if key.startswith("tv")]
    assert all(0.0 <= tv <= 1.0 - 1.0 / n + slack for tv in tvs), tvs
    gammas = [float(r["gamma"]) for r in rows + summary if "gamma" in r]
    assert all(g >= 0.0 for g in gammas), gammas
    if config.command == "tv-curve":
        for r in rows:
            assert float(r["tv"]) <= float(r["l2_bound"]) + slack, r
        for rep in range(config.replicates):
            curve = [float(r["tv"]) for r in rows if int(r["replicate"]) == rep]
            assert all(b <= a + slack for a, b in zip(curve, curve[1:])), curve


@seed(31)
@settings(max_examples=300, deadline=None, database=None)
@given(runs())
def test_every_subcommand_exits_0_keeping_identities_or_2_naming_a_flag(argv):
    status, out, err = _run(argv)
    if status == 2:
        message = err.strip().splitlines()[-1]
        assert FLAGS & set(re.findall(r"--[a-z-]+", message)), message
        return
    assert status == 0, (status, err)
    _check_output(argv, out)
    if any(arg.startswith("--jobs=2") for arg in argv):
        assert _run([arg for arg in argv if not arg.startswith("--jobs=")])[1] == out

