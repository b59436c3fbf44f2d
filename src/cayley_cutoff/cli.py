"""Command-line interface for the experiment harness.

Subcommands: spectrum, tv-curve, cutoff-profile, gap-scan, entropic, verify,
cheeger.  Flags override a flat key=value config file, which overrides
defaults; the seed is always explicit (no environment entropy).
"""

from __future__ import annotations

import argparse
import sys

from .entropic import BracketError
from .experiments import (RUNNERS, SELF_TEST, BudgetExceededError, ExperimentConfig,
                          run_verify)
from .groups import parse_group


def load_config_file(path: str) -> dict:
    """Read a flat key=value file of `_DEFAULTS` keys; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ValueError(f"--config: unknown key {key!r}; known: {', '.join(_DEFAULTS)}")
            values[key] = val
    return values


def _parse_switch(text: str) -> bool:
    if text not in ("0", "1", "true", "false"):
        raise ValueError(f"must be 0, 1, true or false, got {text!r}")
    return text in ("1", "true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cayley-cutoff",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    commands = ("spectrum", "tv-curve", "cutoff-profile", "gap-scan", "entropic",
                "verify", "cheeger")
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--group", help='comma-separated moduli, e.g. "4,9,25"')
        p.add_argument("--k", type=int)
        p.add_argument("--model", choices=("undirected", "directed"))
        p.add_argument("--alpha", help="comma-separated alpha list")
        p.add_argument("--t-grid", dest="t_grid", help="lo:hi:points (log-spaced)")
        p.add_argument("--replicates", type=int)
        p.add_argument("--seed", type=int, help=(
            "labels the run (it enters the config digest) and draws nothing: every "
            "lemma check draws from its own fixed stream" if name == "verify" else None))
        p.add_argument("--out")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"))
        p.add_argument("--only", help="verify: run a single named check")
        p.add_argument("--jobs", type=int)
        p.add_argument("--force", action="store_true",
                       help="override the work-budget refusal")
        if name == "verify":
            p.add_argument("--self-test-fail", action="store_true",
                           help=argparse.SUPPRESS)  # negative-control hook
        # errors found after parsing print this subcommand's usage, not the root's
        p.set_defaults(error=p.error)
    return parser


_DEFAULTS = {
    "group": None, "k": None, "model": "undirected", "alpha": None,
    "t_grid": None, "replicates": "1", "seed": None,
    "out": None, "fmt": "csv", "only": None, "jobs": "1", "force": None,
}


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, --config file and flags; a bad value raises a ValueError naming its flag."""
    merged = dict(_DEFAULTS)
    if args.config:
        merged.update(load_config_file(args.config))
    for key in ("group", "k", "model", "alpha", "t_grid", "replicates", "seed", "out",
                "fmt", "only", "jobs"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if getattr(args, "force", False):
        merged["force"] = "1"

    def parsed(key, parse, absent=None):
        raw = merged[key]
        if raw is None or (raw == "" and parse is not int):  # "key=" unsets a text value
            return absent
        try:
            return parse(str(raw))
        except (ValueError, OverflowError) as exc:
            flag = "--" + key.replace("_", "-")
            raise ValueError(f"{flag}: {exc}") from None

    return ExperimentConfig(
        command=args.command,
        moduli=parsed("group", lambda text: parse_group(text).moduli, ()),
        k=parsed("k", int, 0),
        model=str(merged["model"]),
        alphas=parsed("alpha", lambda text: tuple(
            float(a) for a in text.split(",") if a.strip()), ()),
        t_grid=parsed("t_grid", str),
        replicates=parsed("replicates", int),
        base_seed=parsed("seed", int),
        out=parsed("out", str),
        fmt=str(merged["fmt"]),
        only=parsed("only", str),
        force=parsed("force", _parse_switch, False),
        jobs=parsed("jobs", int),
    )


def main(argv=None) -> int:
    """Run one subcommand; bad input or a refused budget exits 2 naming the flag to change."""
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        config = make_config(args)
    except ValueError as exc:
        args.error(str(exc))
    if args.command == "verify":
        extra = None
        if getattr(args, "self_test_fail", False):
            from .lemmas import CheckReport
            extra = {SELF_TEST: lambda: CheckReport(
                name=SELF_TEST, passed=False,
                worst_case="forced failure (negative control)", max_violation=1.0)}
        elif config.only == SELF_TEST:
            args.error(f"--only {SELF_TEST} needs --self-test-fail")
        text, status = run_verify(config, extra_checks=extra)
        sys.stdout.write(text)
        return status
    try:
        text, _ = RUNNERS[args.command](config)
    except BudgetExceededError as exc:
        args.error(str(exc))
    except BracketError as exc:
        args.error(f"--alpha/--k: {exc}; lower --alpha or raise --k")
    if not config.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
