"""Command-line interface for the experiment harness.

Subcommands: spectrum, tv-curve, cutoff-profile, gap-scan, entropic, verify,
cheeger; each takes only the flags it reads (`COMMANDS`).  Flags override a
flat key=value config file, which overrides the ExperimentConfig defaults; the
seed is always explicit (no environment entropy).
"""

from __future__ import annotations

import argparse
import itertools
import sys
import traceback

from .entropic import MODELS, BracketError
from .experiments import RUNNERS, BudgetExceededError, ExperimentConfig, run_verify
from .groups import parse_group
from .lemmas import SELF_TEST


def _parse_switch(text: str) -> bool:
    if text not in ("0", "1", "true", "false"):
        raise ValueError(f"must be 0, 1, true or false, got {text!r}")
    return text in ("1", "true")


#: config key -> (ExperimentConfig field, parser of the key's text, argparse options).
#: Every flag leaves its text, or None when absent, for make_config to parse.
KEYS = {
    "group": ("moduli", lambda text: parse_group(text).moduli,
              {"help": 'comma-separated moduli, e.g. "4,9,25"'}),
    "k": ("k", int, {}),
    "model": ("model", str, {"choices": MODELS}),
    "alpha": ("alphas", lambda text: tuple(float(a) for a in text.split(",") if a.strip()),
              {"help": "comma-separated alpha list"}),
    "t_grid": ("t_grid", str, {"help": "lo:hi:points (log-spaced)"}),
    "replicates": ("replicates", int, {}),
    "seed": ("base_seed", int, {"help": "required; it enters the config digest (verify "
             "draws nothing from it: every lemma check draws from its own fixed stream)"}),
    "out": ("out", str, {}),
    "fmt": ("fmt", str, {"choices": ("csv", "json")}),
    "only": ("only", str, {"help": "run a single named check"}),
    "jobs": ("jobs", int, {}),
    "force": ("force", _parse_switch, {"action": "store_const", "const": "1",
                                       "help": "override the work-budget refusal"}),
}

_INSTANCE = ("group", "k", "model", "seed", "out")

#: the config keys each subcommand reads; its flags are exactly these keys' flags
COMMANDS = {
    "spectrum": (*_INSTANCE, "fmt", "force"),
    "tv-curve": (*_INSTANCE, "t_grid", "replicates", "fmt", "jobs", "force"),
    "cutoff-profile": (*_INSTANCE, "alpha", "replicates", "fmt", "jobs", "force"),
    "gap-scan": (*_INSTANCE, "replicates", "fmt", "jobs", "force"),
    "entropic": (*_INSTANCE, "alpha"),
    "verify": ("seed", "out", "only"),
    "cheeger": (*_INSTANCE, "replicates", "fmt", "jobs", "force"),
}


def _flag(key: str) -> str:
    return "--format" if key == "fmt" else "--" + key.replace("_", "-")


def load_config_file(path: str, keys: tuple[str, ...]) -> dict:
    """Read a flat key=value file of the given config keys; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in keys:
                raise ValueError(f"--config: unknown key {key!r}; known: {', '.join(keys)}")
            values[key] = val
    return values


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag is spelled in full, so "--gr" is not "--group"
    parser = argparse.ArgumentParser(prog="cayley-cutoff", allow_abbrev=False,
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="flat key=value config file")
        for key in keys:
            p.add_argument(_flag(key), dest=key, **KEYS[key][2])
        if name == "verify":
            p.add_argument("--self-test-fail", action="store_true",
                           help=argparse.SUPPRESS)  # negative-control hook
        # errors found after parsing print this subcommand's usage, not the root's
        p.set_defaults(error=p.error)
    return parser


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge --config file, then flags, over the dataclass defaults; a bad value names its flag."""
    keys = COMMANDS[args.command]
    merged = load_config_file(args.config, keys) if args.config else {}
    merged.update((key, getattr(args, key)) for key in keys
                  if getattr(args, key) is not None)
    fields = {}
    for key, text in merged.items():
        field, parse, _ = KEYS[key]
        if text == "" and parse is not int:  # "key=" unsets a text value
            continue
        try:
            fields[field] = parse(text)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{_flag(key)}: {exc}") from None
    return ExperimentConfig(command=args.command, **fields)


def _stage(exc: BaseException) -> str:
    """The innermost function of this package in exc's traceback, as module.function."""
    return [f"{frame.f_globals['__name__'].removeprefix(__package__ + '.')}.{frame.f_code.co_name}"
            for frame, _ in traceback.walk_tb(exc.__traceback__)
            if frame.f_globals.get("__name__", "").startswith(__package__ + ".")][-1]


def main(argv=None) -> int:
    """Run one subcommand; bad input, a refused budget or a run out of memory
    exits 2 naming the flag to change."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # The root reads no flag but --help.  argparse would report a missing
    # command first, or take a flag's value for the command, and not name the flag.
    lead = list(itertools.takewhile(lambda arg: arg not in COMMANDS, argv))
    if any(arg.startswith("-") for arg in lead) and not {"-h", "--help"} & set(lead):
        parser.error(f"unrecognized arguments: {' '.join(lead)}")
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        args.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        config = make_config(args)
    except ValueError as exc:
        args.error(str(exc))
    if args.command == "verify":
        if config.only == SELF_TEST and not args.self_test_fail:
            args.error(f"--only {SELF_TEST} needs --self-test-fail")
        text, status = run_verify(config, self_test=args.self_test_fail)
    else:
        status = 0
        try:
            text, _ = RUNNERS[args.command](config)
        except BudgetExceededError as exc:
            args.error(str(exc))
        except BracketError as exc:
            args.error(f"--alpha/--k: {exc}; lower --alpha or raise --k")
        except MemoryError as exc:  # a forced run past memory, at any stage
            flags = [_flag(key) for key in ("k", "group", "replicates", "jobs")
                     if key in COMMANDS[args.command]]
            args.error(f"out of memory in {_stage(exc)}; lower {', '.join(flags)}")
    if not config.out:  # --out holds the whole output
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
