"""In-memory span tracer that instruments cayley_cutoff from outside.

`instrumented(tracer)` swaps timed wrappers in for the public functions of the
package modules (including names one module imports from another), for the
entries of `experiments.RUNNERS` and for the entries of `lemmas.DEFAULT_CHECKS`,
and restores the originals on exit.  Nothing inside the package is edited.
Everything runs in one thread, so a stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "cayley_cutoff"
MODULES = ("groups", "spectral", "entropic", "walk", "lemmas", "experiments", "cli")


class Tracer:
    """Collects spans (name, start, end, parent, run) and per-layer counts.

    An observer is called after its span as observer(counts, bound_arguments,
    result), to add counts measured where the work happens.
    """

    def __init__(self, run_id: str, observers: dict | None = None):
        self.run_id = run_id
        self.observers = observers or {}
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn):
        observe = self.observers.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None,
                    # a span nested in one of the same name is not added to its total
                    "outermost": self._active[name] == 0,
                    "start": perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            self._active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._active[name] -= 1
                self._stack.pop()
            if observe is not None:
                observe(self.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return timed

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds `s`, `self_s` (minus child spans), `calls`."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for span in self.spans:
            duration = span["end"] - span["start"]
            entry = out[span["name"]]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[span["id"]]
            if span["outermost"]:
                entry["s"] += duration
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _targets():
    """(container, key, span name) for every public function to wrap."""
    found = []
    for short in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, value in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or not value.__module__.startswith(PACKAGE + ".")):
                continue
            origin = value.__module__.rsplit(".", 1)[1]
            found.append((vars(module), attr, f"{origin}.{value.__name__}"))
    experiments = importlib.import_module(f"{PACKAGE}.experiments")
    for key, fn in experiments.RUNNERS.items():
        found.append((experiments.RUNNERS, key, f"experiments.{fn.__name__}"))
    lemmas = importlib.import_module(f"{PACKAGE}.lemmas")
    for key in lemmas.DEFAULT_CHECKS:
        found.append((lemmas.DEFAULT_CHECKS, key, f"lemmas.{key}"))
    return found


@contextmanager
def instrumented(tracer: Tracer):
    """Run the body with every target wrapped by `tracer`; always restore."""
    saved = []
    try:
        for container, key, name in _targets():
            saved.append((container, key, container[key]))
            container[key] = tracer.wrap(name, container[key])
        yield tracer
    finally:
        for container, key, original in reversed(saved):
            container[key] = original
