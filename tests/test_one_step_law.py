"""One step law, read everywhere: `entropic.step_distribution` builds every law,
with its log, and the solver's H, the walk's Q and the LCLT scan all take
-log nu_s from that table; no module in src/ takes a log through numpy."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from cayley_cutoff import entropic

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cayley_cutoff"

#: numpy's logarithms, whose float64 kernels numpy picks per CPU at run time.
NUMPY_LOGS = {"log", "log1p", "log2", "log10"}


def _numpy_log_calls(path: Path) -> list[str]:
    """Each call np.<log>(...) or numpy.<log>(...) in `path`, as "file:line"."""
    return [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in NUMPY_LOGS
            and getattr(node.func.value, "id", None) in ("np", "numpy")]


def test_no_module_takes_a_numpy_log():
    assert [call for path in sorted(PACKAGE.glob("*.py")) for call in _numpy_log_calls(path)] == []


def test_window_coeff_builds_one_law(monkeypatch):
    calls = []
    build = entropic.step_distribution
    monkeypatch.setattr(entropic, "step_distribution",
                        lambda *a, **kw: calls.append(a) or build(*a, **kw))
    for model in entropic.MODELS:
        entropic._window_coeff(model, 1.5)
    assert calls == [(model, 1.5) for model in entropic.MODELS]


@pytest.mark.parametrize("model,s", [("undirected", 0.0), ("undirected", 3.0),
                                     ("directed", 2.5), ("directed", 1e4)])
def test_cost_is_the_floored_log_of_the_law(model, s):
    dist = entropic.step_distribution(model, s)
    floor = -math.log(entropic.PMF_FLOOR)
    xs = np.arange(dist.lo - 3, dist.hi + 4)
    inside = (xs >= dist.lo) & (xs <= dist.hi)
    cost = dist.cost(xs)
    assert np.all(cost[~inside] == floor)
    assert np.array_equal(cost[inside], np.minimum(-dist.logpmf, floor))
    assert dist.cost(dist.lo - 1) == floor and isinstance(dist.cost(dist.hi), float)
