"""Every transform enters `spectral` by one door: `_work` hands out the array,
`_dft` transforms it, and no other function asks the route or the kept buffer.
Each batching rule has one owning module: `walk` draws and scores every typical
walk, `spectral` packs every pair of heat-kernel rows."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cayley_cutoff"


def _callers(path: Path, name: str) -> set[str]:
    """The top-level functions and methods (Class.method) of `path` that call
    `name`, as f(...) or x.f(...), nested functions included; "<module>" if a
    call lies outside them."""
    tree = ast.parse(path.read_text())
    units = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    units += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef)]

    def count(node) -> int:
        return sum(isinstance(call, ast.Call)
                   and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
                   for call in ast.walk(node))

    found = {owner for owner, fn in units if count(fn)}
    return found | {"<module>"} if count(tree) > sum(count(fn) for _, fn in units) else found


def test_only_work_and_dft_ask_the_route_or_the_buffer():
    spectral = PACKAGE / "spectral.py"
    assert _callers(spectral, "_on_chirp") == {"_work", "_dft"}
    assert _callers(spectral, "buffer") == {"_work", "_chirp_plan"}
    for path in sorted(PACKAGE.glob("*.py")):
        if path != spectral:
            assert _callers(path, "_on_chirp") == _callers(path, "buffer") == set(), path.name


@pytest.mark.parametrize("owner,names", [("walk.py", ("_walk_cells", "_row_terms")),
                                         ("spectral.py", ("heat_kernel_row", "tv_exact"))])
def test_one_module_owns_each_batching_rule(owner, names):
    for name in names:
        assert {path.name for path in PACKAGE.glob("*.py") if _callers(path, name)} == {owner}, name
