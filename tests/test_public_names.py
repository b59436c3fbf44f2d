"""Every top-level function, class and constant of the package has a use."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "cayley_cutoff").glob("*.py")
                 if p.name != "__init__.py")
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _defined(node) -> list[str]:
    """The names a top-level statement defines: a def or class, or an assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def test_every_public_name_is_used():
    # Text, not ast.Name: perfbench reaches probes through getattr(walk, name).
    # A use is any mention in src/ or perfbench/ outside the name's own statement,
    # decorators included, so private helpers left behind by a refactor fail too.
    unused = []
    for path in MODULES:
        lines = path.read_text().splitlines()
        rest = [p.read_text() for p in BENCH + MODULES if p != path]
        for node in ast.parse("\n".join(lines)).body:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            outside = "\n".join(lines[:first - 1] + lines[node.end_lineno:] + rest)
            unused += [f"{path.name}:{name}" for name in _defined(node)
                       if not re.search(rf"\b{name}\b", outside)]
    assert unused == []
