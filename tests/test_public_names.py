"""Every public top-level function and class of the package has a use."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "cayley_cutoff").glob("*.py")
                 if p.name != "__init__.py")


def test_every_public_name_is_used():
    # Text, not ast.Name: perfbench reaches probes through getattr(walk, name).
    # A name seen once is only its own definition.
    text = "\n".join(p.read_text() for p in MODULES + sorted((ROOT / "perfbench").glob("*.py")))
    unused = [f"{path.name}:{node.name}"
              for path in MODULES for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and len(re.findall(rf"\b{node.name}\b", text)) < 2]
    assert unused == []
