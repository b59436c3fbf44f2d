"""Every top-level function, class and constant of the package has a use."""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "cayley_cutoff").glob("*.py")
                 if p.name != "__init__.py")
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _code(path: Path) -> list[str]:
    """The lines of `path` with every comment and docstring blanked out: a name
    mentioned only in prose has no use.  Every other string stays, since
    perfbench reaches probes through getattr(walk, name) and cli.main calls
    _stage inside an f-string."""
    text = path.read_text()
    lines = text.splitlines()
    docs = {(body[0].lineno, body[0].col_offset) for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and (body := node.body) and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT or (tok.type == tokenize.STRING and tok.start in docs):
            (row, col), (end_row, end_col) = tok.start, tok.end
            for r in range(row, end_row + 1):
                a, b = col if r == row else 0, end_col if r == end_row else len(lines[r - 1])
                lines[r - 1] = lines[r - 1][:a] + " " * (b - a) + lines[r - 1][b:]
    return lines


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
    # A use is any mention in the code of src/ or perfbench/ outside the name's
    # own statement, decorators included, so private helpers left behind by a
    # refactor fail too; docstrings and comments do not count.
    code = {path: _code(path) for path in BENCH + MODULES}
    unused = []
    for path in MODULES:
        lines = code[path]
        rest = ["\n".join(code[p]) for p in BENCH + MODULES if p != path]
        for node in ast.parse(path.read_text()).body:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            outside = "\n".join(lines[:first - 1] + lines[node.end_lineno:] + rest)
            unused += [f"{path.name}:{name}" for name in _defined(node)
                       if not re.search(rf"\b{name}\b", outside)]
    assert unused == []
