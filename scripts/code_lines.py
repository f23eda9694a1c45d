"""Print the code lines of each module of src/artifact and their total.

A code line holds at least one token that is not a comment, a docstring or
whitespace: blank lines, comment lines and the lines of module, class and
function docstrings are not counted.  Run it from anywhere, with no
arguments:

    python scripts/code_lines.py
"""

from __future__ import annotations

import ast
import io
import os
import tokenize

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "artifact")
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python source text."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def counts(package: str = PACKAGE) -> dict:
    """{module file name: code lines} for the .py files of package, sorted."""
    out = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                out[name] = code_lines(fh.read())
    return out


def main() -> None:
    table = counts()
    width = max(map(len, table), default=0)
    for name, n in table.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(table.values()):>5}")


if __name__ == "__main__":
    main()
