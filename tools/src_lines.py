"""Print each ``mfdgp`` module's total and code line counts, then the package total.

Usage, from the repository root:

    python3 tools/src_lines.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to this checkout's ``src/mfdgp``; pass another
checkout's to compare two commits. Every ``*.py`` file below it is counted,
subpackages included. Code lines are the lines that hold a token other than
a comment; a docstring (the leading string of a module, class or function,
found with ``ast``) is not code, and neither is a blank line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) token positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count_lines(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    spans = _docstring_spans(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "mfdgp"
    totals = [0, 0]
    print(f"{'module':<28} {'total':>6} {'code':>6}")
    for path in sorted(package.rglob("*.py")):
        total, code = count_lines(path.read_text(encoding="utf-8"))
        totals[0] += total
        totals[1] += code
        print(f"{path.relative_to(package).as_posix():<28} {total:>6} {code:>6}")
    print(f"{'total':<28} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
