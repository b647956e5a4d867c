#!/usr/bin/env python3
"""Count lines of code: lines that hold a token of code, so blank lines,
comments and docstrings are left out.

    python3 scripts/count_loc.py [PATH ...]

Each PATH is a Python file or a directory searched for *.py files; the
default is src/secat.  One line is printed per file, its count and its
path, then the total.  A docstring is the string that opens a module, a
class or a function, found with ast; every other token, a string that
spans several lines or a line that continues an expression included,
counts each line it covers.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent

# tokens that are not code
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token of code."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP:
            continue
        if any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=[str(ROOT / "src" / "secat")],
                    help="Python files or directories (default: src/secat)")
    args = ap.parse_args(argv)
    files = []
    for p in map(pathlib.Path, args.paths):
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    total = 0
    for f in files:
        n = code_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:7d}  {f}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
