#!/usr/bin/env python3
"""Code lines of each Python module under a directory, and their total.

A code line holds at least one token that is not a comment; blank lines,
comment lines and the lines of module, class and function docstrings do
not count.  A statement spread over several lines counts each line, as
does a string literal that is not a docstring.

    python scripts/count_code_lines.py                 # src/versaldef
    python scripts/count_code_lines.py path/to/package
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(package: Path) -> dict:
    """{path relative to package: code lines} for every .py file below it."""
    return {str(p.relative_to(package)): code_lines(p.read_text())
            for p in sorted(package.rglob("*.py"))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("package", type=Path, nargs="?", default=ROOT / "src" / "versaldef")
    args = ap.parse_args(argv)
    if not args.package.is_dir():
        ap.error(f"not a directory: {args.package}")
    counts = count(args.package)
    for name, lines in counts.items():
        print(f"{lines:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
