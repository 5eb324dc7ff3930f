#!/usr/bin/env python3
"""Raw and code lines of every module under src/, and their totals.

Code lines are the lines that hold a token of code: blank lines,
comment-only lines and docstrings (the leading string of a module,
class or function body) do not count.  A statement that spans several
lines counts each of them.

Usage: python3 scripts/loc.py [SRC_DIR]    (default: src/ next to scripts/)
"""

import ast
import io
import os
import sys
import tokenize

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: str) -> tuple[int, int]:
    """(raw lines, code lines) of one Python source file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    src = argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(__file__), "..", "src")
    rows = []
    for root, dirs, files in os.walk(src):
        dirs.sort()
        rows += [os.path.join(root, f) for f in sorted(files) if f.endswith(".py")]
    total_raw = total_code = 0
    print(f"{'module':<32} {'raw':>6} {'code':>6}")
    for path in rows:
        raw, code = count(path)
        total_raw += raw
        total_code += code
        print(f"{os.path.relpath(path, src):<32} {raw:>6} {code:>6}")
    print(f"{'total':<32} {total_raw:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
