"""Code lines of src/hilldraw, per module and in total.

A code line is a source line that holds at least one token other than a
comment, a docstring or a line break: blank lines, comment lines and the
lines of module, class and function docstrings are not counted.

    python tools/code_lines.py [SRC_DIR]

SRC_DIR defaults to src/hilldraw next to this script's directory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(source: str) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    skip = docstring_lines(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                        tokenize.INDENT, tokenize.DEDENT,
                        tokenize.ENDMARKER):
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                     if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    root = (Path(argv[0]) if argv else
            Path(__file__).resolve().parent.parent / "src" / "hilldraw")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
