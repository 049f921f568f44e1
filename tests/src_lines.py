"""Line counts of the library, the one measure of its size.

For each module in ``src/coarsegeom`` this prints its raw lines and its code lines: the
lines that hold a token other than a comment or a module, class or function docstring.
Blank lines, comment lines and docstring lines are not code; a line of code that ends in
a comment is. The last row gives the totals. Run from anywhere:

    python tests/src_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coarsegeom"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """``path``'s raw lines and code lines."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE and token.start[0] not in docs:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code)


def main() -> None:
    total_raw = total_code = 0
    print(f"{'module':<16}{'raw':>6}{'code':>6}")
    for path in sorted(SRC.glob("*.py")):
        raw, code = counts(path)
        total_raw, total_code = total_raw + raw, total_code + code
        print(f"{path.name:<16}{raw:>6}{code:>6}")
    print(f"{'total':<16}{total_raw:>6}{total_code:>6}")


if __name__ == "__main__":
    main()
