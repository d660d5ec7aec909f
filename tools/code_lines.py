"""Print the lines and code lines of each src/lahoc/*.py file, and their total.

A code line holds a token other than a comment and is not part of a docstring
(a statement that is only a string literal). Run from the repository root:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "lahoc"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def count(text: str) -> tuple[int, int]:
    """(lines, code lines) of one Python source."""
    docstrings = {
        line
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for line in range(node.lineno, node.end_lineno + 1)
    }
    code = {
        line
        for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.type not in NOT_CODE
        for line in range(tok.start[0], tok.end[0] + 1)
    }
    return len(text.splitlines()), len(code - docstrings)


def main() -> None:
    counts = {path.name: count(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    counts["total"] = tuple(map(sum, zip(*counts.values())))
    width = max(map(len, counts))
    print(f"{'file':<{width}} {'lines':>6} {'code':>6}")
    for name, (lines, code) in counts.items():
        print(f"{name:<{width}} {lines:>6} {code:>6}")


if __name__ == "__main__":
    main()
