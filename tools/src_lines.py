"""Count the lines of ``src/`` by kind: code, docstring, comment and blank.

Docstring lines are the nonblank lines of module, class and function
docstrings, found with ``ast``.  Comment lines hold a comment and no code
token, found with ``tokenize``.  Blank lines hold only whitespace, in
docstrings too.  Every other line is code, so the four kinds add up to
the line count.  Prints one row per file and a total::

    python tools/src_lines.py [SRC]

``SRC`` defaults to the ``src/`` next to this script's directory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.COMMENT}


def count(text: str) -> dict[str, int]:
    """Lines of one Python source by kind."""
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstring.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code, comment = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        if number in docstring:
            kind = "docstring" if line.strip() else "blank"
        elif number in code:
            kind = "code"
        elif number in comment:
            kind = "comment"
        else:
            kind = "blank"
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> None:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<32}" + "".join(f"{kind:>10}" for kind in (*KINDS, "total")))
    for path in sorted(src.rglob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        row = [counts[kind] for kind in KINDS]
        print(f"{str(path.relative_to(src)):<32}" + "".join(f"{v:>10}" for v in (*row, sum(row))))
    row = [total[kind] for kind in KINDS]
    print(f"{'total':<32}" + "".join(f"{v:>10}" for v in (*row, sum(row))))


if __name__ == "__main__":
    main(sys.argv[1:])
