"""Count the lines of each module of `src/opendyn`, and of all of them.

    python3 tools/src_lines.py [DIR]

For each module, and in total, it prints three counts, read off the
module's tokens (`tokenize`):

- lines: every physical line of the file;
- code: the lines that hold a token of a statement other than a
  docstring, so blank lines, comment-only lines and docstrings are not code;
- doc: the lines of docstrings, the string literals that stand alone as a
  statement.

It only reports; it exits 0 whatever the counts are. Stdlib only.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

#: Tokens that hold no code of their own.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def count(path: Path) -> tuple[int, int, int]:
    """The (lines, code lines, docstring lines) of one Python file."""
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    code: set[int] = set()
    doc: set[int] = set()
    starts_statement = True  # at the first token of a logical line
    for tok, after in zip(tokens, tokens[1:]):
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING and starts_statement and after.type == tokenize.NEWLINE:
            doc.update(lines)
        elif tok.type not in _LAYOUT:
            code.update(lines)
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING):
            starts_statement = tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
    with open(path, "rb") as f:
        n_lines = sum(1 for _ in f)
    return n_lines, len(code), len(doc - code)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "opendyn"
    rows = [(path.relative_to(root).as_posix(), *count(path)) for path in sorted(root.rglob("*.py"))]
    rows.append(("total", *(sum(row[j] for row in rows) for j in (1, 2, 3))))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}} {'lines':>7} {'code':>7} {'doc':>7}")
    for name, lines, code, doc in rows:
        print(f"{name:<{width}} {lines:>7} {code:>7} {doc:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
