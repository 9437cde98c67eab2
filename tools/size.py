"""Size of the ``triwalk`` package: lines, code lines and public names.

Prints one row per module of ``src/triwalk`` with its lines and its code
lines, then the totals and the number of public names,
``len(triwalk.__all__)``.  A code line holds at least one token that is
not a comment and is not part of a docstring (the string that opens a
module, class or function body); blank lines count as neither.  ``--src``
picks the source tree, so a checkout of the parent commit can be counted
too.

    python tools/size.py
    python tools/size.py --src PARENT/src
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that carry no code of their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# The nodes whose body may open with a docstring.
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The number of lines holding code other than comments and docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _BODIES) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def public_names(src: Path) -> int:
    """``len(triwalk.__all__)`` of the package under ``src``."""
    sys.path.insert(0, str(src))
    import triwalk

    if not triwalk.__file__.startswith(str(src)):
        raise SystemExit(f"imported {triwalk.__file__}, not the tree under {src}")
    return len(triwalk.__all__)


def rows(src: Path) -> list[tuple[str, int, int]]:
    """(module, lines, code lines) of every module of the package."""
    table = []
    for path in sorted((src / "triwalk").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        table.append((path.name, len(text.splitlines()), code_lines(text)))
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src",
                        help="source tree holding triwalk/ "
                             "(default: this checkout's src/)")
    src = parser.parse_args(argv).src.resolve()
    table = rows(src)
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name, lines, code in table:
        print(f"{name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{sum(r[1] for r in table):>7}"
          f"{sum(r[2] for r in table):>7}")
    print(f"public names: {public_names(src)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
