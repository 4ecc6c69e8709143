"""Count the lines of each ``src/kform`` module: raw, and code only.

``tests/oracles.py``, the second computation routes the tests check the
package against, gets its own row after the total and is not part of it, so
that code moved from ``src/`` into the oracles still shows.

Code-only lines are those holding a token that is not a comment, a blank
line or a docstring (a statement that is a lone string literal), found with
``tokenize``.  A multi-line token counts every line it spans.  Run from
anywhere:

    python tools/count_lines.py
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kform"
ORACLES = ROOT / "tests" / "oracles.py"

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    tokens = [
        tok
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    lines = set()
    for k, tok in enumerate(tokens):
        # the token stream always ends NEWLINE, ENDMARKER, so k + 1 exists
        docstring = (
            tok.type == tokenize.STRING
            and (k == 0 or tokens[k - 1].type in _LAYOUT)
            and tokens[k + 1].type == tokenize.NEWLINE
        )
        if tok.type not in _LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _row(name: str, path: Path) -> tuple[int, int]:
    source = path.read_text(encoding="utf-8")
    raw, code = len(source.splitlines()), code_lines(source)
    print(f"{name:<20}{raw:>7}{code:>7}")
    return raw, code


def main() -> int:
    total_raw = total_code = 0
    print(f"{'module':<20}{'raw':>7}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        raw, code = _row(path.name, path)
        total_raw, total_code = total_raw + raw, total_code + code
    print(f"{'total':<20}{total_raw:>7}{total_code:>7}")
    _row("tests/oracles.py", ORACLES)
    return 0


if __name__ == "__main__":
    sys.exit(main())
