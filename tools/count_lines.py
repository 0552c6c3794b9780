"""Count the lines of Python modules as code, docstring, comment and blank.

Docstring lines are the line spans of every module, class and function
docstring; comment lines are the other lines whose first non-blank
character is ``#``; blank lines are the other empty lines; code is the
rest. Prints one row per module and a total.

    python tools/count_lines.py [paths ...]      # default: src/nkcca
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers spanned by every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """Lines of one module by kind."""
    text = path.read_text()
    doc = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in doc:
            counts["docstring"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        elif not stripped:
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path("src/nkcca")]
    files = sorted(f for root in roots
                   for f in (root.rglob("*.py") if root.is_dir() else [root]))
    rows = [(str(f), count(f)) for f in files]
    total = {k: sum(c[k] for _, c in rows) for k in KINDS}
    rows.append(("total", total))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}  " + "  ".join(f"{k:>9}" for k in KINDS)
          + f"  {'all':>9}")
    for name, c in rows:
        print(f"{name:<{width}}  " + "  ".join(f"{c[k]:>9}" for k in KINDS)
              + f"  {sum(c.values()):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
