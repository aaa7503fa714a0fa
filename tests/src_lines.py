"""Lines and code lines of each module of ``src/rough_transport`` and their total.

    python3 tests/src_lines.py [DIR]

Prints one row per module, then the total: the ``wc -l`` count (newline
characters) and the code lines. A code line is one that is not blank, not
comment-only, and not inside a module, class or function docstring; the
docstrings are found with the standard ``ast`` module. DIR defaults to the
package beside this file's ``tests/``. Not collected by pytest: the file
name does not start with ``test_``.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rough_transport"

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The 1-based line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source):
    """(wc -l lines, code lines) of one module's ``source``."""
    skip = docstring_lines(ast.parse(source))
    code = sum(1 for i, line in enumerate(source.splitlines(), start=1)
               if line.strip() and not line.lstrip().startswith("#") and i not in skip)
    return source.count("\n"), code


def main(argv):
    src = Path(argv[0]) if argv else SRC
    rows = [(p.name, *count_lines(p.read_text())) for p in sorted(src.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
