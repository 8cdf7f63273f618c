"""Count the code lines of a Python package: its source lines without blank
lines, docstrings and comments.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/pgal.  It prints one line per module, in name
order, with the module's count, and then the total.  Docstrings (of the
module, its classes and functions) are found with ast and comments with
tokenize; `code_lines` gives the lines themselves, which
tests/test_repeated_code.py reads too.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "pgal"


def code_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of each code line of a module's source
    that is neither blank, nor part of a docstring, nor only a comment."""
    skip = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            skip.update(range(doc.lineno, doc.end_lineno + 1))
    lines = text.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    return [(i, line.strip()) for i, line in enumerate(lines, 1)
            if i not in skip and line.strip()]


def counts(package: Path) -> dict[str, int]:
    """{module file name: its number of code lines} for the package's modules."""
    return {path.name: len(code_lines(path.read_text())) for path in sorted(package.glob("*.py"))}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=PKG)
    per_module = counts(parser.parse_args(argv).package)
    width = max(map(len, [*per_module, "total"]))
    for name, n in per_module.items():
        print(f"{name:<{width}}  {n:>6,}")
    print(f"{'total':<{width}}  {sum(per_module.values()):>6,}")


if __name__ == "__main__":
    main()
