"""No run of three code lines is written twice in src/pgal.

A module's code lines are its source lines without comments and docstrings,
stripped of indentation; only lines longer than MIN_CHARS count, so closing
brackets and short returns do not make a run.  Docstrings are found with
ast, comments with tokenize.  A family or a check written out twice shows
up here as a run that repeats.
"""

import ast
import io
import tokenize
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "pgal"
MIN_CHARS = 12
RUN = 3


def _code_lines(text):
    """(line number, stripped text) of each counted code line."""
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
            if i not in skip and len(line.strip()) > MIN_CHARS]


def _repeated_runs(modules):
    """{run of RUN code lines: [(module, first line), ...]} for each run met twice."""
    seen = {}
    for name, text in modules.items():
        lines = _code_lines(text)
        for k in range(len(lines) - RUN + 1):
            run = tuple(line for _, line in lines[k:k + RUN])
            seen.setdefault(run, []).append((name, lines[k][0]))
    return {run: where for run, where in seen.items() if len(where) > 1}


def test_the_reader_drops_docstrings_comments_and_short_lines():
    text = ('"""Module docstring,\nover two lines."""\n'
            "def function(a):\n    'one line'\n    # a comment line\n"
            "    return a + 1000  # trailing\n    return a\n")
    assert _code_lines(text) == [(3, "def function(a):"), (6, "return a + 1000")]


def test_the_reader_finds_a_run_in_two_modules_and_twice_in_one():
    body = "alpha = 'long enough'\nbravo = 'long enough'\ncharlie = 'long enough'\n"
    assert list(_repeated_runs({"a": body, "b": "x = 1\n" + body}).values()) == [
        [("a", 1), ("b", 2)]]
    assert list(_repeated_runs({"a": body + body}).values()) == [[("a", 1), ("a", 4)]]


def test_no_run_of_code_lines_repeats():
    modules = {path.stem: path.read_text() for path in sorted(PKG.glob("*.py"))}
    repeats = _repeated_runs(modules)
    assert repeats == {}, "\n".join(f"{where}: {run}" for run, where in repeats.items())
