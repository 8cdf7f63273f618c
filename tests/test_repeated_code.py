"""No run of three code lines is written twice in src/pgal.

A module's code lines are its source lines without comments and docstrings,
stripped of indentation (tools/code_lines.py, which finds docstrings with
ast and comments with tokenize); only lines longer than MIN_CHARS count, so
closing brackets and short returns do not make a run.  A family or a check
written out twice shows up here as a run that repeats.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

PKG = code_lines.PKG
MIN_CHARS = 12
RUN = 3


def _code_lines(text):
    """(line number, stripped text) of each counted code line."""
    return [(i, line) for i, line in code_lines.code_lines(text) if len(line) > MIN_CHARS]


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


SAMPLE = ('"""Module docstring,\nover two lines."""\n\nimport os\n\n\nclass A:\n'
          '    """Class docstring."""\n\n    x = 1  # a comment\n\n'
          '    def f(self):\n        """One line."""\n        # only a comment\n'
          '        return "# not a comment"\n')


def test_the_tool_counts_code_lines_without_blanks_docstrings_and_comments(tmp_path):
    assert code_lines.code_lines(SAMPLE) == [
        (4, "import os"), (7, "class A:"), (10, "x = 1"), (12, "def f(self):"),
        (15, 'return "# not a comment"')]
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("\n\nx = 1\n")
    assert code_lines.counts(tmp_path) == {"a.py": 1, "b.py": 5}


def test_the_tool_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("x = 1\n" * 1200)
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "a.py    1,200", "b.py        5", "total   1,205"]
