"""Command line behavior: payload shapes, determinism, exit codes."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgal
from pgal.cli import _COMMANDS, _build_parser, main

from fresh import run_request


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_groups_build_json(capsys):
    code, doc = run_json(capsys, "groups", "build", "--spec", "D:16", "--json")
    assert code == 0
    assert doc["order"] == 16
    assert len(doc["table"]) == 16
    names = {g["name"] for g in doc["generators"]}
    assert names == {"sigma", "tau"}


def test_groups_build_roundtrips_through_file(tmp_path, capsys):
    code, doc = run_json(capsys, "groups", "build", "--spec", "Q:8", "--json")
    path = tmp_path / "q8.json"
    path.write_text(json.dumps(doc))
    code2, doc2 = run_json(capsys, "groups", "build", "--spec", str(path), "--json")
    assert code2 == 0
    assert doc2["table"] == doc["table"]


def test_h2_counts(capsys):
    code, doc = run_json(capsys, "h2", "--group", "Mmod:p=3,n=3", "--p", "3", "--json")
    assert code == 0
    assert doc["classes"] == 9
    code2, doc2 = run_json(capsys, "h2", "--group", "EA:p=2,r=2", "--p", "2", "--json")
    assert doc2["classes"] == 8


def test_h2_answers_where_p_times_the_order_passes_the_table_cap(capsys):
    # 5 does not divide 1024, so H^2 = 0, though 5 * 1024 > 4096
    code, doc = run_json(capsys, "h2", "--group", "C:1024", "--p", "5", "--json")
    assert (code, doc) == (0, {"classes": 1, "complete_enumeration": True, "dimension": 0,
                               "group": "C:1024", "p": 5})


@pytest.mark.parametrize("p,expr,shown", [
    ("5", "(3,zeta4)", "1"),
    ("3", "(2,zeta12)", "(2,z3;z3)"),
    ("3", "(2,zeta4)(2,zeta4)", "1"),
])
def test_a_root_of_unity_keeps_only_its_p_primary_part(capsys, p, expr, shown):
    code, doc = run_json(capsys, "symbol", "eval", "--p", p, "--expr", expr, "--json")
    assert (code, doc["class"], doc["canonical"]) == (0, shown, shown)


def test_a_square_as_a_product_and_as_a_power_print_the_same_bytes(capsys):
    outs = [run(capsys, "symbol", "eval", "--p", "3", "--expr", expr, "--json")
            for expr in ("(2,zeta4)(2,zeta4)", "(2,zeta4)^2")]
    assert outs[0] == outs[1]


def test_obstruct_c4(capsys):
    code, doc = run_json(capsys, "obstruct", "c4", "--a", "2", "--json")
    assert code == 0
    assert doc["class"] == "(2,-1)"
    assert doc["splits_over_Q"] is True
    code2, doc2 = run_json(capsys, "obstruct", "c4", "--a", "3", "--json")
    assert doc2["splits_over_Q"] is False


def test_obstruct_massy(capsys):
    code, doc = run_json(capsys, "obstruct", "massy", "--p", "2", "--a", "2,3",
                         "--d", "d12=1", "--json")
    assert code == 0
    assert doc["splits_over_Q"] is False  # (2,3) is nonsplit at 3


def test_obstruct_modular(capsys):
    code, doc = run_json(capsys, "obstruct", "modular", "--variant", "zeta1",
                         "--p", "2", "--n", "4", "--a1", "2", "--a2", "3", "--json")
    assert code == 0
    assert doc["class"] == "(3,-1)"
    assert doc["splits_over_Q"] is False


def test_symbol_eval(capsys):
    code, doc = run_json(capsys, "symbol", "eval", "--p", "2",
                         "--expr", "(2,-1)(3,-1)", "--json")
    assert code == 0
    assert doc["splits_over_Q"] is False


def test_solve_theorem(capsys):
    code, doc = run_json(capsys, "solve", "--theorem", "4.2", "--p", "3", "--json")
    assert code == 0
    assert doc["free_scalar"] == "f"
    assert doc["condition"] == "N(omega)=a2*zeta"


def test_schultz_solve(capsys):
    code, doc = run_json(capsys, "schultz", "solve", "--p", "3", "--n", "1",
                         "--summands", "3", "--dims", "2,2,2", "--ikk", "0",
                         "--finite", "true", "--json")
    assert code == 0
    assert doc["solvable"] is True
    assert doc["count"] == 12
    assert doc["deltas"] == [1, 1, 1, 0]


def test_schultz_infinite(capsys):
    code, doc = run_json(capsys, "schultz", "solve", "--p", "3", "--n", "1",
                         "--summands", "3", "--dims", "2,2,2", "--ikk", "0",
                         "--finite", "false", "--json")
    assert doc["count"] == "infinite"


def test_autoreal_query_and_bound(capsys):
    code, doc = run_json(capsys, "autoreal", "query", "--from", "Q:8", "--to", "D:8",
                         "--json")
    assert code == 0
    assert doc["holds"] is True
    code2, doc2 = run_json(capsys, "autoreal", "query", "--from", "Q:16", "--to", "M:16",
                           "--json")
    assert doc2["holds"] == "unknown"
    code3, doc3 = run_json(capsys, "autoreal", "bound", "--p", "3", "--n", "1",
                           "--k", "2", "--json")
    assert doc3["bound"] == 9


def test_cor_pipeline(tmp_path, capsys):
    # subgroup <sigma> of D8 carries the C8-over-C4 style cocycle
    code, g = run_json(capsys, "groups", "build", "--spec", "D:8", "--json")
    sigma = next(x["index"] for x in g["generators"] if x["name"] == "sigma")
    table = g["table"]
    els = sorted({0, sigma, table[sigma][sigma],
                  table[sigma][table[sigma][sigma]]})
    # carry cocycle of C8 -> C4 on power-indexed C4
    coc = {"p": 2, "group": "C:4",
           "values": [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, 1]]}
    f = tmp_path / "c.json"
    f.write_text(json.dumps(coc))
    code2, doc = run_json(capsys, "cor", "--group", "D:8",
                          "--subgroup", ",".join(str(e) for e in els),
                          "--cocycle", str(f), "--json")
    assert code2 == 0
    assert doc["p"] == 2
    assert len(doc["values"]) == 8


def test_cocycle_values_beyond_64_bits_answer_as_the_reduced_file(tmp_path, capsys):
    # values are exponents of zeta, so 2^70 + v is v mod 2; <sigma> = {0, 1, 2, 3}
    # is C4 numbered by powers, carrying the cocycle of C8 over C4
    small = [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, 1]]
    big = [[v + (-1) ** (x + y) * 2 ** 70 * (x * y > 0) for y, v in enumerate(row)]
           for x, row in enumerate(small)]
    answers = []
    for name, values in (("small.json", small), ("big.json", big)):
        f = tmp_path / name
        f.write_text(json.dumps({"p": 2, "group": "C:4", "values": values}))
        answers.append(run(capsys, "cor", "--group", "D:8", "--subgroup", "0,1,2,3",
                           "--cocycle", str(f), "--json"))
    assert answers[0][0] == 0 and answers[0] == answers[1]


def test_determinism(capsys):
    a = run(capsys, "h2", "--group", "D:8", "--p", "2", "--json")
    b = run(capsys, "h2", "--group", "D:8", "--p", "2", "--json")
    assert a == b


def test_domain_error_exit_1(capsys):
    code, out = run(capsys, "groups", "build", "--spec", "D:12", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "UnknownFamily"


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["h2", "--group", "D:8"])
    assert exc.value.code == 2


def test_human_output_default(capsys):
    code, out = run(capsys, "obstruct", "c4", "--a", "5")
    assert code == 0
    assert "splits over Q: True" in out


@pytest.mark.parametrize("argv,files,code,named", [
    (["h2", "--group", "D:8", "--p", "0"], {}, "BadParams", "p=0"),
    (["h2", "--group", "D:8", "--p", "1"], {}, "BadParams", "p=1"),
    (["h2", "--group", "D:8", "--p", "4"], {}, "BadParams", "p=4"),
    (["obstruct", "c4", "--a", "1/0"], {}, "ZeroEntry", "'1/0'"),
    (["cor", "--group", "D:8", "--subgroup", "0,2,4,6", "--cocycle", "{dir}/c.json"],
     {"c.json": '{"p": 2, "group": "C:4"}'}, "BadParams", "'values'"),
    (["h2", "--group", "{dir}/g.json", "--p", "2"], {"g.json": "not json"}, "BadParams",
     "g.json"),
    (["groups", "build", "--spec", "{dir}/g.json"], {"g.json": '{"order": 2}'}, "BadParams",
     "'table'"),
    (["cor", "--group", "D:8", "--subgroup", "0,1,2,99", "--cocycle", "{dir}/c.json"],
     {"c.json": '{"p": 2, "group": "C:4", "values": [[0, 0], [0, 0]]}'}, "RelationInconsistent",
     "0..7"),
    (["h2", "--group", "{dir}/g.json", "--p", "2"],
     {"g.json": '{"order": 2, "table": [[0, 1], [1, 0]], "generators": [{"name": "a", "index": 5}]}'},
     "RelationInconsistent", "0..1"),
    # 65536 would wrap to 0 in an int16 table, giving the table of C2
    (["h2", "--group", "{dir}/g.json", "--p", "2"],
     {"g.json": '{"order": 2, "table": [[0, 1], [1, 65536]]}'},
     "RelationInconsistent", "out of range"),
    (["groups", "build", "--spec", "{dir}/g.json"],
     {"g.json": '{"order": 2, "table": [[0, 1], [1, -1]]}'},
     "RelationInconsistent", "out of range"),
    (["h2", "--group", "{dir}/g.json", "--p", "2"],
     {"g.json": '{"order": 2, "table": [[0, 1], [1, 1180591620717411303424]]}'},
     "RelationInconsistent", "out of range"),
    (["h2", "--group", "{dir}/g.json", "--p", "2"],
     {"g.json": '{"order": 2, "table": [[0, 1], [1, 9223372036854775808]]}'},
     "RelationInconsistent", "out of range"),
    # a cast would read each of these as the table of C2
    (["h2", "--group", "{dir}/g.json", "--p", "2"],
     {"g.json": '{"order": 2, "table": [[0, 1], [1, 0.5]]}'},
     "RelationInconsistent", "must be integers"),
    (["h2", "--group", "{dir}/g.json", "--p", "2"],
     {"g.json": '{"order": 2, "table": [[0, 1], [1, 0.0]]}'},
     "RelationInconsistent", "must be integers"),
    (["h2", "--group", "{dir}/g.json", "--p", "2"],
     {"g.json": '{"order": 2, "table": [[0, 1], [1, false]]}'},
     "RelationInconsistent", "must be integers"),
    (["groups", "build", "--spec", "{dir}/g.json"],
     {"g.json": '{"order": 2, "table": [[false, true], [true, false]]}'},
     "RelationInconsistent", "must be integers"),
    (["groups", "build", "--spec", "{dir}/g.json"],
     {"g.json": '{"order": 2, "table": [[0, 1], [1, "0"]]}'},
     "RelationInconsistent", "must be integers"),
    (["cor", "--group", "D:8", "--subgroup", "0,2,4,6", "--cocycle", "{dir}/c.json"],
     {"c.json": '{"p": 2, "group": "C:4", "values": [[0, 0, 0, 0], [0, 0.5, 0, 0], '
                '[0, 0, 0, 0], [0, 0, 0, 0]]}'},
     "NotACocycle", "cocycle identity"),
    # a subgroup from outside is still checked closed
    (["cor", "--group", "D:8", "--subgroup", "0,1,2", "--cocycle", "{dir}/c.json"],
     {"c.json": '{"p": 2, "group": "C:4", "values": [[0, 0], [0, 0]]}'}, "RelationInconsistent",
     "not closed"),
    # a coset representative out of range used to end in an IndexError traceback
    (["cor", "--group", "D:8", "--subgroup", "0,2,4,6", "--cocycle", "{dir}/c.json", "--g", "99"],
     {"c.json": '{"p": 2, "group": "C:4", "values": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],'
                ' [0, 0, 0, 0]]}'}, "BadIndexSubgroup", "0..7"),
    # autoreal builds both ends of a query before it searches
    (["autoreal", "query", "--from", "C:8192", "--to", "C:2"], {}, "OrderTooLarge", "8192"),
    # each of these ended in a Python traceback
    (["cor", "--group", "D:8", "--subgroup", "0,x", "--cocycle", "{dir}/c.json"], {},
     "BadParams", "--subgroup takes integers, got 'x'"),
    (["obstruct", "direct", "--p", "2", "--b", "2", "--d", "x"], {}, "BadParams",
     "--d takes integers, got 'x'"),
    (["schultz", "solve", "--p", "3", "--n", "1", "--summands", "a", "--dims", "2,2,2"], {},
     "BadParams", "--summands takes integers, got 'a'"),
    (["schultz", "solve", "--p", "3", "--n", "1", "--summands", "3", "--dims", "a"], {},
     "BadParams", "--dims takes integers, got 'a'"),
    (["schultz", "solve", "--p", "3", "--n", "1", "--summands", "3", "--dims", "2,2,2",
      "--ikk=x"], {}, "BadParams", "--ikk takes integers, got 'x'"),
    (["obstruct", "cp2", "--a", "zeta0", "--p", "3"], {}, "ZeroEntry", "'zeta0'"),
    (["symbol", "eval", "--p", "0", "--expr=(2,3)"], {}, "BadParams", "p must be prime, got p=0"),
    # every command's p is checked prime, as h2's is
    (["obstruct", "cp2", "--a", "3", "--p", "1"], {}, "BadParams", "p must be prime, got p=1"),
    (["obstruct", "cp2", "--a", "3", "--p", "4"], {}, "BadParams", "p must be prime, got p=4"),
    (["obstruct", "massy", "--p", "9", "--a", "2"], {}, "BadParams", "p must be prime, got p=9"),
    (["obstruct", "modular", "--variant", "m", "--p", "4", "--n", "1", "--a1", "2", "--a2", "3"],
     {}, "BadParams", "p must be prime, got p=4"),
    (["symbol", "eval", "--p", "4", "--expr=(2,3)"], {}, "BadParams", "p must be prime, got p=4"),
    (["solve", "--theorem", "4.1", "--p", "4"], {}, "BadParams", "p must be prime, got p=4"),
    (["autoreal", "bound", "--p", "4", "--n", "1", "--k", "2"], {}, "BadParams",
     "p must be prime, got p=4"),
    # huge exponents: the first two ended in the int-to-str limit's traceback,
    # the last two formed p^k or p^n for longer than 30 s
    (["autoreal", "bound", "--p", "2", "--n", "2", "--k", "14300"], {}, "BadParams",
     "more than 4300 decimal digits"),
    (["schultz", "solve", "--p", "2", "--n", "14300", "--summands", "1", "--dims", "1"], {},
     "OrderTooLarge", "order 2^14300 exceeds cap 4096"),
    (["autoreal", "bound", "--p", "3", "--n", "2", "--k", "1000000000"], {}, "BadParams",
     "more than 4300 decimal digits"),
    (["schultz", "solve", "--p", "3", "--n", "100000000", "--summands", "1", "--dims", "1"], {},
     "OrderTooLarge", "order 3^100000000 exceeds cap 4096"),
])
def test_bad_input_gives_the_error_document(tmp_path, capsys, argv, files, code, named):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    args = [a.replace("{dir}", str(tmp_path)) for a in argv] + ["--json"]
    status, doc = run_json(capsys, *args)
    assert status == 1
    assert set(doc) == {"error", "detail"}
    assert doc["error"] == code
    assert named in doc["detail"]


# -- one command's parser -------------------------------------------------------------

# per command: a subcommand's --help, an unknown engine or action, a missing
# required option, a bad int, an extra argument, and one request that parses
_PARITY_ROWS = {
    "groups": [["groups", "build", "--help"], ["groups", "build"],
               ["groups", "build", "--spec", "D:8", "extra"],
               ["groups", "build", "--spec", "D:8", "--json"]],
    "h2": [["h2", "--group", "D:8"], ["h2", "--group", "D:8", "--p", "two"],
           ["h2", "--group", "D:8", "--p", "2", "extra"], ["h2", "--group", "D:8", "--p", "2"]],
    "cor": [["cor", "--group", "D:8", "--subgroup", "0,1"],
            ["cor", "--group", "D:8", "--subgroup", "0,1", "--cocycle", "c.json", "--g", "x"],
            ["cor", "--group", "D:8", "--subgroup", "0,1", "--cocycle", "c.json", "extra"],
            ["cor", "--group", "D:8", "--subgroup", "0,1", "--cocycle", "c.json", "--g", "1"]],
    "obstruct": [["obstruct", e, "--help"] for e in
                 ("c4", "cp2", "massy", "direct", "modular", "gfamily", "hw", "twist")] + [
                 ["obstruct", "massy", "--a", "2"], ["obstruct", "massy", "--p", "x", "--a", "2"],
                 ["obstruct", "gfamily", "--family", "G9", "--p", "3", "--a1", "2", "--a2", "3"],
                 ["obstruct", "c4", "--a", "3", "--json", "extra"],
                 ["obstruct", "c4", "--a", "3", "--json"]],
    "solve": [["solve", "--p", "3"], ["solve", "--theorem", "4.2", "--p", "3", "--i", "x"],
              ["solve", "--theorem", "4.2", "--p", "3", "extra"],
              ["solve", "--theorem", "4.2", "--p", "3"]],
    "schultz": [["schultz", "solve", "--help"], ["schultz", "solve", "--p", "3"],
                ["schultz", "solve", "--p", "3", "--n", "x", "--summands", "3", "--dims", "2"],
                ["schultz", "solve", "--p", "3", "--n", "1", "--summands", "3", "--dims", "2,2,2",
                 "--finite", "maybe"],
                ["schultz", "solve", "--p", "3", "--n", "1", "--summands", "3", "--dims", "2,2,2",
                 "extra"],
                ["schultz", "solve", "--p", "3", "--n", "1", "--summands", "3", "--dims", "2,2,2"]],
    "autoreal": [["autoreal", "query", "--help"], ["autoreal", "bound", "--help"],
                 ["autoreal", "query", "--from", "Q:8"],
                 ["autoreal", "bound", "--p", "3", "--n", "1", "--k", "x"],
                 ["autoreal", "bound", "--p", "3", "--n", "1", "--k", "2", "extra"],
                 ["autoreal", "query", "--from", "Q:8", "--to", "D:8"]],
    "symbol": [["symbol", "eval", "--help"], ["symbol", "eval", "--p", "2"],
               ["symbol", "eval", "--p", "x", "--expr", "(2,3)"],
               ["symbol", "eval", "--p", "2", "--expr", "(2,3)", "extra"],
               ["symbol", "eval", "--p", "2", "--expr", "(2,3)"]],
}


def _parse(parser, argv, capsys):
    """(exit code or parsed namespace, stdout, stderr) of parser on argv."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


def test_every_command_has_parity_rows():
    assert list(_PARITY_ROWS) == list(_COMMANDS)


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_a_command_parser_answers_as_the_full_parser(capsys, command):
    one = _build_parser(command)
    other = next(c for c in _COMMANDS if c != command)
    assert _parse(one, [other], capsys)[0] == 2
    rows = [[command, "--help"], [command], [command, "nope"]] + _PARITY_ROWS[command]
    for argv in rows:
        assert argv[0] == command
        assert _parse(one, argv, capsys) == _parse(_build_parser(), argv, capsys), argv


def test_requests_without_a_command_get_the_full_parser(capsys):
    """No arguments, --help, an unknown command and a leading option; argparse
    names the command positional by its dest here, not by a metavar."""
    usage = "usage: pgal [-h] {groups,h2,cor,obstruct,solve,schultz,autoreal,symbol} ...\n"
    choices = ", ".join(f"'{c}'" for c in _COMMANDS)
    expected = {
        (): usage + "pgal: error: the following arguments are required: command\n",
        ("nope",): usage + "pgal: error: argument command: invalid choice: 'nope' "
                           f"(choose from {choices})\n",
        ("--json",): usage + "pgal: error: the following arguments are required: command\n",
    }
    for argv, err in expected.items():
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", err)
    for argv in (["--help"], ["-h", "h2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(usage) and all(f"    {c}" in out for c in _COMMANDS)
        assert _parse(_build_parser(), argv, capsys) == (0, out, "")


# -- what a request loads -----------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(pgal.__file__)))
ENV = dict(os.environ, PYTHONPATH=SRC)


def _fresh_run(argv):
    """`python -m pgal argv` in a fresh interpreter: exit code, stdout, stderr
    and the modules it imported (from -X importtime, which logs every import
    to stderr; those lines are left out of the stderr returned)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "pgal", *argv],
                          capture_output=True, text=True, env=ENV, timeout=120)
    lines = proc.stderr.splitlines(keepends=True)
    loaded = {line.rsplit("|", 1)[1].strip() for line in lines
              if line.startswith("import time:")}
    err = "".join(line for line in lines if not line.startswith("import time:"))
    return proc.returncode, proc.stdout, err, loaded


@pytest.mark.parametrize("argv,numpy_free", [
    (["obstruct", "c4", "--a", "2", "--json"], True),
    (["obstruct", "massy", "--p", "2", "--a", "2,3", "--d", "d12=1", "--json"], True),
    (["symbol", "eval", "--p", "2", "--expr", "(2,-1)(3,-1)", "--json"], True),
    (["solve", "--theorem", "4.2", "--p", "3", "--json"], True),
    (["schultz", "solve", "--p", "3", "--n", "1", "--summands", "3", "--dims", "2,2,2",
      "--ikk", "0", "--json"], True),
    (["--help"], True),
    (["groups", "build", "--spec", "Q:8", "--json"], False),
    (["h2", "--group", "D:8", "--p", "2", "--json"], False),
    (["autoreal", "bound", "--p", "3", "--n", "2", "--k", "4", "--json"], True),
    (["autoreal", "query", "--from", "Q:8", "--to", "D:8", "--json"], False),
    (["h2", "--group", "D:8"], True),
    (["groups", "build", "--spec", "D:12", "--json"], False),
    (["groups", "build", "--spec", "D:256", "--json"], False),
])
def test_a_request_loads_only_what_its_command_uses(capsys, argv, numpy_free):
    """Symbol, solve and schultz commands never import numpy; only solve and
    schultz load kummer and fpmodules; no command loads numpy.ma or
    dataclasses, and none loads inspect but through numpy, whose
    numpy._core.overrides imports it; every command answers in a fresh
    process exactly as in this one, with the same exit code, stdout and
    stderr, and its output arrives complete."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    expected = (code, *capsys.readouterr())
    status, out, err, loaded = _fresh_run(argv)
    assert (status, out, err) == expected
    assert "pgal.cli" in loaded
    assert "numpy.ma" not in loaded
    assert "dataclasses" not in loaded
    if argv[0] in ("obstruct", "symbol", "groups", "h2", "autoreal", "--help"):
        assert not loaded & {"pgal.kummer", "pgal.fpmodules"}
    if numpy_free:
        assert not {m for m in loaded if m == "numpy" or m.startswith("numpy.")}
        assert "inspect" not in loaded


def _neither(spec):
    return json.dumps({"detail": f"{spec!r} is neither a catalog spec nor an existing file",
                       "error": "UnknownFamily"}, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv,doc", [
    (["groups", "build", "--spec", "X8:16", "--json"], _neither("X8:16")),
    (["groups", "build", "--spec", "D:22", "--json"], _neither("D:22")),
    (["groups", "build", "--spec", "C:65536", "--json"],
     '{"detail": "order 65536 exceeds cap 4096", "error": "OrderTooLarge"}\n'),
    (["groups", "build", "--spec", "G5:q=4"], _neither("G5:q=4")),
    (["h2", "--group", "D:22", "--p", "2"], _neither("D:22")),
])
def test_a_spec_the_catalog_refuses_is_answered_before_numpy_loads(argv, doc):
    req = run_request(argv)
    assert (req.code, req.stdout, req.stderr) == (1, doc, "")
    assert "numpy" not in req.modules and "pgal.catalog" in req.modules


def test_a_spec_the_catalog_accepts_loads_numpy():
    req = run_request(["groups", "build", "--spec", "D:8", "--json"])
    assert req.code == 0 and json.loads(req.stdout)["order"] == 8
    assert "numpy" in req.modules


def test_a_reader_that_closes_the_pipe_gets_no_traceback():
    proc = subprocess.Popen([sys.executable, "-m", "pgal", "groups", "build", "--spec", "D:256",
                             "--json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV)
    # the 300,153-byte answer overfills the pipe, so the write after close fails
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert head == b'{"generato'
    assert err == b""


def test_a_closed_stdout_still_exits_0():
    proc = subprocess.run(["sh", "-c", '"$0" -m pgal obstruct c4 --a 2 --json >&-',
                           sys.executable], capture_output=True, env=ENV, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_importing_every_module_registers_no_atexit_callback():
    """main_entry ends the process with os._exit, which runs no atexit callback."""
    code = ("import atexit, importlib, pkgutil, pgal\n"
            "before = atexit._ncallbacks()\n"
            "names = [m.name for m in pkgutil.iter_modules(pgal.__path__)\n"
            "         if m.name != '__main__']\n"
            "for name in names:\n"
            "    importlib.import_module('pgal.' + name)\n"
            "print(len(names), before, atexit._ncallbacks())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=ENV, timeout=120)
    count, before, after = map(int, proc.stdout.split())
    assert count >= 12 and after == before


def test_package_reexports_are_lazy():
    from pgal import Group

    exports = {"Group": "groups", "GroupHom": "groups", "Subgroup": "groups",
               "build_group": "catalog", "Cocycle2": "cohomology",
               "ExtensionClass": "cohomology", "FieldElem": "symbols",
               "SymbolProduct": "symbols"}
    for name, module in exports.items():
        assert getattr(pgal, name) is getattr(importlib.import_module(f"pgal.{module}"), name)
    assert Group is pgal.groups.Group
    assert sorted(pgal.__all__) == sorted(exports)
    with pytest.raises(AttributeError):
        pgal.no_such_name


UNFACTORED = 13268176258719549543847943  # factor raises on it


def _symbol_doc(canonical, shown, factors):
    """The --json output for a p = 2 symbol with integer entries."""
    return json.dumps({
        "canonical": canonical, "class": shown, "splits_over_Q": None,
        "symbol": {"factors": [{"exp": 1, "left": {"rat": str(a)}, "right": {"rat": str(b)}}
                               for a, b in factors], "opaque": [], "p": 2}}, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv,out", [
    (["symbol", "eval", "--p", "2", "--expr", f"(-{UNFACTORED},3)", "--json"],
     _symbol_doc(f"(-1,3)(3,{UNFACTORED})", f"(-1,3)(3,{UNFACTORED})",
                 [(-1, 3), (3, UNFACTORED)])),
    (["obstruct", "c4", f"--a=-{UNFACTORED}", "--json"],
     _symbol_doc(f"(-1,-{UNFACTORED})", f"(-{UNFACTORED},-1)", [(-1, -UNFACTORED)])),
], ids=["symbol eval", "obstruct c4"])
def test_a_negative_entry_that_cannot_be_factored_keeps_its_sign_once(capsys, argv, out):
    # the sign is split off as (-1, b), so the entry's atom is |entry|; it
    # was counted twice, giving the class of (|entry|, b)
    assert run(capsys, *argv) == (0, out)


# -- no argv ends in a traceback ----------------------------------------------------------

_JUNK = ["x", "0", "-1", "4", "1/0", "(2,", "zeta0", "0,x"]
_GROUP = ["D:8", "C:4", "Q:8", "C:2*C:2", "EA:p=2,r=5", "C:6"]  # order <= 32
_ELEM = ["2", "3", "-1", "5/3", "zeta", "zeta3"]
_P, _SMALL = ["2", "3"], ["1", "2"]
_HUGE = _SMALL + ["14300", "100000000"]
# per request: its command words and each flag's usable values; the junk
# tokens are drawn for every flag besides
_REQUESTS = [
    (["groups", "build"], {"--spec": _GROUP}),
    (["h2"], {"--group": _GROUP, "--p": _P}),
    (["cor"], {"--group": ["D:8", "C:4"], "--subgroup": ["0,2,4,6", "0,1"],
               "--cocycle": ["{cocycle}", "{missing}"], "--g": _SMALL}),
    (["obstruct", "c4"], {"--a": _ELEM}),
    (["obstruct", "cp2"], {"--a": _ELEM, "--p": _P}),
    (["obstruct", "massy"], {"--p": _P, "--a": ["2,3", "5"], "--d": ["d11=1,d12=1", "d12=x"]}),
    (["obstruct", "direct"], {"--p": _P, "--b": _ELEM, "--j": _SMALL, "--a": ["2,3"],
                              "--d": ["1,2"], "--res": ["r"]}),
    (["obstruct", "modular"], {"--variant": ["m", "1zeta", "zeta1", "zetazeta"], "--p": _P,
                               "--n": _SMALL, "--a1": _ELEM, "--a2": _ELEM}),
    (["obstruct", "gfamily"], {"--family": ["G3", "G4", "G5"], "--p": _P, "--a1": _ELEM,
                               "--a2": _ELEM}),
    (["obstruct", "hw"], {"--q": ["2,3", "2,3,5", "-1"]}),
    (["obstruct", "twist"], {"--df": _ELEM, "--plus": ["(2,-1)(3,-1)", "(2,3)^2"]}),
    (["solve"], {"--theorem": ["4.1", "4.2", "4.3", "4.4", "4.5", "4.12"], "--p": _P,
                 "--i": _SMALL, "--witness": ["w"]}),
    (["schultz", "solve"], {"--p": _P, "--n": _HUGE, "--summands": ["3", "1,1,2"],
                            "--dims": ["2,2,2", "1,2"], "--ikk": ["-inf", "1"],
                            "--finite": ["true", "false"]}),
    (["autoreal", "query"], {"--from": _GROUP, "--to": _GROUP}),
    (["autoreal", "bound"], {"--p": _P, "--n": _HUGE, "--k": _HUGE}),
    (["symbol", "eval"], {"--p": _P, "--expr": ["(2,3)", "(2,-1)^3(5,zeta)", "(2,3"]}),
]


@st.composite
def _argv(draw):
    words, flags = draw(st.sampled_from(_REQUESTS))
    argv = list(words)
    for flag, usable in flags.items():
        if draw(st.booleans()):
            argv += [f"{flag}={draw(st.sampled_from(usable + _JUNK))}"]
    return argv


@pytest.fixture(scope="module")
def cocycle_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "c.json"
    path.write_text('{"p": 2, "values": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}')
    return str(path)


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_no_argv_ends_in_a_traceback(cocycle_file, argv):
    argv = [a.replace("{cocycle}", cocycle_file).replace("{missing}", cocycle_file + ".none")
            for a in argv] + ["--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 1:
        assert set(json.loads(out.getvalue())) == {"error", "detail"}, argv
