"""pgal command line: groups, h2, cor, obstruct, solve, schultz, autoreal, symbol.

Every command is deterministic: identical argv produces byte-identical
output.  `--json` prints the payload only; domain errors exit 1 with a
structured {"error", "detail"} document, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import TYPE_CHECKING

# Only the modules every request reads load here; each handler imports what
# it uses: symbols for obstruct and symbol, obstructions for obstruct, kummer
# for solve, fpmodules for schultz, and the table modules (numpy) for groups,
# h2, cor and autoreal, once the catalog has accepted a spec; json loads only
# where a payload or an error document is written or a file is read.  So
# `pgal --help` reads the commands' names and one-line help and nothing else.
from .arith import read_prime
from .errors import BadParams, PgalError, UnknownFamily, ZeroEntry

if TYPE_CHECKING:
    from .groups import Group
    from .symbols import FieldElem, SymbolProduct


def _load_json(path: str, what: str, build) -> tuple:
    """(build(doc), doc) for the JSON file at path; a bad file is BadParams naming it."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BadParams(f"{what} file {path!r} is not readable JSON: {exc}")
    try:
        return build(doc), doc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise BadParams(f"{what} file {path!r} is not a {what} document: {exc!r}")


def _load_group(ref: str) -> tuple[Group, object]:
    """Spec string, or a path to a group JSON file.  A spec loads the table
    modules only once the catalog has accepted it."""
    from .catalog import build_group, canonical_spec

    if os.path.exists(ref):
        from .groups import Group

        return _load_json(ref, "group", Group.from_json)
    try:
        return build_group(ref), canonical_spec(ref)
    except UnknownFamily:
        raise UnknownFamily(f"{ref!r} is neither a catalog spec nor an existing file")


def _int(tok: str, flag: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise BadParams(f"{flag} takes integers, got {tok.strip()!r}") from None


def _int_list(text: str, flag: str) -> list[int]:
    """The comma-separated integers of a flag's value; BadParams naming the
    flag and the first token that is not one."""
    return [_int(tok, flag) for tok in text.split(",") if tok.strip()]


_ELEM_RE = re.compile(r"^\s*(-?\d+(?:/\d+)?|zeta(?:\d+)?|[A-Za-z_]\w*)\s*$")


def _parse_elem(tok: str, p: int) -> FieldElem:
    from fractions import Fraction

    from . import symbols

    m = _ELEM_RE.match(tok)
    if not m:
        raise ZeroEntry(f"cannot parse field element {tok!r}")
    t = m.group(1)
    if re.match(r"^-?\d", t):
        try:
            return symbols.rat(Fraction(t))
        except ZeroDivisionError:
            raise ZeroEntry(f"field element {tok!r} has a zero denominator")
    if t == "zeta":
        return symbols.zeta(p)
    if t.startswith("zeta") and t[4:].isdigit():
        if int(t[4:]) == 0:
            raise ZeroEntry(f"field element {tok!r} is not a root of unity zeta<n>, n >= 1")
        return symbols.zeta(int(t[4:]))
    return symbols.ind(t)


def _parse_elems(text: str, p: int) -> list[FieldElem]:
    return [_parse_elem(tok, p) for tok in text.split(",") if tok.strip()]


_FACTOR_RE = re.compile(r"\(([^()]*)\)(?:\^(-?\d+))?")


def _parse_symbol_expr(text: str, p: int) -> SymbolProduct:
    from . import symbols

    factors = []
    rest = text.replace(" ", "")
    pos = 0
    while pos < len(rest):
        m = _FACTOR_RE.match(rest, pos)
        if not m:
            raise ZeroEntry(f"cannot parse symbol expression at ...{rest[pos:]!r}")
        entries = m.group(1).split(",")
        if len(entries) != 2:
            raise ZeroEntry(f"symbol factor needs two entries, got {m.group(1)!r}")
        a, b = (_parse_elem(e, p) for e in entries)
        factors.append(symbols.symbol(a, b, p).pow(int(m.group(2) or 1)))
        pos = m.end()
    return symbols.trivial(p).mul(*factors)


def _print_json(doc: dict) -> None:
    import json

    print(json.dumps(doc, sort_keys=True))


def _emit(args, payload: dict, human_lines: list[str]) -> int:
    if args.json:
        _print_json(payload)
    else:
        for line in human_lines:
            print(line)
    return 0


def _symbol_payload(sym: SymbolProduct) -> tuple[dict, list[str]]:
    from .symbols import splits_over_Q

    try:
        splits = splits_over_Q(sym)
    except PgalError:
        splits = None
    payload = {"class": str(sym), "symbol": sym.to_json(), "splits_over_Q": splits}
    lines = [f"class: {sym}"]
    if splits is not None:
        lines.append(f"splits over Q: {splits}")
    return payload, lines


# -- subcommand handlers --------------------------------------------------------


def _cmd_groups(args) -> int:
    G, ref = _load_group(args.spec)
    payload = G.to_json()
    payload["spec"] = ref if isinstance(ref, str) else None
    lines = [f"group of order {G.order}",
             "generators: " + ", ".join(f"{n}@{i}" for n, i in G.generators)]
    return _emit(args, payload, lines)


def _cmd_h2(args) -> int:
    G, ref = _load_group(args.group)
    from .cohomology import h2_enumerate

    res = h2_enumerate(G, args.p)
    payload = {
        "group": ref if isinstance(ref, str) else "(file)",
        "p": args.p,
        "dimension": res.dimension,
        "classes": res.class_count,
        "complete_enumeration": res.complete,
    }
    lines = [f"H^2 dimension {res.dimension} over F_{args.p}: {res.class_count} classes"]
    return _emit(args, payload, lines)


def _cmd_cor(args) -> int:
    G, ref = _load_group(args.group)
    from .cohomology import Cocycle2, corestrict_tate
    from .groups import Subgroup

    ids = _int_list(args.subgroup, "--subgroup")
    H = Subgroup(G, ids)
    fbar, _ = _load_json(args.cocycle, "cocycle",
                         lambda doc: Cocycle2(H.as_group(), doc["p"], doc["values"]))
    f = corestrict_tate(fbar, H, args.g)
    payload = f.to_json(group_ref=ref if isinstance(ref, str) else None)
    lines = [f"corestricted cocycle on group of order {G.order}:"]
    lines.extend(" ".join(str(v) for v in row) for row in f.values.tolist())
    return _emit(args, payload, lines)


def _zs(p: int) -> str:
    return "-1" if p == 2 else "zeta"


def _cmd_obstruct(args) -> int:
    from . import obstructions, symbols

    p = getattr(args, "p", 2)
    if args.engine == "c4":
        sym = obstructions.obstruction_c4(_parse_elem(args.a, 2))
        shown = f"({args.a},-1)"
    elif args.engine == "cp2":
        sym = obstructions.obstruction_cp2(_parse_elem(args.a, p), p)
        shown = f"({args.a},{_zs(p)})"
    elif args.engine == "massy":
        a = _parse_elems(args.a, p)
        d = _parse_d_pairs(args.d or "")
        sym = obstructions.massy(obstructions.MassyInput(p, a, d))
        names = [t.strip() for t in args.a.split(",")]

        def _pw(text, e):
            return text if e == 1 else f"{text}^{e}"

        toks = [_pw(f"({names[i - 1]},{_zs(p)})", e)
                for (i, j), e in sorted(d.items()) if i == j and e % p]
        toks += [_pw(f"({names[i - 1]},{names[j - 1]})", e)
                 for (i, j), e in sorted(d.items()) if i < j and e % p]
        shown = "".join(toks) or "1"
    elif args.engine == "direct":
        a = _parse_elems(args.a, p) if args.a else []
        d = _int_list(args.d, "--d")
        sym = obstructions.direct_factor(obstructions.DirectFactorInput(
            p, args.res, _parse_elem(args.b, p), args.j, a, d))
        shown = str(sym)
    elif args.engine == "modular":
        variant = {"m": "M", "1zeta": "1z", "zeta1": "z1", "zetazeta": "zz"}.get(
            args.variant.lower(), args.variant)
        sym = obstructions.modular_obstruction(
            variant, p, args.n, _parse_elem(args.a1, p), _parse_elem(args.a2, p))
        shown = {
            "M": f"[K,C_q,zeta]({args.a2},{args.a1})",
            "1z": f"({args.a2},{args.a1})",
            "z1": f"({args.a2},{_zs(p)})",
            "zz": f"({_zs(p)}*{args.a1},{args.a2})",
        }[variant]
    elif args.engine == "gfamily":
        sym = obstructions.g_family_obstruction(
            args.family, p, _parse_elem(args.a1, p), _parse_elem(args.a2, p),
            zeta_p2_in_k=args.zeta_p2)
        shown = str(sym)
    elif args.engine == "hw":
        form = obstructions.DiagonalForm(_parse_elems(args.q, 2))
        sym = obstructions.hasse_witt(form)
        entries = args.q.split(",")
        shown = "".join(f"({entries[i]},{entries[j]})"
                        for i in range(len(entries)) for j in range(i + 1, len(entries))) or "1"
    else:  # twist
        plus = _parse_symbol_expr(args.plus, 2) if args.plus else symbols.trivial(2)
        sym = obstructions.double_cover_twist(plus, _parse_elem(args.df, 2))
        shown = f"(-1,{args.df}){args.plus or ''}"
    payload, lines = _symbol_payload(sym)
    payload["class"] = shown
    payload["canonical"] = str(sym)
    lines.insert(0, f"displayed: {shown}")
    return _emit(args, payload, lines)


_D_RE = re.compile(r"^d(\d)(\d)$")


def _parse_d_pairs(text: str) -> dict:
    """Parse 'd11=1,d12=0' into {(1,1): 1, (1,2): 0} (single-digit indices,
    each datum given once)."""
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, _, val = piece.partition("=")
        m = _D_RE.match(key.strip())
        if not m or not val.strip().lstrip("-").isdigit():
            raise ZeroEntry(f"cannot parse commutator datum {piece!r}")
        ij = (int(m.group(1)), int(m.group(2)))
        if ij in out:
            raise ZeroEntry(f"commutator datum {key.strip()} is given more than once")
        out[ij] = int(val)
    return out


def _cmd_solve(args) -> int:
    from . import kummer

    key = kummer.witness_key(args.theorem)
    if kummer.theorem_name(args.theorem) == "T4_12":
        expr = kummer.minac_swallow_solution(args.p, args.i or 2, args.witness or key)
    else:  # the spelling as given, so that a refusal names it
        expr = kummer.build_solution(args.theorem, args.p, {key: args.witness or key})
    payload = expr.to_json()
    return _emit(args, payload, [str(expr)])


def _cmd_schultz(args) -> int:
    from . import fpmodules as fpm

    lengths = _int_list(args.summands, "--summands")
    d: dict[int, int] = {}
    for l in lengths:
        d[l] = d.get(l, 0) + 1
    A = fpm.FpGModule(args.p, args.n, d)
    dims = _int_list(args.dims, "--dims")
    top = args.p ** args.n
    if len(dims) != top:
        raise fpm.Mismatch(f"--dims needs {top} values (one per i in 1..p^n)")
    ikk = None if args.ikk in (None, "-inf", "None") else _int(args.ikk, "--ikk")
    nd = fpm.NormData(args.p, args.n, dict(enumerate(dims, start=1)), ikk,
                      args.finite == "true")
    ok = fpm.solvable(A, nd)
    deltas = fpm.deltas(A)[1:]
    payload = {"solvable": ok, "deltas": deltas, "count": None}
    lines = [f"solvable: {ok}", f"deltas: {deltas}"]
    if ok:
        count = fpm.count_solutions(A, nd)
        payload["count"] = "infinite" if count is fpm.INFINITE else count
        lines.append(f"solutions: {payload['count']}")
    return _emit(args, payload, lines)


def _cmd_autoreal(args) -> int:
    from . import autoreal as ar

    if args.action == "query":
        from .catalog import canonical_spec

        res = ar.implies(args.src, args.dst)
        payload = {"from": canonical_spec(args.src), "to": canonical_spec(args.dst),
                   "holds": res["holds"], "path": res["path"]}
        lines = [f"{payload['from']} => {payload['to']}: {res['holds']}"]
        for e in res["path"]:
            lines.append(f"  via {e['from']} => {e['to']}  [{e['cite']}]")
        return _emit(args, payload, lines)
    b = ar.multiplicity_bound(args.p, args.n, args.k)
    payload = {"p": args.p, "n": args.n, "k": args.k, "bound": b.bound, "group": b.spec}
    return _emit(args, payload, [f"nu({b.spec}) >= {b.bound}"])


def _cmd_symbol(args) -> int:
    sym = _parse_symbol_expr(args.expr, args.p)
    payload, lines = _symbol_payload(sym)
    payload["canonical"] = str(sym)
    return _emit(args, payload, lines)


# -- parser ----------------------------------------------------------------------


def _with_json(p):
    p.add_argument("--json", action="store_true", help="emit the JSON payload only")
    return p


def _groups_parser(g) -> None:
    gsub = g.add_subparsers(dest="action", required=True)
    gb = _with_json(gsub.add_parser("build", help="build a catalog group"))
    gb.add_argument("--spec", required=True, help="catalog spec, e.g. D:16, or a JSON file")
    gb.set_defaults(func=_cmd_groups)


def _h2_parser(h2) -> None:
    _with_json(h2)
    h2.add_argument("--group", required=True)
    h2.add_argument("--p", type=int, required=True)
    h2.set_defaults(func=_cmd_h2)


def _cor_parser(cor) -> None:
    _with_json(cor)
    cor.add_argument("--group", required=True)
    cor.add_argument("--subgroup", required=True, help="comma-separated element ids")
    cor.add_argument("--cocycle", required=True, help="cocycle JSON file on the subgroup")
    cor.add_argument("--g", type=int, default=None, help="coset representative outside H")
    cor.set_defaults(func=_cmd_cor)


def _obstruct_parser(ob) -> None:
    osub = ob.add_subparsers(dest="engine", required=True)
    oc4 = _with_json(osub.add_parser("c4"))
    oc4.add_argument("--a", required=True)
    ocp2 = _with_json(osub.add_parser("cp2"))
    ocp2.add_argument("--a", required=True)
    ocp2.add_argument("--p", type=int, default=2)
    om = _with_json(osub.add_parser("massy"))
    om.add_argument("--p", type=int, required=True)
    om.add_argument("--a", required=True, help="comma-separated entries")
    om.add_argument("--d", default="", help="e.g. d11=1,d12=1 (single-digit indices)")
    od = _with_json(osub.add_parser("direct"))
    od.add_argument("--p", type=int, required=True)
    od.add_argument("--b", required=True)
    od.add_argument("--j", type=int, default=0)
    od.add_argument("--a", default="")
    od.add_argument("--d", default="", help="comma-separated exponents d_i")
    od.add_argument("--res", default=None, help="opaque restricted-class name")
    omod = _with_json(osub.add_parser("modular"))
    omod.add_argument("--variant", required=True, help="m | 1zeta | zeta1 | zetazeta")
    omod.add_argument("--p", type=int, required=True)
    omod.add_argument("--n", type=int, required=True)
    omod.add_argument("--a1", required=True)
    omod.add_argument("--a2", required=True)
    ogf = _with_json(osub.add_parser("gfamily"))
    ogf.add_argument("--family", required=True, choices=["G3", "G4", "G5"])
    ogf.add_argument("--p", type=int, required=True)
    ogf.add_argument("--a1", required=True)
    ogf.add_argument("--a2", required=True)
    ogf.add_argument("--zeta-p2", dest="zeta_p2", action="store_true")
    ohw = _with_json(osub.add_parser("hw"))
    ohw.add_argument("--q", required=True, help="diagonal entries, comma separated")
    otw = _with_json(osub.add_parser("twist"))
    otw.add_argument("--df", required=True)
    otw.add_argument("--plus", default="", help="existing class, e.g. (2,-1)(3,-1)")
    for parser in (oc4, ocp2, om, od, omod, ogf, ohw, otw):
        parser.set_defaults(func=_cmd_obstruct)


def _solve_parser(so) -> None:
    _with_json(so)
    so.add_argument("--theorem", required=True, help="4.1 | 4.2 | 4.3 | 4.4 | 4.5 | 4.12")
    so.add_argument("--p", type=int, required=True)
    so.add_argument("--i", type=int, default=None, help="tower index for 4.12")
    so.add_argument("--witness", default=None)
    so.set_defaults(func=_cmd_solve)


def _schultz_parser(sc) -> None:
    scsub = sc.add_subparsers(dest="action", required=True)
    scs = _with_json(scsub.add_parser("solve"))
    scs.add_argument("--p", type=int, required=True)
    scs.add_argument("--n", type=int, required=True)
    scs.add_argument("--summands", required=True, help="summand lengths, e.g. 3 or 1,1,2")
    scs.add_argument("--dims", required=True, help="norm dimensions for i = 1..p^n")
    scs.add_argument("--ikk", default="-inf", help="level invariant, integer or -inf")
    scs.add_argument("--finite", choices=["true", "false"], default="true")
    scs.set_defaults(func=_cmd_schultz)


def _autoreal_parser(au) -> None:
    ausub = au.add_subparsers(dest="action", required=True)
    auq = _with_json(ausub.add_parser("query"))
    auq.add_argument("--from", dest="src", required=True)
    auq.add_argument("--to", dest="dst", required=True)
    auq.set_defaults(func=_cmd_autoreal)
    aub = _with_json(ausub.add_parser("bound"))
    aub.add_argument("--p", type=int, required=True)
    aub.add_argument("--n", type=int, required=True)
    aub.add_argument("--k", type=int, required=True)
    aub.set_defaults(func=_cmd_autoreal)


def _symbol_parser(sy) -> None:
    sysub = sy.add_subparsers(dest="action", required=True)
    sye = _with_json(sysub.add_parser("eval"))
    sye.add_argument("--p", type=int, required=True)
    sye.add_argument("--expr", required=True)
    sye.set_defaults(func=_cmd_symbol)


# each command's one-line help and the builder of its subtree, in the order
# `pgal --help` lists them
_COMMANDS = {
    "groups": ("catalog groups", _groups_parser),
    "h2": ("second cohomology with mu_p coefficients", _h2_parser),
    "cor": ("quadratic corestriction of a cocycle", _cor_parser),
    "obstruct": ("obstruction symbol engines", _obstruct_parser),
    "solve": ("symbolic solution expressions", _solve_parser),
    "schultz": ("module solvability and counting", _schultz_parser),
    "autoreal": ("automatic realization database", _autoreal_parser),
    "symbol": ("symbol product evaluation", _symbol_parser),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for a request whose command is command.

    A command gets only its own subtree.  Its metavar lists every command,
    so a top-level usage line (printed for an extra argument) has the same
    bytes as a parser with every subtree.  Anything else (no arguments,
    --help, an unknown command) gets each command's name and one-line help,
    all that argparse reads at the top level, and no metavar, since a
    metavar would change argparse's "required" and "invalid choice"
    messages.  Those stand-in subparsers take any arguments silently, so a
    command that follows a leading option is found (see _parse_args).
    """
    top = argparse.ArgumentParser(prog="pgal",
                                  description="central embedding problems of p-groups")
    if command in _COMMANDS:
        sub = top.add_subparsers(dest="command", required=True,
                                 metavar="{" + ",".join(_COMMANDS) + "}")
        text, build = _COMMANDS[command]
        build(sub.add_parser(command, help=text))
    else:
        sub = top.add_subparsers(dest="command", required=True)
        for name, (text, _) in _COMMANDS.items():
            sub.add_parser(name, help=text, add_help=False)
    return top


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv as a parser with every subtree reads it.  When argv does not
    start with a command, the top-level parser prints the help or a usage
    error and exits, or finds the command after leading options (`--json h2
    ...`), which its own parser then reads from the start."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        command = _build_parser().parse_known_args(argv)[0].command
    return _build_parser(command).parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    try:
        # one primality check for every command's p, with h2_enumerate's detail
        if getattr(args, "p", None) is not None:
            read_prime(args.p)
        return args.func(args)
    except PgalError as exc:
        _print_json({"error": exc.code, "detail": exc.detail})
        return 1


def main_entry() -> None:
    """`pgal` and `python -m pgal`: run main, flush, and end the process.

    os._exit skips interpreter teardown, which finalises every imported
    module (numpy included) after the answer is written; pgal registers no
    atexit callback for it to skip.  A reader that closes the pipe early ends
    the request with exit 1 and no traceback; stdout is not flushed again.
    """
    try:
        try:
            code = main()
        except SystemExit as exc:
            if not isinstance(exc.code, int):
                raise
            code = exc.code
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except BrokenPipeError:
        os._exit(1)
    os._exit(code)
