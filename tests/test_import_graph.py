"""The import graph of src/pgal, read with ast.

Every relative import counts, at module level and inside functions, except
those under `if TYPE_CHECKING:`, which never run.  The graph has no cycle,
groups knows nothing of the catalog or of pc presentations, and only the CLI
handlers, autoreal and the catalog import pgal modules inside functions
(their start-up lazy imports; the catalog's let a refused spec be answered
without numpy).  No module imports dataclasses, which brings inspect, ast
and dis into every process; value classes are records (pgal.records).  Every
lru_cache names an integer maxsize and no module uses functools.cache, so no
module-global cache grows without bound.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "src" / "pgal"
LAZY = {"cli", "autoreal", "catalog"}


def _imports(tree):
    """(imported module, inside a function) for each relative import."""
    out = []

    def visit(node, in_function):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            for child in node.orelse:
                visit(child, in_function)
            return
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            out.extend((name.split(".")[0], in_function) for name in names)
        inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, False)
    return out


def _graph():
    return {path.stem: _imports(ast.parse(path.read_text()))
            for path in sorted(PKG.glob("*.py"))}


def test_the_reader_sees_module_level_function_level_and_type_checking_imports():
    tree = ast.parse("from typing import TYPE_CHECKING\nfrom .a import x\n"
                     "if TYPE_CHECKING:\n    from .b import y\n"
                     "def f():\n    from . import c, d\n")
    assert _imports(tree) == [("a", False), ("c", True), ("d", True)]


def test_the_import_graph_is_acyclic():
    edges = {mod: {dep for dep, _ in deps} for mod, deps in _graph().items()}
    done, path = set(), []

    def visit(mod):
        assert mod not in path, " -> ".join(path[path.index(mod):] + [mod])
        if mod in done:
            return
        path.append(mod)
        for dep in sorted(edges.get(mod, ())):
            visit(dep)
        path.pop()
        done.add(mod)

    for mod in sorted(edges):
        visit(mod)


def test_groups_imports_neither_the_catalog_nor_the_presentations():
    deps = {dep for dep, _ in _graph()["groups"]}
    assert not deps & {"catalog", "presentation"}


def test_only_the_cli_and_autoreal_import_inside_functions():
    lazy = {mod for mod, deps in _graph().items() if any(inner for _, inner in deps)}
    assert lazy == LAZY


def test_the_cli_imports_only_arith_and_errors_at_module_level():
    """Each handler imports what it reads, so `pgal --help` loads no other
    pgal module; every request reads errors, and arith's is_prime checks
    each command's p."""
    assert {dep for dep, inner in _graph()["cli"] if not inner} == {"arith", "errors"}


def _absolute_imports(tree):
    """The top-level package of each absolute import, anywhere in the module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_the_reader_sees_absolute_imports_at_any_depth():
    tree = ast.parse("import os.path\nfrom .a import x\n"
                     "def f():\n    from dataclasses import dataclass\n")
    assert _absolute_imports(tree) == {"os", "dataclasses"}


def test_no_module_imports_dataclasses():
    users = sorted(path.stem for path in PKG.glob("*.py")
                   if "dataclasses" in _absolute_imports(ast.parse(path.read_text())))
    assert users == []


def _name(node):
    """The name a Name or an Attribute node ends in, else None."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _caches(tree):
    """({function: maxsize} for each function decorated with lru_cache,
    maxsize None unless an integer literal; the lru_cache references outside
    imports; whether functools.cache is imported or used)."""
    sizes, refs, unbounded = {}, 0, False
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                if _name(call.func if call else dec) != "lru_cache":
                    continue
                args = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1] \
                    if call else []
                literal = args and isinstance(args[0], ast.Constant) and type(args[0].value) is int
                sizes[node.name] = args[0].value if literal else None
        elif isinstance(node, (ast.Name, ast.Attribute)) and _name(node) == "lru_cache":
            refs += 1
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            unbounded |= any(alias.name == "cache" for alias in node.names)
        if isinstance(node, ast.Attribute) and node.attr == "cache" \
                and _name(node.value) == "functools":
            unbounded = True
    return sizes, refs, unbounded


def test_the_reader_sees_lru_caches_and_functools_cache():
    tree = ast.parse("import functools\nfrom functools import lru_cache\n"
                     "@lru_cache(maxsize=8)\ndef a(): pass\n"
                     "@functools.lru_cache(None)\ndef b(): pass\n"
                     "@lru_cache\ndef c(): pass\n"
                     "d = lru_cache(maxsize=4)(len)\n")
    assert _caches(tree) == ({"a": 8, "b": None, "c": None}, 4, False)
    assert _caches(ast.parse("import functools\nf = functools.cache(len)\n"))[2]
    assert _caches(ast.parse("from functools import cache\n"))[2]


def test_every_cache_is_bounded():
    """The caches are listed, so a new memo shows up as a change to this test."""
    found = {}
    for path in sorted(PKG.glob("*.py")):
        sizes, refs, unbounded = _caches(ast.parse(path.read_text()))
        assert not unbounded, f"{path.stem} uses functools.cache"
        assert refs == len(sizes), f"{path.stem} uses lru_cache other than as a decorator"
        found.update({f"{path.stem}.{name}": size for name, size in sizes.items()})
    assert found == {"arith._cofactor_primes": 1024}
