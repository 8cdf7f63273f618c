"""The import graph of src/pgal, read with ast.

Every relative import counts, at module level and inside functions, except
those under `if TYPE_CHECKING:`, which never run.  The graph has no cycle,
groups knows nothing of the catalog or of pc presentations, and only the CLI
handlers, autoreal and the catalog import pgal modules inside functions
(their start-up lazy imports; the catalog's let a refused spec be answered
without numpy).  No module imports dataclasses, which brings inspect, ast
and dis into every process; value classes are records (pgal.records).
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
