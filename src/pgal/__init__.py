"""pgal: central embedding problems of p-groups, computationally.

Groups are explicit multiplication tables, cohomology is 2-cocycles with
mu_p coefficients, obstructions are formal p-cyclic algebra symbols with
exact splitting decisions over Q for p = 2, and solutions are symbolic
Kummer towers.

The names below are re-exported lazily (PEP 562): `python -m pgal` runs this
file first, and a symbol command should not pay for numpy and the table
modules it never uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "Group": "groups",
    "GroupHom": "groups",
    "Subgroup": "groups",
    "build_group": "catalog",
    "Cocycle2": "cohomology",
    "ExtensionClass": "cohomology",
    "FieldElem": "symbols",
    "SymbolProduct": "symbols",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
