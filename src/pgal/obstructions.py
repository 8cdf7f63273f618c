"""Obstruction classes for the embedding-problem families, as symbol products.

Each engine takes structured commutator data and returns the displayed
product, already normalized.  For p = 2 the root of unity is rendered as -1
so every output is evaluable over Q.
"""

from __future__ import annotations

from .arith import read_prime
from .errors import BadFamily, BadVariant, PrimeMismatch, ZeroEntry, is_integer, read_int
from .records import Record
from .symbols import (
    FieldElem,
    SymbolProduct,
    elem_mul,
    elem_pow,
    opaque_class,
    rat,
    read_exponent,
    symbol,
    trivial,
    zeta,
)


def _read_pairs(d: dict | None, in_range) -> dict:
    """d, {} for None: each key an index pair (i, j) of integers (by
    errors.is_integer's rule) with in_range(i, j), else BadFamily, and each
    exponent d_ij read by read_exponent."""
    d = {} if d is None else d
    for key, e in d.items():
        if not (isinstance(key, tuple) and len(key) == 2 and all(map(is_integer, key))
                and in_range(*key)):
            raise BadFamily(f"bad index pair {key!r}")
        read_exponent(e, "d{}{}".format(*key))
    return d


class MassyInput(Record):
    """Data for the elementary-abelian quotient decomposition.

    d maps (i, i) to the power exponents s_i^p = zeta^(d_ii) and (i, j),
    i < j, to the commutator exponents s_i s_j = zeta^(d_ij) s_j s_i.
    Indices are 1-based to match the usual statement.
    """

    _fields = ("p", "a", "d")

    def __init__(self, p: int, a: list, d: dict | None = None):
        self.p, self.a = read_prime(p), a
        if len(self.a) < 1:
            raise ZeroEntry("need at least one a_i")
        self.d = _read_pairs(d, lambda i, j: 1 <= i <= j <= len(a))


class DirectFactorInput(Record):
    """Data for a quotient H x C_p: t^p = zeta^j and t s_i = zeta^(d_i) s_i t.

    res_class is an opaque name (str) or the SymbolProduct of [K,H,res_H gamma].
    """

    _fields = ("p", "res_class", "b", "j", "a", "d")

    def __init__(self, p: int, res_class: object, b: FieldElem | None = None, j: int = 0,
                 a: list | None = None, d: list | None = None):
        self.p, self.res_class, self.b, self.j = read_prime(p), res_class, b, read_exponent(j, "j")
        self.a, self.d = [] if a is None else a, [] if d is None else d
        if self.b is None:
            raise ZeroEntry("b is required")
        if len(self.a) != len(self.d):
            raise BadFamily("a and d must have matching lengths")
        for i, e in enumerate(self.d, start=1):
            read_exponent(e, f"d{i}")


class LedetInput(Record):
    """Data for a quotient N x H with t_j s_i = zeta^(d_ij) s_i t_j; d maps
    (i, j), 1-based, to the exponent."""

    _fields = ("p", "resN_class", "resH_class", "a", "b", "d")

    def __init__(self, p: int, resN_class: object, resH_class: object, a: list | None = None,
                 b: list | None = None, d: dict | None = None):
        self.p, self.resN_class, self.resH_class = read_prime(p), resN_class, resH_class
        self.a, self.b = [] if a is None else a, [] if b is None else b
        self.d = _read_pairs(d, lambda i, j: 1 <= i <= len(self.a) and 1 <= j <= len(self.b))


class DiagonalForm(Record):
    """Diagonal quadratic form <a_1, ..., a_n>."""

    _fields = ("entries",)

    def __init__(self, entries: list):
        self.entries = entries
        if not self.entries:
            raise ZeroEntry("a diagonal form needs at least one entry")


def _as_class(obj, p: int) -> SymbolProduct:
    """Opaque name or concrete SymbolProduct; None means the trivial class."""
    if obj is None:
        return trivial(p)
    if isinstance(obj, SymbolProduct):
        if obj.p != p:
            raise PrimeMismatch("sub-obstruction has a different prime")
        return obj
    return opaque_class(str(obj), p)


# -- base-case obstructions -----------------------------------------------------


def obstruction_c4(a: FieldElem) -> SymbolProduct:
    """Embedding a quadratic extension into a C4 extension: the class (a, -1)."""
    return symbol(a, rat(-1), 2)


def obstruction_cp2(a: FieldElem, p: int) -> SymbolProduct:
    """Embedding a degree-p Kummer extension into C_{p^2}: the class (a, zeta; zeta)."""
    p = read_prime(p)
    return symbol(a, zeta(p), p)


# -- the three decomposition formulas --------------------------------------------


def massy(data: MassyInput) -> SymbolProduct:
    """prod_i (a_i, zeta; zeta)^(d_ii) * prod_{i<k} (a_i, a_k; zeta)^(d_ik)."""
    p = data.p
    return trivial(p).mul(*(symbol(data.a[i - 1], zeta(p) if i == k else data.a[k - 1], p).pow(e)
                            for (i, k), e in sorted(data.d.items()) if e % p))


def direct_factor(data: DirectFactorInput) -> SymbolProduct:
    """[K,H,res_H gamma] * (b, zeta^j * prod a_i^(d_i); zeta)."""
    p = data.p
    right = zeta(p, data.j % p)
    for ai, di in zip(data.a, data.d):
        right = elem_mul(right, elem_pow(ai, di % p))
    return _as_class(data.res_class, p).mul(symbol(data.b, right, p))


def ledet_product(data: LedetInput) -> SymbolProduct:
    """[K,N,res_N gamma] * [K',H,res_H gamma] * prod (b_j, a_i; zeta)^(d_ij)."""
    p = data.p
    return _as_class(data.resN_class, p).mul(
        _as_class(data.resH_class, p),
        *(symbol(data.b[j - 1], data.a[i - 1], p).pow(e)
          for (i, j), e in sorted(data.d.items()) if e % p))


def relate_raise_lower(o_g1: SymbolProduct, o_cyclic: SymbolProduct) -> SymbolProduct:
    """Obstruction of the companion extension: the product of the two classes."""
    return o_g1.mul(o_cyclic)


# -- modular group and order-p^4 families -----------------------------------------


_MODULAR_VARIANTS = ("M", "1z", "z1", "zz")


def modular_obstruction(variant: str, p: int, n: int, a1: FieldElem, a2: FieldElem,
                        crossed=None) -> SymbolProduct:
    """Obstructions over the modular group's quotient, n >= 3.

    variant: "M" for the modular group itself (includes the crossed-product
    class [K,C_q,zeta]), "1z" / "z1" / "zz" for the central extensions with
    (beta^p, alpha-power relation) twisted by (1,zeta), (zeta,1), (zeta,zeta).
    """
    read_int(n, BadVariant, f"n must be an integer, got n={n}", 3,
             out_of_range="modular families need n >= 3")
    p = read_prime(p)
    if variant == "M":
        return _as_class(crossed if crossed is not None else "K,C_q,zeta", p).mul(
            symbol(a2, a1, p))
    if variant == "1z":
        return symbol(a2, a1, p)
    if variant == "z1":
        return symbol(a2, zeta(p), p)
    if variant == "zz":
        return symbol(elem_mul(zeta(p), a1), a2, p)
    raise BadVariant(f"variant must be one of {_MODULAR_VARIANTS}, got {variant!r}")


def g_family_obstruction(family: str, p: int, a1: FieldElem, a2: FieldElem,
                         cyc_factor=None, zeta_p2_in_k: bool = False) -> SymbolProduct:
    """Obstructions for the order-p^4 groups with quotient C_{p^2} x C_p."""
    p = read_prime(p)
    if family == "G3":
        return symbol(a2, a1, p)
    if family == "G4":
        return symbol(a2, elem_mul(a1, zeta(p)), p)
    if family == "G5":
        if zeta_p2_in_k:
            return symbol(elem_mul(zeta(p * p, p * p - 1), a2), a1, p)
        return _as_class(cyc_factor if cyc_factor is not None else "L1,C_p^2,zeta", p).mul(
            symbol(a2, a1, p))
    raise BadFamily(f"family must be G3, G4 or G5, got {family!r}")


# -- quadratic form invariants ------------------------------------------------------


def hasse_witt(q: DiagonalForm) -> SymbolProduct:
    """hw(q) = prod_{i<j} (a_i, a_j)."""
    a, n = q.entries, len(q.entries)
    return trivial(2).mul(*(symbol(a[i], a[j], 2) for i in range(n) for j in range(i + 1, n)))


def discriminant(q: DiagonalForm) -> FieldElem:
    return elem_mul(*q.entries) if len(q.entries) > 1 else q.entries[0]


def frohlich_obstruction(q: DiagonalForm, q_e: DiagonalForm, spin_pairs) -> SymbolProduct:
    """hw(q) hw(q_e) (d, -d_e) prod (a_i, sp(rho_i)); the twist q_e is caller data."""
    twist = symbol(discriminant(q), elem_mul(rat(-1), discriminant(q_e)), 2)
    return hasse_witt(q).mul(hasse_witt(q_e), twist,
                             *(symbol(a_i, sp_i, 2) for a_i, sp_i in spin_pairs))


def double_cover_twist(o_plus: SymbolProduct, d_f: FieldElem) -> SymbolProduct:
    """Negative-cover obstruction (-1, d_f) * O_plus; an involution on classes."""
    return symbol(rat(-1), d_f, 2).mul(o_plus)
