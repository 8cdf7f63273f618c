"""The group catalog: named p-group families, each a pc presentation whose
table pgal.presentation builds and checks, and the spec strings that name
them.  A spec's order is known from its presentations alone (spec_order),
without a table or numpy."""

from __future__ import annotations

import re
from functools import partial, reduce
from math import prod
from typing import TYPE_CHECKING

from .arith import read_prime
from .errors import RelationInconsistent, UnknownFamily, check_order
from .records import Record

if TYPE_CHECKING:
    from .groups import Group


class PcSpec(Record):
    """A catalog group's pc presentation (`powers` and `conj` as in
    PcPresentation), its generators named by position in `display`.

    The family builders return one, so a group's order is known, and the
    order cap checked, before any table is allocated; the table modules (and
    numpy) load only in `build`.
    """

    _fields = ("rel_orders", "powers", "conj", "display", "name")

    def __init__(self, rel_orders, powers, conj, display, name):
        check_order(prod(rel_orders))
        self._set(rel_orders=rel_orders, powers=powers, conj=conj, display=display, name=name)

    @property
    def order(self) -> int:
        return prod(self.rel_orders)

    def build(self) -> Group:
        """The group of the presentation.  A group by construction (of
        checks the words, pc_table Hoelder's conditions), so Group does not
        validate the table again.  It keeps its presentation."""
        from . import presentation
        from .groups import Group

        gen = presentation.generator_indices(self.rel_orders)
        gens = [(gname, gen[pos]) for gname, pos in self.display]
        try:
            pc = presentation.PcPresentation.of(self.rel_orders, self.powers, self.conj)
            table = presentation.pc_table(pc)
        except RelationInconsistent as exc:
            raise RelationInconsistent(
                f"presentation for {self.name} fails to close: {exc.detail}") from exc
        return Group(table, gens, name=self.name, check=False, pc=pc)


# -- individual families ------------------------------------------------------
#
# Each builder checks its parameters and returns its member's presentation;
# build_group builds it and spec_order reads its order.


def cyclic(n: int) -> Group:
    """The cyclic group of order n, built (the family builders below give
    presentations)."""
    return _cyclic(n).build()


def _cyclic(n: int) -> PcSpec:
    if n < 1:
        raise UnknownFamily("cyclic group needs order >= 1")
    if n == 1:
        return PcSpec([], {}, {}, [], "C1")
    return PcSpec([n], {}, {}, [("sigma", 0)], f"C{n}")


def elem_abelian(p: int, r: int) -> PcSpec:
    if r < 0:
        raise UnknownFamily("elementary abelian group needs r >= 0")
    check_order(p, r)
    return PcSpec([p] * r, {}, {}, [(f"e{i + 1}", i) for i in range(r)], f"EA({p},{r})")


def _metacyclic(e: int, m: int, k: int, names: tuple, name: str, power: int = 0) -> PcSpec:
    """The group on x0 of relative order e and x1 of order m, with
    x0^-1 x1 x0 = x1^k and x0^e = x1^power (no power word at power 0), its
    generators names[0] = x1 and names[1] = x0."""
    return PcSpec([e, m], {0: {1: power}} if power else {}, {(0, 1): {1: k}},
                  list(zip(names, (1, 0))), name)


def _index_two(family: str, order: int, minimum: int, k: int, power: int = 0) -> PcSpec:
    """A 2-group family of the given order with a cyclic subgroup <sigma> of
    index 2, tau^-1 sigma tau = sigma^k and tau^2 = sigma^power."""
    _check_two_power(order, minimum)
    return _metacyclic(2, order // 2, k, ("sigma", "tau"), f"{family}{order}", power)


def _check_two_power(order: int, minimum: int) -> None:
    if order < minimum or order != 1 << (order.bit_length() - 1):
        raise UnknownFamily(f"order {order} not in this 2-power family (min {minimum})")


def modular_pgroup(p: int, n: int) -> PcSpec:
    """M(p^n), n >= 3: alpha of order p^(n-1), beta of order p, beta alpha = alpha^(1+p^(n-2)) beta."""
    if n < 3:
        raise UnknownFamily("modular group needs n >= 3")
    check_order(p, n)
    m = p ** (n - 1)
    return _metacyclic(p, m, (1 - p ** (n - 2)) % m, ("alpha", "beta"), f"M({p}^{n})")


def g2_group(p: int) -> PcSpec:
    """G2: order p^3, g1 of order p^2, g1 g2 = g2 g1^(p+1)."""
    return _metacyclic(p, p * p, p + 1, ("g1", "g2"), f"G2({p})")


# The families on relative orders [p] * r: each row holds the power words,
# the conjugate words (an exponent -1 is read mod p) and the generators as
# (name, position) pairs.  G1 is the nonabelian group of order p^3 and
# exponent p (p odd); G7 = (C_p)^3 x| C_p with [mu,tau] = sigma,
# [mu,lambda] = tau and sigma central does not close at p = 2.  A family on
# [p] * r is added as one more row and one more _FAMILIES entry.
_G_GENS = [("g1", 1), ("g2", 0), ("g3", 2), ("g4", 3)]
_WORDS = {
    "G1": ({}, {(0, 1): {1: 1, 2: -1}}, [("g1", 0), ("g2", 1), ("g3", 2)]),
    "G3": ({1: {3: 1}}, {(0, 1): {1: 1, 2: -1}}, _G_GENS),
    "G4": ({0: {2: 1}, 1: {3: 1}}, {(0, 1): {1: 1, 2: -1}}, _G_GENS),
    "G5": ({1: {2: 1}, 2: {3: 1}}, {(0, 1): {1: 1, 3: -1}}, _G_GENS),
    "G6": ({2: {3: 1}}, {(0, 1): {1: 1, 3: -1}}, _G_GENS),
    "G7": ({}, {(0, 1): {1: 1, 2: -1}, (0, 2): {2: 1, 3: -1}},
           [("sigma", 3), ("tau", 2), ("lambda", 1), ("mu", 0)]),
}


def _from_words(family: str, p: int) -> PcSpec:
    """The group of the family's _WORDS row at the prime p."""
    powers, conj, display = _WORDS[family]
    conj = {key: {pos: e % p for pos, e in word.items()} for key, word in conj.items()}
    return PcSpec([p] * len(display), powers, conj, display, f"{family}({p})")


def mss_semidirect(p: int, n: int, j: int) -> PcSpec:
    """M_j x| C_{p^n}: the cyclic group ring quotient F_p[C_{p^n}]/(s-1)^j acted on by s.

    Module basis b_i = (s-1)^i, i < j, with s b_i s^{-1} = b_i + b_{i+1};
    as a pc presentation on b_0 .. b_{j-1}, s that is b_i^{-1} s b_i =
    b_{i+1} s (just s for i = j-1).  n >= 1: C:p names the group at n = 0.
    """
    if n < 1:
        raise UnknownFamily(f"MSS needs n >= 1, got n={n}")
    # p^n > j once n >= bit_length(j), so the power stays small
    if not 1 <= j <= p ** min(n, j.bit_length()):
        raise UnknownFamily(f"need 1 <= j <= p^n, got j={j}")
    check_order(p, j + n)
    return PcSpec(
        [p] * j + [p ** n],
        {},
        {(i, j): {i + 1: 1, j: 1} for i in range(j - 1)},
        [("s", j), ("m", 0)],
        f"MSS({p},{n},{j})",
    )


# -- spec-string front end ----------------------------------------------------

# each family's parameters, in the order its builder takes them; a family
# whose parameters are _BARE takes its value bare, as in 'D:16'
_BARE = ("order",)
_FAMILIES = {
    "C": (_BARE, _cyclic),
    "D": (_BARE, lambda order: _index_two("D", order, 8, order // 2 - 1)),
    "SD": (_BARE, lambda order: _index_two("SD", order, 16, order // 4 - 1)),
    "Q": (_BARE, lambda order: _index_two("Q", order, 8, order // 2 - 1, order // 4)),
    "M": (_BARE, lambda order: _index_two("M", order, 16, order // 4 + 1)),
    "EA": (("p", "r"), elem_abelian),
    "G1": (("p",), partial(_from_words, "G1")),
    "G2": (("p",), g2_group),
    "G3": (("p",), partial(_from_words, "G3")),
    "G4": (("p",), partial(_from_words, "G4")),
    "G5": (("p",), partial(_from_words, "G5")),
    "G6": (("p",), partial(_from_words, "G6")),
    "G7": (("p",), partial(_from_words, "G7")),
    "Mmod": (("p", "n"), modular_pgroup),
    "MSS": (("p", "n", "j"), mss_semidirect),
}

# at most 4000 digits, below Python's limit for converting a string to int
_PARAM_RE = re.compile(r"^([a-zA-Z][a-zA-Z0-9]*)=(-?\d{1,4000})$")


def parse_spec(spec: str) -> list[tuple[str, dict]]:
    """The factors of a catalog spec like 'D:16', 'G1:p=3' or 'D:8*C:2', each
    a (family, params) pair with params in the order the builder takes them.

    A factor is accepted only if its family is known, it gives each of the
    family's parameters exactly once and no other, and its p is prime;
    anything else is UnknownFamily.
    """
    return [_parse_factor(part.strip()) for part in spec.split("*")]


def _parse_factor(spec: str) -> tuple[str, dict]:
    fam, colon, rest = spec.partition(":")
    fam = fam.strip()
    if not colon:
        raise UnknownFamily(f"spec {spec!r} has no family prefix")
    if fam not in _FAMILIES:
        raise UnknownFamily(f"unknown family {fam!r}")
    names = _FAMILIES[fam][0]
    if names == _BARE:
        try:
            return fam, {names[0]: int(rest)}
        except ValueError:
            raise UnknownFamily(f"spec {spec!r} needs a numeric order")
    given = []
    for piece in rest.split(",") if rest.strip() else []:
        m = _PARAM_RE.match(piece.strip())
        if not m:
            raise UnknownFamily(f"bad parameter {piece!r}")
        given.append((m.group(1), int(m.group(2))))
    if sorted(name for name, _ in given) != sorted(names):
        raise UnknownFamily(f"{fam} takes each of the parameters {list(names)} exactly once")
    params = dict(given)
    if "p" in params:
        read_prime(params["p"], UnknownFamily, f"{fam} needs a prime p, got p={params['p']}")
    return fam, {name: params[name] for name in names}


def canonical_spec(spec: str) -> str:
    """The spec with each factor's parameters sorted by name."""
    return "*".join(
        f"{fam}:" + ",".join(str(v) if _FAMILIES[fam][0] == _BARE else f"{k}={v}"
                             for k, v in sorted(params.items()))
        for fam, params in parse_spec(spec))


def _pc_specs(spec: str) -> list[PcSpec]:
    """The presentation of each factor of spec, from its family's builder."""
    return [_FAMILIES[fam][1](*params.values()) for fam, params in parse_spec(spec)]


def _product_order(factors: list[PcSpec]) -> int:
    """The order of the factors' direct product, checked against the cap as
    each factor joins, as direct_product checks it."""
    order = 1
    for pc in factors:
        order *= pc.order
        check_order(order)
    return order


def spec_order(spec: str) -> int:
    """The order of build_group(spec), read off the factors' relative orders
    without a table or numpy.  A spec that build_group refuses is refused
    with the same error, except a presentation that fails to close (G7:p=2),
    which only building the table finds."""
    return _product_order(_pc_specs(spec))


def build_group(spec: str) -> Group:
    """Build a catalog group from its spec string (see parse_spec); a product
    of factors is their direct product.  Every factor's presentation, and
    the product's order, is checked before the first table is built."""
    factors = _pc_specs(spec)
    _product_order(factors)
    from .groups import direct_product

    return reduce(direct_product, [pc.build() for pc in factors])
