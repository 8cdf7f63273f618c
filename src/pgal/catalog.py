"""The group catalog: named p-group families, each a pc presentation whose
table pgal.presentation builds and checks, and the spec strings that name
them."""

from __future__ import annotations

import re
from functools import reduce
from math import prod

from .arith import is_prime
from .errors import OrderTooLarge, RelationInconsistent, UnknownFamily
from .groups import MAX_ORDER, Group, direct_product
from .presentation import PcPresentation, generator_indices, pc_table


def _pc_group(rel_orders, powers, conj, display, name) -> Group:
    """The group of a pc presentation (`powers` and `conj` as in
    PcPresentation), its generators named by position.

    The order cap is checked before any table is allocated.  A group by
    construction (of checks the words, pc_table Hoelder's conditions), so
    Group does not validate the table again.  It keeps its presentation.
    """
    _check_order(prod(rel_orders))
    gen = generator_indices(rel_orders)
    gens = [(gname, gen[pos]) for gname, pos in display]
    try:
        pc = PcPresentation.of(rel_orders, powers, conj)
        table = pc_table(pc)
    except RelationInconsistent as exc:
        raise RelationInconsistent(f"presentation for {name} fails to close: {exc.detail}") from exc
    return Group(table, gens, name=name, check=False, pc=pc)


def _check_order(p: int, e: int = 1) -> None:
    """Raise OrderTooLarge unless the order p^e is at most MAX_ORDER.

    A huge p^e is never formed: the detail shows the order in decimal, or
    as p^e when that has more than 4096 bits.
    """
    if p < 2 or e < MAX_ORDER.bit_length() and p ** e <= MAX_ORDER:
        return
    order = f"{p}^{e}" if e > 1 and e * p.bit_length() > 4096 else p ** e
    raise OrderTooLarge(f"order {order} exceeds cap {MAX_ORDER}")


# -- individual families ------------------------------------------------------


def cyclic(n: int) -> Group:
    if n < 1:
        raise UnknownFamily("cyclic group needs order >= 1")
    if n == 1:
        return _pc_group([], {}, {}, [], "C1")
    return _pc_group([n], {}, {}, [("sigma", 0)], f"C{n}")


def elem_abelian(p: int, r: int) -> Group:
    if r < 0:
        raise UnknownFamily("elementary abelian group needs r >= 0")
    _check_order(p, r)
    return _pc_group([p] * r, {}, {}, [(f"e{i + 1}", i) for i in range(r)], f"EA({p},{r})")


def dihedral(order: int) -> Group:
    _check_two_power(order, minimum=8)
    m = order // 2
    return _pc_group(
        [2, m],
        {},
        {(0, 1): {1: m - 1}},
        [("sigma", 1), ("tau", 0)],
        f"D{order}",
    )


def semidihedral(order: int) -> Group:
    _check_two_power(order, minimum=16)
    m = order // 2
    return _pc_group(
        [2, m],
        {},
        {(0, 1): {1: m // 2 - 1}},
        [("sigma", 1), ("tau", 0)],
        f"SD{order}",
    )


def quaternion(order: int) -> Group:
    _check_two_power(order, minimum=8)
    m = order // 2
    return _pc_group(
        [2, m],
        {0: {1: m // 2}},
        {(0, 1): {1: m - 1}},
        [("sigma", 1), ("tau", 0)],
        f"Q{order}",
    )


def modular_max_cyclic(order: int) -> Group:
    """M_{2^n}: the modular 2-group with cyclic subgroup of index 2.

    Same presentation as M(2^n), but carrying the sigma/tau generator names
    used for the index-2 families.
    """
    _check_two_power(order, minimum=16)
    m = order // 2
    return _pc_group(
        [2, m],
        {},
        {(0, 1): {1: m // 2 + 1}},
        [("sigma", 1), ("tau", 0)],
        f"M{order}",
    )


def modular_pgroup(p: int, n: int) -> Group:
    """M(p^n), n >= 3: alpha of order p^(n-1), beta of order p, beta alpha = alpha^(1+p^(n-2)) beta."""
    if n < 3:
        raise UnknownFamily("modular group needs n >= 3")
    _check_order(p, n)
    m = p ** (n - 1)
    q = p ** (n - 2)
    return _pc_group(
        [p, m],
        {},
        {(0, 1): {1: (1 - q) % m}},
        [("alpha", 1), ("beta", 0)],
        f"M({p}^{n})",
    )


def heisenberg(p: int) -> Group:
    """G1: the nonabelian group of order p^3 and exponent p (p odd)."""
    return _pc_group(
        [p, p, p],
        {},
        {(0, 1): {1: 1, 2: p - 1}},
        [("g1", 0), ("g2", 1), ("g3", 2)],
        f"G1({p})",
    )


def g2_group(p: int) -> Group:
    """G2: order p^3, g1 of order p^2, g1 g2 = g2 g1^(p+1)."""
    return _pc_group(
        [p, p * p],
        {},
        {(0, 1): {1: p + 1}},
        [("g1", 1), ("g2", 0)],
        f"G2({p})",
    )


def g3_group(p: int) -> Group:
    return _pc_group(
        [p, p, p, p],
        {1: {3: 1}},
        {(0, 1): {1: 1, 2: p - 1}},
        [("g1", 1), ("g2", 0), ("g3", 2), ("g4", 3)],
        f"G3({p})",
    )


def g4_group(p: int) -> Group:
    return _pc_group(
        [p, p, p, p],
        {0: {2: 1}, 1: {3: 1}},
        {(0, 1): {1: 1, 2: p - 1}},
        [("g1", 1), ("g2", 0), ("g3", 2), ("g4", 3)],
        f"G4({p})",
    )


def g5_group(p: int) -> Group:
    return _pc_group(
        [p, p, p, p],
        {1: {2: 1}, 2: {3: 1}},
        {(0, 1): {1: 1, 3: p - 1}},
        [("g1", 1), ("g2", 0), ("g3", 2), ("g4", 3)],
        f"G5({p})",
    )


def g6_group(p: int) -> Group:
    return _pc_group(
        [p, p, p, p],
        {2: {3: 1}},
        {(0, 1): {1: 1, 3: p - 1}},
        [("g1", 1), ("g2", 0), ("g3", 2), ("g4", 3)],
        f"G6({p})",
    )


def g7_group(p: int) -> Group:
    """G7 = (C_p)^3 x| C_p with [mu,tau]=sigma, [mu,lambda]=tau, sigma central.

    p odd: at p = 2 the presentation does not close (RelationInconsistent).
    """
    return _pc_group(
        [p, p, p, p],
        {},
        {(0, 1): {1: 1, 2: p - 1}, (0, 2): {2: 1, 3: p - 1}},
        [("sigma", 3), ("tau", 2), ("lambda", 1), ("mu", 0)],
        f"G7({p})",
    )


def mss_semidirect(p: int, n: int, j: int) -> Group:
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
    _check_order(p, j + n)
    return _pc_group(
        [p] * j + [p ** n],
        {},
        {(i, j): {i + 1: 1, j: 1} for i in range(j - 1)},
        [("s", j), ("m", 0)],
        f"MSS({p},{n},{j})",
    )


def _check_two_power(order: int, minimum: int) -> None:
    if order < minimum or order != 1 << (order.bit_length() - 1):
        raise UnknownFamily(f"order {order} not in this 2-power family (min {minimum})")


# -- spec-string front end ----------------------------------------------------

# each family's parameters, in the order its builder takes them; a family
# whose parameters are _BARE takes its value bare, as in 'D:16'
_BARE = ("order",)
_FAMILIES = {
    "C": (_BARE, cyclic),
    "D": (_BARE, dihedral),
    "SD": (_BARE, semidihedral),
    "Q": (_BARE, quaternion),
    "M": (_BARE, modular_max_cyclic),
    "EA": (("p", "r"), elem_abelian),
    "G1": (("p",), heisenberg),
    "G2": (("p",), g2_group),
    "G3": (("p",), g3_group),
    "G4": (("p",), g4_group),
    "G5": (("p",), g5_group),
    "G6": (("p",), g6_group),
    "G7": (("p",), g7_group),
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
    if "p" in params and not is_prime(params["p"]):
        raise UnknownFamily(f"{fam} needs a prime p, got p={params['p']}")
    return fam, {name: params[name] for name in names}


def canonical_spec(spec: str) -> str:
    """The spec with each factor's parameters sorted by name."""
    return "*".join(
        f"{fam}:" + ",".join(str(v) if _FAMILIES[fam][0] == _BARE else f"{k}={v}"
                             for k, v in sorted(params.items()))
        for fam, params in parse_spec(spec))


def build_group(spec: str) -> Group:
    """Build a catalog group from its spec string (see parse_spec); a product
    of factors is their direct product."""
    groups = [_FAMILIES[fam][1](*params.values()) for fam, params in parse_spec(spec)]
    return reduce(direct_product, groups)
