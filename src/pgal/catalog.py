"""The group catalog: named p-group families built from pc presentations.

Every family is a power-commutator (pc) presentation on generators x_0 ..
x_{k-1} with relative orders e_i: a power word for x_i^{e_i} and, for
i < j, a conjugation word for x_i^{-1} x_j x_i, both over x_{i+1} ..
x_{k-1}.  Elements are the normal forms x_0^{a_0} ... x_{k-1}^{a_{k-1}}
with 0 <= a_i < e_i, numbered in mixed radix with a_0 most significant.

One builder makes every table, one level at a time (Holt, Eick & O'Brien,
Handbook of Computational Group Theory, 2005, ch. 8): G_i = <x_i> G_{i+1}
is a cyclic extension of G_{i+1}, and its table is a few numpy gathers
from the table of G_{i+1}.  Each level checks Hoelder's three conditions
for such an extension on the pc generators of G_{i+1}, in n_i k entries as
for homomorphisms (groups._is_multiplicative), so an inconsistent
presentation raises RelationInconsistent instead of giving a table, and a
consistent one gives a group: the table is built once, in int16, and Group
does not validate it again.
"""

from __future__ import annotations

import re
from math import prod

import numpy as np

from .arith import is_prime
from .errors import OrderTooLarge, RelationInconsistent, UnknownFamily
from .groups import MAX_ORDER, Group, _is_multiplicative, direct_product


def _pc_group(rel_orders, powers, conj, display, name) -> Group:
    """The group of a pc presentation, its generators named by position.

    `powers[i]` is {pos: exp} for x_i^{e_i} and `conj[(i, j)]` (i < j) the
    same for x_i^{-1} x_j x_i, both over positions > i; a missing power
    word is the identity, a missing conjugate x_j itself.

    The table is built from the last level up.  At level i write x = x_i,
    e = e_i, H = G_{i+1}, phi for conjugation h -> x^{-1} h x (the words
    `conj[(i, j)]`, extended over normal forms) and w = x^e in H.  Then for
    h, h' in H

        (x^a h)(x^b h') = x^((a+b) mod e) * w^[a+b >= e] * phi^b(h) * h'.

    That is a group exactly when Hoelder's conditions hold, and each level
    checks all three: phi is a bijective homomorphism of H (the law on H's
    pc generators, not on H's full table), phi(w) = w, and phi^e is
    conjugation by w.  The order cap is checked before any table is
    allocated.  A group by construction, since Hoelder's conditions held at
    every level.
    """
    _check_order(prod(rel_orders))
    gens = [(gname, prod(rel_orders[pos + 1:])) for gname, pos in display]
    try:
        return Group(_pc_table(rel_orders, powers, conj), gens, name=name, check=False)
    except RelationInconsistent as exc:
        raise RelationInconsistent(f"presentation for {name} fails to close: {exc.detail}") from exc


def _pc_table(rel_orders, powers, conj) -> np.ndarray:
    """The int16 multiplication table of a pc presentation (see _pc_group)."""
    k = len(rel_orders)
    # index of x_j (the identity when e_j = 1)
    gen = [prod(rel_orders[j + 1:]) if rel_orders[j] > 1 else 0 for j in range(k)]
    T = np.zeros((1, 1), dtype=np.int16)
    for i in reversed(range(k)):
        e, m = rel_orders[i], T.shape[0]

        def word(letters):
            r = 0
            for pos, exp in sorted(letters.items()):
                for _ in range(exp):
                    r = T[r, gen[pos]]
            return r

        w = word(powers.get(i, {}))
        phi = np.zeros(1, dtype=np.int16)  # phi on G_{j+1}, grown to G_{i+1}
        for j in reversed(range(i + 1, k)):
            g = word(conj.get((i, j), {j: 1}))
            pw = [0]  # phi(x_j)^a for a < e_j
            for _ in range(rel_orders[j] - 1):
                pw.append(T[pw[-1], g])
            phi = T[np.array(pw)[:, None], phi[None, :]].ravel()
        _check_hoelder(T, phi, w, e, i, gen[i + 1:])

        P = np.empty((e, m), dtype=np.int16)  # P[t] = phi^t
        P[0] = np.arange(m)
        for t in range(1, e):
            P[t] = phi[P[t - 1]]
        # fill the level in at most 16 blocks of a, so that no index array
        # approaches the size of the new table; mode="clip" lets take write
        # straight into it
        out = np.empty((e, m, e, m), dtype=np.int16)
        b = np.arange(e)
        step = -(-e // 16)
        for a0 in range(0, e, step):
            s = np.arange(a0, min(a0 + step, e))[:, None] + b  # a + b
            R = T[np.where(s >= e, w, 0)[:, None, :], P.T[None]]
            blk = out[a0:a0 + len(s)]
            np.take(T, R, axis=0, out=blk, mode="clip")
            blk += (s % e * m).astype(np.int16)[:, None, :, None]
        T = out.reshape(e * m, e * m)
    return T


def _check_order(p: int, e: int = 1) -> None:
    """Raise OrderTooLarge unless the order p^e is at most MAX_ORDER.

    A huge p^e is never formed: the detail shows the order in decimal, or
    as p^e when that has more than 4096 bits.
    """
    if p < 2 or e < MAX_ORDER.bit_length() and p ** e <= MAX_ORDER:
        return
    order = f"{p}^{e}" if e > 1 and e * p.bit_length() > 4096 else p ** e
    raise OrderTooLarge(f"order {order} exceeds cap {MAX_ORDER}")


def _check_hoelder(T, phi, w, e, i, gens) -> None:
    """Hoelder's conditions for G_i = <x_i> H, H the group of table T
    generated by gens.  A homomorphism of H with trivial kernel is bijective,
    and phi^e is conjugation by w when w phi^e(h) = h w for every h."""
    if not (np.count_nonzero(phi == 0) == 1 and _is_multiplicative(phi, T, T, gens)):
        raise RelationInconsistent(f"conjugation by x{i} is not an automorphism")
    if phi[w] != w:
        raise RelationInconsistent(f"conjugation by x{i} does not fix x{i}^{e}")
    phi_e, base, n = np.arange(T.shape[0]), phi, e
    while n:
        if n & 1:
            phi_e = base[phi_e]
        base, n = base[base], n >> 1
    if not np.array_equal(T[w, phi_e], T[:, w]):
        raise RelationInconsistent(f"conjugation by x{i}, {e} times, is not conjugation by x{i}^{e}")


# -- individual families ------------------------------------------------------


def cyclic(n: int) -> Group:
    if n < 1:
        raise UnknownFamily("cyclic group needs order >= 1")
    return _pc_group([n], {}, {}, [("sigma", 0)] if n > 1 else [], f"C{n}")


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
    b_{i+1} s (just s for i = j-1).
    """
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

# at most 4000 digits, below Python's limit for converting a string to int
_PARAM_RE = re.compile(r"^([a-zA-Z][a-zA-Z0-9]*)=(-?\d{1,4000})$")


def _params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        m = _PARAM_RE.match(piece.strip())
        if not m:
            raise UnknownFamily(f"bad parameter {piece!r}")
        out[m.group(1)] = int(m.group(2))
    return out


def parse_spec(spec: str):
    """Split a catalog spec like 'D:16' or 'G1:p=3' into (family, params)."""
    spec = spec.strip()
    if "*" in spec:
        return "product", {"parts": [parse_spec(s) for s in spec.split("*")]}
    if ":" not in spec:
        raise UnknownFamily(f"spec {spec!r} has no family prefix")
    fam, _, rest = spec.partition(":")
    fam = fam.strip()
    if fam in ("C", "D", "SD", "Q", "M"):
        try:
            return fam, {"order": int(rest)}
        except ValueError:
            raise UnknownFamily(f"spec {spec!r} needs a numeric order")
    return fam, _params(rest)


def canonical_spec(spec: str) -> str:
    fam, params = parse_spec(spec)
    if fam == "product":
        return "*".join(canonical_spec(_unparse(f, p)) for f, p in params["parts"])
    return _unparse(fam, params)


def _unparse(fam, params) -> str:
    if "order" in params:
        return f"{fam}:{params['order']}"
    inner = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{fam}:{inner}"


_FAMILIES = {
    "C": lambda prm: cyclic(prm["order"]),
    "D": lambda prm: dihedral(prm["order"]),
    "SD": lambda prm: semidihedral(prm["order"]),
    "Q": lambda prm: quaternion(prm["order"]),
    "M": lambda prm: modular_max_cyclic(prm["order"]),
    "EA": lambda prm: elem_abelian(prm["p"], prm["r"]),
    "G1": lambda prm: heisenberg(prm["p"]),
    "G2": lambda prm: g2_group(prm["p"]),
    "G3": lambda prm: g3_group(prm["p"]),
    "G4": lambda prm: g4_group(prm["p"]),
    "G5": lambda prm: g5_group(prm["p"]),
    "G6": lambda prm: g6_group(prm["p"]),
    "G7": lambda prm: g7_group(prm["p"]),
    "Mmod": lambda prm: modular_pgroup(prm["p"], prm["n"]),
    "MSS": lambda prm: mss_semidirect(prm["p"], prm["n"], prm["j"]),
}


def build_group(spec: str) -> Group:
    """Build a catalog group from its spec string (see parse_spec)."""
    fam, params = parse_spec(spec)
    if fam == "product":
        parts = [build_group(_unparse(f, p)) for f, p in params["parts"]]
        out = parts[0]
        for nxt in parts[1:]:
            out = direct_product(out, nxt)
        return out
    if fam not in _FAMILIES:
        raise UnknownFamily(f"unknown family {fam!r}")
    missing = _required_params(fam) - set(params)
    if missing:
        raise UnknownFamily(f"{fam} needs parameters {sorted(missing)}")
    if "p" in params and not is_prime(params["p"]):
        raise UnknownFamily(f"{fam} needs a prime p, got p={params['p']}")
    return _FAMILIES[fam](params)


def _required_params(fam: str) -> set:
    if fam in ("C", "D", "SD", "Q", "M"):
        return {"order"}
    if fam == "EA":
        return {"p", "r"}
    if fam == "Mmod":
        return {"p", "n"}
    if fam == "MSS":
        return {"p", "n", "j"}
    return {"p"}
