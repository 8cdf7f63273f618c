"""Power-commutator (pc) presentations: the type, its table, reading one off
a q-group's table, and H^2 from its tails.

A pc presentation has generators x_0 .. x_{k-1} with relative orders e_i, a
power word for x_i^{e_i} and, for i < j, a conjugate word for
x_i^{-1} x_j x_i, both over x_{i+1} .. x_{k-1}; a missing power word is the
identity, a missing conjugate x_j itself.  The normal forms
x_0^{a_0} ... x_{k-1}^{a_{k-1}}, 0 <= a_i < e_i, are numbered in mixed
radix with a_0 most significant, so G_i = <x_i, ..., x_{k-1}> is the first
|G_i| indices.  The table is built from the last level up (Holt, Eick &
O'Brien, Handbook of Computational Group Theory, 2005, ch. 8): at level i
write x = x_i, e = e_i, H = G_{i+1}, phi for h -> x^{-1} h x and w = x^e
in H; then for h, h' in H

    (x^a h)(x^b h') = x^((a+b) mod e) * w^[a+b >= e] * phi^b(h) * h'.

That is a group exactly when Hoelder's three conditions hold.  A word
{pos: a} at level i is a normal form, the x_pos^a in increasing pos with
i < pos < k and 0 <= a < e_pos (PcPresentation.of checks it), so its
element is its mixed-radix index.  pc_table walks each level (_walk),
raises its phi to the powers phi^b by doubling (_phi_powers), checks
Hoelder's conditions on them and fills the level by the level formula
(_fill); PcTails, given a pc group (a Group built from a presentation and
its pc_table), reads its z-parts off the walk's steps, takes the same
powers from _phi_powers and the psi-sums from one cumsum over them, and
fills its z-forms and classes by the same _fill.  The tails of a
presentation (ch. 8 and 9.4) extend it by a central z of order p, placed
last, with a tail z^(t_r) on each of its m = k + k(k-1)/2 relations: the
power tails of x_0 .. x_{k-1}, then the conjugate tails of the pairs
i < j in lexicographic order.
"""

from __future__ import annotations

from math import prod
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .errors import BadParams, NotPGroup, RelationInconsistent
from .groups import BLOCK_ENTRIES, Group, central_step, is_multiplicative, is_p_group, layer_basis
from .linalg import GFMatrix


class PcPresentation(NamedTuple):
    """A consistent pc presentation of a group's table: `rel_orders[i]` is
    e_i, `powers[i]` the word {position: exponent} for x_i^{e_i} and
    `conj[(i, j)]` the one for x_i^{-1} x_j x_i.  Read-only: build it with
    `of`, which rejects a stray relation key or a word not in normal form."""

    rel_orders: tuple
    powers: Mapping
    conj: Mapping

    @classmethod
    def of(cls, rel_orders, powers, conj) -> "PcPresentation":
        k = len(rel_orders)
        pairs = {(i, j) for i in range(k) for j in range(i + 1, k)}
        if stray := [r for r in powers if r not in range(k)] + [r for r in conj if r not in pairs]:
            raise RelationInconsistent(f"no relation of {k} pc generators has the key {stray[0]}")
        for i, word in [*powers.items(), *((i, w) for (i, _), w in conj.items())]:
            if bad := [(j, a) for j, a in word.items() if not (i < j < k and 0 <= a < rel_orders[j])]:
                raise RelationInconsistent(f"a word at level {i} has the letter x{bad[0][0]}^{bad[0][1]}, "
                                           f"not x_j^a with {i} < j < {k}, 0 <= a < e_j")

        def frozen(words):
            return MappingProxyType({r: MappingProxyType(dict(w)) for r, w in words.items()})
        return cls(tuple(int(e) for e in rel_orders), frozen(powers), frozen(conj))

    def join(self, other: "PcPresentation") -> "PcPresentation":
        """The presentation of the direct product, numbered as direct_product
        numbers it: other's generators follow, and commute with, self's."""
        k = len(self.rel_orders)

        def shift(word):
            return {pos + k: exp for pos, exp in word.items()}
        return PcPresentation.of(
            self.rel_orders + other.rel_orders,
            {**self.powers, **{i + k: shift(w) for i, w in other.powers.items()}},
            {**self.conj, **{(i + k, j + k): shift(w) for (i, j), w in other.conj.items()}})


def generator_indices(rel_orders) -> list[int]:
    """The element index of each x_j in the mixed-radix numbering (the
    identity when e_j = 1)."""
    return [prod(rel_orders[j + 1:]) if e > 1 else 0 for j, e in enumerate(rel_orders)]


def _walk(T, pc: PcPresentation, gen, i: int):
    """Level i over H = G_(i+1), of table T: w = x_i^e_i, its word's steps
    (prefix, pos), each the G-product prefix * x_pos, phi on H, and for j = k-1
    down to i+1 (j, phi(x_j), its word's steps, its powers pw below e_j, phi on G_(j+1)).
    A normal form and each prefix are partial sums of gen; only phi and pw read T."""
    rel, powers, conj = pc

    def word(letters):
        r, steps = 0, []
        for pos, a in sorted(letters.items()):
            steps += [(r + b * gen[pos], pos) for b in range(a)]
            r += a * gen[pos]
        return r, steps

    w, steps = word(powers.get(i, {}))
    phi, below = np.zeros(1, dtype=T.dtype), []  # phi on G_(j+1), grown to H
    for j in reversed(range(i + 1, len(rel))):
        g, g_steps = word(conj.get((i, j), {j: 1}))
        pw = [0]
        for _ in range(rel[j] - 1):
            pw.append(T[pw[-1], g])
        pw = np.array(pw)
        below.append((j, g, g_steps, pw, phi))
        phi = T[pw[:, None], phi[None, :]].ravel()
    return w, steps, phi, below


def _fill(X, Q, add) -> np.ndarray:
    """The level formula on G_i = <x> H for X on H x H (H's table, or
    z-forms with a trailing axis), with P[b] = phi^b:

        out[x^a h, x^b h'] = X[w^u phi^b(h), h'] + add,  u = [a+b >= e].

    w^u is w or 1, so the row w^u phi^b(h) is Q[k, h], k = b + e u, with Q
    the rows of P and then of w P (int16).  Built in row blocks of about
    BLOCK_ENTRIES entries, gathered straight into the output (mode="clip"
    lets take write there); add(blk, s, h, k), s = a + b and h a column,
    then adds the caller's part to a block in place.  The indices are int16,
    as each is below 2 |G_i| <= 2 MAX_ORDER."""
    e, nH = Q.shape[0] // 2, Q.shape[1]
    n = e * nH
    out = np.empty((n, n) + X.shape[2:], dtype=X.dtype)
    b = np.arange(e, dtype=np.int16)
    be = b + e
    step = max(1, BLOCK_ENTRIES // out[0].size)
    for r0 in range(0, n, step):
        a, h = np.divmod(np.arange(r0, min(n, r0 + step), dtype=np.int16)[:, None], nH)
        s = a + b
        k = np.where(s >= e, be, b)
        blk = out[r0:r0 + len(a)].reshape((len(a), e) + X.shape[1:])
        np.take(X, Q[k, h], axis=0, out=blk, mode="clip")
        add(blk, s, h, k)
    return out


def _phi_powers(phi, e: int) -> np.ndarray:
    """The rows P[b] = phi^b, b = 0..e, of phi on H (int16), by doubling:
    with P[0..c] known, P[c + t] = P[c][P[t]] = phi^c phi^t for t up to
    min(c, e - c), so about log2 e gathers.  Over the trivial H every row
    is 0, with no gather."""
    P = np.zeros((e + 1, len(phi)), dtype=np.int16)
    P[0], P[1], c = np.arange(len(phi)), phi, 1
    while len(phi) > 1 and c < e:
        t = min(c, e - c)
        P[c + 1:c + t + 1] = P[c][P[1:t + 1]]
        c += t
    return P


def pc_table(pc: PcPresentation) -> np.ndarray:
    """The int16 multiplication table of a presentation, by the level
    formula, or RelationInconsistent where Hoelder's conditions fail.

    Over the trivial group H (the last level) w = 1, so the formula is the
    cyclic table (a + b) mod e, which is built directly: _fill would spend
    a dozen passes over it on indices into a 1 x 1 table."""
    rel, T = pc.rel_orders, np.zeros((1, 1), dtype=np.int16)
    gen = generator_indices(rel)
    for i in reversed(range(len(rel))):
        e, m = rel[i], T.shape[0]
        w, _, phi, _ = _walk(T, pc, gen, i)
        P = _phi_powers(phi, e)
        _check_hoelder(T, P, w, e, i, gen[i + 1:])
        if m == 1:
            a = np.arange(e, dtype=np.int16)
            T = a[:, None] + a
            np.remainder(T, e, out=T)
            continue
        # x^((a+b) mod e) is the offset ((a+b) mod e) m
        T = _fill(T, np.concatenate([P[:e], T[w][P[:e]]]),
                  lambda blk, s, h, k: np.add(blk, (s % e * m)[:, :, None], out=blk))
    return T


def _check_hoelder(T, P, w, e, i, gens) -> None:
    """Hoelder's conditions for G_i = <x_i> H, H the group of table T
    generated by gens and P[b] = phi^b (_phi_powers), in n_i k entries as
    for homomorphisms (groups.is_multiplicative): phi is a homomorphism of
    H with trivial kernel, so bijective; phi(w) = w; and phi^e is
    conjugation by w, that is w phi^e(h) = h w for every h."""
    if not (np.count_nonzero(P[1] == 0) == 1 and is_multiplicative(P[1], T, T, gens)):
        raise RelationInconsistent(f"conjugation by x{i} is not an automorphism")
    if P[1, w] != w:
        raise RelationInconsistent(f"conjugation by x{i} does not fix x{i}^{e}")
    if not np.array_equal(T[w, P[e]], T[:, w]):
        raise RelationInconsistent(f"conjugation by x{i}, {e} times, is not conjugation by x{i}^{e}")


def read_pc(G: Group) -> tuple[Group, np.ndarray]:
    """The pc group H (generators x_i) of a presentation read off the q-group
    G's table, and the bijection L from H's numbering to G's (L[i] is the
    element whose normal form the digits of i give).

    The layers of the q-central series P_0 = G, P_(i+1) = [P_i, G] P_i^q
    (groups.central_step) are elementary abelian and central in G/P_(i+1).
    Each layer's generators are its greedy basis (groups.layer_basis): the
    least element of P_i outside the span of P_(i+1) and those picked
    before it.  Taken layer by layer they are x_0 .. x_(k-1), each G_j is
    normal in G, of index q in G_(j-1) (Handbook, 8.2-8.3), so every
    relative order is q.  The words are the digits of L^-1 at x_i^q and at
    x_i^-1 x_j x_i, which lies in x_j G_(j+1) as the series is central.
    Checked exactly: L is a bijection and multiplicative on H's pc
    generators (groups.is_multiplicative), so pc_table's table is G's
    under L.
    """
    q = is_p_group(G)
    if q is None:
        raise NotPGroup(f"|G| = {G.order} is not a prime power")
    n, T = G.order, G.np_table
    xs, P = [], np.arange(n)
    while len(P) > 1:
        below = central_step(G, P, q)
        xs += layer_basis(G, P, below, q)[0]
        P = below.elements
    k = len(xs)
    L = np.zeros(1, dtype=np.int64)
    for x in reversed(xs):
        L = T[G._powers(np.full(q, x), np.arange(q))[:, None], L[None, :]].ravel().astype(np.int64)
    L_inv = np.argsort(L)
    place = q ** np.arange(k - 1, -1, -1)

    def word(y) -> dict:
        return {pos: int(a) for pos, a in enumerate(L_inv[y] // place % q) if a}

    inv = G.inverses()
    pc = PcPresentation.of(
        [q] * k, {i: word(G.power(x, q)) for i, x in enumerate(xs)},
        {(i, j): word(T[T[inv[xs[i]], xs[j]], xs[i]]) for i in range(k) for j in range(i + 1, k)})
    H = Group(pc_table(pc), [(f"x{i}", g) for i, g in enumerate(place)], check=False, pc=pc)
    if not ((np.bincount(L, minlength=n) == 1).all() and is_multiplicative(L, H.np_table, T, H.gens)):
        raise RelationInconsistent("the read presentation does not rebuild the table")
    return H, L


def value_type(p: int) -> type:
    """The least signed integer type that holds 2p - 2, the sum of two values
    reduced mod p: the one type of cocycle values mod p, for PcTails' z-forms
    and classes and for every Cocycle2.  int64 holds it while p <= 2^62, the
    bound on the primes the cohomology layer reads."""
    return np.int8 if p <= 64 else np.int16 if p <= 16384 else np.int32 if p <= 2 ** 30 else np.int64


class PcTails:
    """H^2(G, mu_p) from the tails of the presentation of a pc group G, one
    whose table pc_table built from G.pc, so that nothing is checked again.

    The extension E numbers x z^c as p x + c, so its table is pc_table's on
    the extended presentation, and its z-parts are linear forms in the
    tails t (the G-parts are G's table whatever t is), built level by level
    with the level formula (`_tail_level`).

    Hoelder's conditions at each level become linear rows in t: phi is a
    homomorphism on the pc generators, phi(w) = w, and w phi^e(s) = s w on
    the pc generators (the G-parts hold, as G is consistent, and phi is
    bijective with phi_G).  Their common nullspace V is the set of tails for
    which E is a group, i.e. the cocycles of the presentation.  Replacing
    x_l by x_l z^(a_l) moves t by the rows of a k x m matrix delta, the
    coboundaries: the power tail of x_i by e_i a_i, the conjugate tail of
    (i, j) by a_j, each less the a_l of the letters of its word.  So
    dim H^2 = dim V - rank delta.

    The solve keeps, for each level, what builds a class from the last level
    up (`cocycle`): w, omega, P, PS and _fill's gather rows Q = [P; w P],
    about e n_H m entries; the z-forms themselves are dropped with the
    solve.  A class's values are in G's own numbering, as E's table would
    give them in T_E[::p, ::p] % p.
    """

    def __init__(self, group: Group, p: int):
        pc, table = group.pc, group.np_table
        if pc is None:
            raise BadParams(f"{group.name or 'the group'} has no pc presentation (read_pc reads one)")
        rel, k = pc.rel_orders, len(pc.rel_orders)
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        self.m = m = k + len(pairs)
        col = {pair: k + c for c, pair in enumerate(pairs)}
        # GFMatrix is TooLarge unless (p-1)^2 m < 2^63
        self.p, self.eq, self.dtype = p, GFMatrix(m, p), value_type(p)
        gen, unit = generator_indices(rel), np.eye(m, dtype=np.int64)
        delta = np.zeros((k, m), dtype=np.int64)  # z takes each word's letters off
        delta[range(k), range(k)] = rel
        delta[[j for _, j in pairs], range(k, m)] = 1
        L = np.zeros((1, 1, m), dtype=self.dtype)  # the z-forms on G_k = 1
        self.levels = []
        for i in reversed(range(k)):
            nH = L.shape[0]
            T = table[:nH, :nH]

            def z(steps, tail):
                """The z-form of a walked word times z^(t_tail); its letters come off delta."""
                out = unit[tail].copy()
                for r, pos in steps:
                    out += L[r, gen[pos]]
                    delta[pos, tail] -= 1
                return out

            w, steps, phi, below = _walk(T, pc, gen, i)
            omega, psi = z(steps, i) % p, np.zeros((1, m), dtype=np.int64)
            for j, g, g_steps, pw, phi_j in below:  # psi on G_j from G_(j+1)
                pwz = np.zeros((len(pw), m), dtype=np.int64)  # z-forms of phi(x_j)^a
                np.cumsum(z(g_steps, col[i, j]) + L[pw[:-1], g], axis=0, out=pwz[1:])
                psi = (pwz[:, None] + psi[None] + L[pw[:, None], phi_j[None]]).reshape(-1, m) % p
            e = rel[i]
            P = _phi_powers(phi, e)
            PS = np.zeros((e + 1,) + psi.shape, dtype=np.int64)  # PS[b] = sum_{r<b} psi phi^r
            np.cumsum(psi[P[:e]], axis=0, out=PS[1:])
            PS %= p
            for s in gen[i + 1:]:
                self.eq.add_rows(L[:, s] + psi[T[:, s]] - psi - psi[s] - L[phi, phi[s]])
                self.eq.add_rows((PS[e, s] + L[w, P[e, s]] - L[s, w])[None])
            self.eq.add_rows(psi[w][None])
            level = (w, omega, P[:e], PS[:e], np.concatenate([P[:e], T[w][P[:e]]]))
            self.levels.append(level)
            if i:
                L = _tail_level(L, *level, p)
        comp = GFMatrix(m, p)
        comp.add_rows(delta % p)
        kept = [v for v in self.eq.nullspace() if comp.add_rows(v[None])]
        self.basis = np.array(kept, dtype=np.int64).reshape(len(kept), m)

    def cocycle(self, t) -> np.ndarray:
        """The factor set of E for tails t in V, on G's numbering: the level
        formula from the last level up with m = 1, on omega t and PS t."""
        p, t = self.p, np.asarray(t, dtype=np.int64) % self.p
        f = np.zeros((1, 1), dtype=self.dtype)
        for w, omega, P, PS, Q in self.levels:
            f = _tail_level(f, w, omega @ t % p, P, PS @ t % p, Q, p)
        return f


def _tail_level(L, w, omega, P, PS, Q, p) -> np.ndarray:
    """The z-forms on G_i = <x> H from those on H (PcTails), by the level
    formula with w = x^e z^omega and x^-1 h x = phi(h) z^psi(h):

        f(x^a h, x^b h') = u (omega + f(w, phi^b h)) + PS[b, h] + f(w^u phi^b h, h'),

    u = [a+b >= e] and PS[b, h] = psi(h) + psi(phi h) + ... + psi(phi^(b-1) h).
    The last term is _fill's gather, and the rest, reduced mod p and indexed
    as _fill's Q, is added to each block, so one subtraction of p reduces the
    sum there."""
    rest = (np.concatenate([PS, PS + omega + L[w][P]]) % p).astype(L.dtype)

    def add(blk, s, h, k):
        blk += rest[k, h][:, :, None]
        np.subtract(blk, p, out=blk, where=blk >= p)
    return _fill(L, Q, add)
