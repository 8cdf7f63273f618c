"""Finite groups as explicit multiplication tables.

Elements are indices 0..order-1 with 0 the identity.  Tables are validated
on construction: Latin square, identity laws, associativity (fully up to
order 64, on 10^4 random triples above), and generation by the named
generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .errors import (
    BadM,
    NotNormal,
    NotPGroup,
    RelationInconsistent,
    TargetMismatch,
    TooLarge,
)

MAX_ORDER = 4096
FULL_CHECK_ORDER = 64
ASSOC_SAMPLES = 10_000


class Group:
    """Immutable finite group given by its full multiplication table."""

    def __init__(self, table, generators, name: str = "", check: bool = True):
        arr = np.array(table, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise RelationInconsistent("table must be square")
        if arr.shape[0] > MAX_ORDER:
            raise RelationInconsistent(f"order {arr.shape[0]} exceeds cap {MAX_ORDER}")
        arr.setflags(write=False)
        self._np = arr
        self.order = int(arr.shape[0])
        self.generators = [(str(n), int(i)) for n, i in generators]
        self.name = name
        self._inv: np.ndarray | None = None
        self._orders: list[int] | None = None
        if check:
            self._validate()

    # -- validation ------------------------------------------------------

    def _validate(self) -> None:
        n = self.order
        T = self._np
        if T.min() < 0 or T.max() >= n:
            raise RelationInconsistent("table entries out of range")
        ar = np.arange(n)
        if not (np.array_equal(np.sort(T, axis=1), np.tile(ar, (n, 1)))
                and np.array_equal(np.sort(T, axis=0), np.tile(ar[:, None], (1, n)))):
            raise RelationInconsistent("table is not a Latin square")
        if not (np.array_equal(T[0], ar) and np.array_equal(T[:, 0], ar)):
            raise RelationInconsistent("index 0 is not a two-sided identity")
        if n <= FULL_CHECK_ORDER:
            if not np.array_equal(T[T, :], T[:, T]):
                raise RelationInconsistent("associativity fails")
        else:
            rng = random.Random(0x5EED ^ n)
            for _ in range(ASSOC_SAMPLES):
                x, y, z = (rng.randrange(n) for _ in range(3))
                if T[T[x, y], z] != T[x, T[y, z]]:
                    raise RelationInconsistent("associativity fails (sampled)")
        gen_idx = [i for _, i in self.generators]
        if sorted(self.closure(gen_idx)) != list(range(n)):
            raise RelationInconsistent("generators do not generate the group")

    # -- basic operations --------------------------------------------------

    @property
    def table(self) -> list[list[int]]:
        return self._np.tolist()

    @property
    def np_table(self) -> np.ndarray:
        return self._np

    def mul(self, a: int, b: int) -> int:
        return int(self._np[a, b])

    def inv(self, a: int) -> int:
        if self._inv is None:
            self._inv = np.nonzero(self._np == 0)[1]  # one 0 per row, rows in order
        return int(self._inv[a])

    def conj(self, g: int, x: int) -> int:
        """g x g^{-1}"""
        return self.mul(self.mul(g, x), self.inv(g))

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        r = 0
        while k:
            if k & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            k >>= 1
        return r

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k

    def element_orders(self) -> list[int]:
        if self._orders is None:
            self._orders = [self.element_order(a) for a in range(self.order)]
        return list(self._orders)

    def exponent(self) -> int:
        return lcm(*self.element_orders()) if self.order > 1 else 1

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self._np, self._np.T))

    def gen(self, name: str) -> int:
        for n, i in self.generators:
            if n == name:
                return i
        raise KeyError(name)

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^{-1} b^{-1} a b"""
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def closure(self, seed) -> list[int]:
        """Subgroup generated by seed, as a sorted index list."""
        seen = {0}
        frontier = [0]
        gens = sorted(set(int(s) for s in seed))
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        # seeds need not be closed under inverses a priori, but finite
        # closure under right multiplication already yields a subgroup
        return sorted(seen)

    def center(self) -> "Subgroup":
        T = self._np
        mask = (T == T.T).all(axis=1)
        return Subgroup(self, [int(i) for i in np.flatnonzero(mask)])

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "table": self.table,
            "generators": [{"name": n, "index": i} for n, i in self.generators],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Group":
        gens = [(g["name"], g["index"]) for g in doc.get("generators", [])]
        if not gens and doc["order"] > 1:
            gens = [(f"g{i}", i) for i in range(1, doc["order"])]
        return cls(doc["table"], gens)

    def __repr__(self):
        label = self.name or "Group"
        return f"<{label} of order {self.order}>"


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism given by the image of every element; checked fully."""

    source: Group
    target: Group
    images: tuple

    def __post_init__(self):
        phi = np.asarray(self.images, dtype=np.int64)
        if phi.shape != (self.source.order,):
            raise RelationInconsistent("image list has wrong length")
        if phi[0] != 0:
            raise RelationInconsistent("identity must map to identity")
        lhs = phi[self.source.np_table]
        rhs = self.target.np_table[phi[:, None], phi[None, :]]
        if not np.array_equal(lhs, rhs):
            raise RelationInconsistent("map is not multiplicative")
        object.__setattr__(self, "images", tuple(int(x) for x in phi))

    def __call__(self, x: int) -> int:
        return self.images[x]

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.order

    def kernel(self) -> "Subgroup":
        return Subgroup(self.source, [i for i, v in enumerate(self.images) if v == 0])


class Subgroup:
    """Subset of a parent group, validated closed and containing identity."""

    def __init__(self, parent: Group, elements):
        self.parent = parent
        self.elements = tuple(sorted(set(int(e) for e in elements)))
        if not self.elements or self.elements[0] != 0:
            raise RelationInconsistent("subgroup must contain the identity")
        els = set(self.elements)
        for a in self.elements:
            for b in self.elements:
                if parent.mul(a, b) not in els:
                    raise RelationInconsistent("subgroup not closed under multiplication")
        self._local = {e: i for i, e in enumerate(self.elements)}
        self._group: Group | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, x: int) -> bool:
        return int(x) in self._local

    def local(self, parent_idx: int) -> int:
        return self._local[int(parent_idx)]

    def global_(self, local_idx: int) -> int:
        return self.elements[local_idx]

    def is_normal(self) -> bool:
        P = self.parent
        els = set(self.elements)
        for _, g in P.generators:
            for x in self.elements:
                if P.conj(g, x) not in els:
                    return False
        return True

    def as_group(self) -> Group:
        if self._group is None:
            els = np.array(self.elements, dtype=np.int64)
            sub = self.parent.np_table[np.ix_(els, els)]
            back = -np.ones(self.parent.order, dtype=np.int64)
            back[els] = np.arange(len(els))
            table = back[sub]
            gens = _generating_set(table)
            self._group = Group(
                table,
                [(f"g{self.elements[i]}", i) for i in gens],
                name=f"sub{self.order}of{self.parent.name or self.parent.order}",
            )
        return self._group


def _generating_set(table: np.ndarray) -> list[int]:
    """Greedy deterministic generating set for a table (indices)."""
    n = table.shape[0]
    if n == 1:
        return []
    chosen: list[int] = []
    reach = {0}
    for x in range(1, n):
        if x in reach:
            continue
        chosen.append(x)
        reach = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for e in frontier:
                for g in chosen:
                    y = int(table[e, g])
                    if y not in reach:
                        reach.add(y)
                        nxt.append(y)
            frontier = nxt
        if len(reach) == n:
            break
    return chosen


def subgroup_generated(G: Group, seed) -> Subgroup:
    return Subgroup(G, G.closure(seed))


def trivial_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, [0])


# -- quotients, products, pullbacks ---------------------------------------


def quotient(G: Group, N: Subgroup) -> tuple[Group, GroupHom]:
    """Quotient G/N with the projection; cosets are ordered by least element."""
    if N.parent is not G:
        raise TargetMismatch("subgroup does not live in the given group")
    if not N.is_normal():
        raise NotNormal("subgroup is not normal")
    T = G.np_table
    els = np.array(N.elements, dtype=np.int64)
    coset_of = np.full(G.order, -1, dtype=np.int64)
    reps: list[int] = []
    for x in range(G.order):
        if coset_of[x] < 0:  # x is the least element of its coset xN
            coset_of[T[x, els]] = len(reps)
            reps.append(x)
    m = len(reps)
    table = coset_of[T[np.ix_(reps, reps)]]
    gens = []
    seen = set()
    for name, idx in G.generators:
        img = int(coset_of[idx])
        if img != 0 and img not in seen:
            gens.append((name, img))
            seen.add(img)
    if m > 1 and not gens:
        gens = [(f"g{i}", i) for i in _generating_set(table)]
    Q = Group(table, gens, name=f"{G.name or G.order}/N{N.order}")
    proj = GroupHom(G, Q, tuple(coset_of.tolist()))
    return Q, proj


def direct_product(G1: Group, G2: Group, name: str = "") -> Group:
    n1, n2 = G1.order, G2.order
    if n1 * n2 > MAX_ORDER:
        raise TooLarge(f"product order {n1 * n2} exceeds cap {MAX_ORDER}")
    T = (G1.np_table[:, None, :, None] * n2 + G2.np_table[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    gens = [(n, i * n2) for n, i in G1.generators]
    used = {n for n, _ in gens}
    for n, i in G2.generators:
        nm = n if n not in used else n + "'"
        used.add(nm)
        gens.append((nm, i))
    return Group(T, gens, name=name or f"{G1.name or G1.order}x{G2.name or G2.order}")


def pullback(G1: Group, G2: Group, f1: GroupHom, f2: GroupHom) -> tuple[Group, GroupHom, GroupHom]:
    """Fibered product over a common quotient, with the two projections."""
    if f1.source is not G1 or f2.source is not G2:
        raise TargetMismatch("homomorphism sources do not match the given groups")
    same = f1.target is f2.target or (
        f1.target.order == f2.target.order
        and np.array_equal(f1.target.np_table, f2.target.np_table)
    )
    if not same or not (f1.is_surjective() and f2.is_surjective()):
        raise TargetMismatch("maps must surject onto the same quotient")
    pairs = [(x, y) for x in range(G1.order) for y in range(G2.order)
             if f1(x) == f2(y)]
    if len(pairs) * f1.target.order != G1.order * G2.order:
        raise RelationInconsistent("pullback order law |G1||G2|/|F| violated")
    if len(pairs) > MAX_ORDER:
        raise TooLarge(f"pullback order {len(pairs)} exceeds cap {MAX_ORDER}")
    code = {(x, y): i for i, (x, y) in enumerate(pairs)}
    xs = np.array([x for x, _ in pairs])
    ys = np.array([y for _, y in pairs])
    px = G1.np_table[xs[:, None], xs[None, :]]
    py = G2.np_table[ys[:, None], ys[None, :]]
    lookup = -np.ones((G1.order, G2.order), dtype=np.int64)
    for (x, y), i in code.items():
        lookup[x, y] = i
    T = lookup[px, py]
    gens = [(f"g{x}.{y}", code[(x, y)])
            for (x, y) in (pairs[i] for i in _generating_set(T))]
    P = Group(T, gens, name=f"pullback{len(pairs)}")
    p1 = GroupHom(P, G1, tuple(int(x) for x in xs))
    p2 = GroupHom(P, G2, tuple(int(y) for y in ys))
    return P, p1, p2


# -- structure invariants ---------------------------------------------------


@dataclass
class StructureInvariants:
    center: Subgroup
    exponent: int
    element_orders: tuple
    min_generators: int


def is_p_group(G: Group) -> int | None:
    """The prime p if |G| is a nontrivial p-power, 1 for the trivial group, else None."""
    n = G.order
    if n == 1:
        return 1
    p = min(k for k in range(2, n + 1) if n % k == 0)
    m = n
    while m % p == 0:
        m //= p
    return p if m == 1 else None


def frattini_style_subgroup(G: Group, p: int) -> Subgroup:
    """[G,G] G^p, the kernel of the maximal exponent-p abelian quotient."""
    seeds = set()
    gens = [b for _, b in G.generators]
    for a in range(G.order):
        seeds.add(G.power(a, p))
        for b in gens:
            seeds.add(G.commutator(a, b))
    current = set(G.closure(seeds))
    while True:
        extra = {G.conj(g, x) for g in gens for x in current} - current
        if not extra:
            break
        current = set(G.closure(current | extra))
    return Subgroup(G, current)


def min_generators(G: Group) -> int:
    if G.order == 1:
        return 0
    p = is_p_group(G)
    if p and p > 1:
        q = G.order // frattini_style_subgroup(G, p).order
        r = 0
        while q > 1:
            q //= p
            r += 1
        return r
    if max(G.element_orders()) == G.order:
        return 1
    if G.order > 256:
        raise TooLarge("exhaustive generator search limited to order 256")
    from itertools import combinations
    for r in range(2, G.order):
        for combo in combinations(range(1, G.order), r):
            if len(G.closure(combo)) == G.order:
                return r
    raise RelationInconsistent("unreachable")


def structure_invariants(G: Group) -> StructureInvariants:
    orders = tuple(sorted(G.element_orders()))
    return StructureInvariants(
        center=G.center(),
        exponent=G.exponent(),
        element_orders=orders,
        min_generators=min_generators(G),
    )


def subgroups_of_index2(G: Group) -> list[Subgroup]:
    """All index-2 subgroups, i.e. kernels of the surjections onto C2."""
    if G.order % 2:
        return []
    N = frattini_style_subgroup(G, 2)
    Q, proj = quotient(G, N)
    r = 0
    q = Q.order
    while q > 1:
        q //= 2
        r += 1
    if r == 0:
        return []
    basis: list[int] = []
    span = {0}
    for x in range(Q.order):
        if x in span:
            continue
        basis.append(x)
        span = set(Q.closure(basis))
        if len(span) == Q.order:
            break
    coords = {}
    for bits in range(2 ** r):
        e = 0
        for k in range(r):
            if bits >> k & 1:
                e = Q.mul(e, basis[k])
        coords[e] = bits
    out = []
    for phi in range(1, 2 ** r):
        members = [x for x in range(G.order)
                   if bin(coords[proj(x)] & phi).count("1") % 2 == 0]
        out.append(Subgroup(G, members))
    return out


def max_elem_abelian_quotient(G: Group, p: int) -> tuple[Group, GroupHom]:
    if is_p_group(G) not in (p, 1):
        raise NotPGroup(f"|G| = {G.order} is not a power of {p}")
    N = frattini_style_subgroup(G, p)
    return quotient(G, N)


# -- normal subgroups (bounded enumeration) ---------------------------------


def normal_subgroups(G: Group, cap: int = 4096) -> list[Subgroup] | None:
    """All normal subgroups, or None when the join closure exceeds cap."""
    closures = set()
    for x in range(G.order):
        seed = {x}
        grown = True
        current = set(G.closure(seed))
        while grown:
            grown = False
            extra = set()
            for g in range(G.order):
                for y in current:
                    z = G.conj(g, y)
                    if z not in current:
                        extra.add(z)
            if extra:
                current = set(G.closure(current | extra))
                grown = True
        closures.add(tuple(sorted(current)))
    normals = set(closures)
    normals.add((0,))
    frontier = list(normals)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(normals):
                j = tuple(G.closure(set(a) | set(b)))
                if j not in normals:
                    normals.add(j)
                    fresh.append(j)
                    if len(normals) > cap:
                        return None
        frontier = fresh
    return [Subgroup(G, list(els)) for els in sorted(normals, key=lambda t: (len(t), t))]


# -- isomorphism testing (brute force, for tests and small lookups) ---------


def _order_profile(G: Group) -> tuple:
    from collections import Counter
    c = Counter(G.element_orders())
    return tuple(sorted(c.items()))


def find_isomorphism(G: Group, H: Group) -> list[int] | None:
    """Explicit isomorphism G -> H as an image list, or None.

    Brute-force generator-image search, restricted to order <= 64.
    """
    if G.order != H.order:
        return None
    if G.order > FULL_CHECK_ORDER:
        raise TooLarge("isomorphism search limited to order 64")
    if _order_profile(G) != _order_profile(H):
        return None
    if G.is_abelian() != H.is_abelian():
        return None
    if G.center().order != H.center().order:
        return None
    gens = _generating_set(G.np_table)
    if not gens:
        return [0]
    # elements of H bucketed by order
    by_order: dict[int, list[int]] = {}
    for x in range(H.order):
        by_order.setdefault(H.element_order(x), []).append(x)
    word_parent, word_letter, bfs_order = _word_tree(G, gens)
    g_orders = [G.element_order(g) for g in gens]

    def extend(k: int, images: list[int]) -> list[int] | None:
        if k == len(gens):
            phi = [0] * G.order
            for x in bfs_order:
                p, l = word_parent[x], word_letter[x]
                phi[x] = H.mul(phi[p], images[l])
            if len(set(phi)) != G.order:
                return None
            ph = np.array(phi)
            if np.array_equal(ph[G.np_table], H.np_table[ph[:, None], ph[None, :]]):
                return phi
            return None
        for cand in by_order.get(g_orders[k], []):
            res = extend(k + 1, images + [cand])
            if res is not None:
                return res
        return None

    return extend(0, [])


def is_isomorphic(G: Group, H: Group) -> bool:
    return find_isomorphism(G, H) is not None


def _word_tree(G: Group, gens: list[int]):
    """BFS spanning words: element x = parent[x] * gens[letter[x]],
    plus the discovery order (parents always precede children in it)."""
    parent = [-1] * G.order
    letter = [-1] * G.order
    parent[0] = 0
    frontier = [0]
    seen = {0}
    order = []
    while frontier:
        nxt = []
        for x in frontier:
            for li, g in enumerate(gens):
                y = G.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    parent[y] = x
                    letter[y] = li
                    nxt.append(y)
                    order.append(y)
        frontier = nxt
    return parent, letter, order


# -- dual-module action predicates ------------------------------------------


@dataclass
class DualActionData:
    """Action data for an abelian kernel A = prod C_{m_i}.

    `action` maps each quotient-group generator name to a matrix acting on
    column vectors (entry [i][j] is the i-th coordinate of the image of the
    j-th basis element); `cyclo` gives the cyclotomic character value of the
    generator, a unit modulo the exponent of A.
    """

    orders: tuple
    action: dict
    cyclo: dict

    def __post_init__(self):
        self.orders = tuple(int(m) for m in self.orders)
        if any(m < 1 for m in self.orders):
            raise RelationInconsistent("cyclic factor orders must be positive")
        self.exponent = lcm(*self.orders) if self.orders else 1
        for name, M in self.action.items():
            self._check_automorphism(name, M)
        for name, u in self.cyclo.items():
            if gcd(int(u), self.exponent) != 1:
                raise RelationInconsistent(f"cyclo value {u} is not a unit mod {self.exponent}")

    def _apply(self, M, v):
        r = len(self.orders)
        return tuple(sum(M[i][j] * v[j] for j in range(r)) % self.orders[i] for i in range(r))

    def _check_automorphism(self, name, M):
        r = len(self.orders)
        if len(M) != r or any(len(row) != r for row in M):
            raise RelationInconsistent(f"action matrix for {name} has wrong shape")
        for j in range(r):
            for i in range(r):
                if (M[i][j] * self.orders[j]) % self.orders[i]:
                    raise RelationInconsistent(f"action matrix for {name} is not well defined")
        total = 1
        for m in self.orders:
            total *= m
        if total > MAX_ORDER:
            raise TooLarge("kernel too large for bijectivity check")
        seen = set()
        for v in _all_vectors(self.orders):
            seen.add(self._apply(M, v))
        if len(seen) != total:
            raise RelationInconsistent(f"action matrix for {name} is not bijective")

    def _is_mult_by(self, M, s: int) -> bool:
        r = len(self.orders)
        for j in range(r):
            for i in range(r):
                want = s % self.orders[i] if i == j else 0
                if M[i][j] % self.orders[i] != want:
                    return False
        return True


def _all_vectors(orders):
    import itertools
    return itertools.product(*[range(m) for m in orders])


def dual_action_predicate(data: DualActionData, m: int) -> dict:
    """Flags for the power-type conditions on the induced character action.

    The action of rho on characters is chi -> chi^t exactly when a^rho =
    a^(u*t) for all a, u the cyclotomic value of rho.  `thm24` asks each
    generator to act as chi^m or trivially (m^2 = 1 mod exp A required),
    `pm_one` as chi^{+-1}, and `uniform_power` as chi^t for some t.
    """
    e = data.exponent
    if (m * m) % e != 1 % e:
        raise BadM(f"m^2 = {m * m} is not 1 modulo {e}")
    uniform = pm = t24 = True
    for name, M in data.action.items():
        u = data.cyclo.get(name, 1)
        is_ident = data._is_mult_by(M, u)
        is_m = data._is_mult_by(M, (u * m) % e if e > 1 else 0)
        is_inv = data._is_mult_by(M, (u * (e - 1)) % e if e > 1 else 0)
        t24 = t24 and (is_ident or is_m)
        pm = pm and (is_ident or is_inv)
        if not any(data._is_mult_by(M, (u * t) % e) for t in range(e) if gcd(t, e) == 1):
            uniform = False
    return {"uniform_power": uniform, "pm_one": pm, "thm24": t24}
