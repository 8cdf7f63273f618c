"""Finite groups as explicit multiplication tables.

Elements are indices 0..order-1 with 0 the identity, and every table is a
read-only int16 array (MAX_ORDER < 2^15).  A table from outside the library
is validated exactly on construction, on one walk of the right Cayley graph
(cayley_tree) and one law with a generator in the middle slot: identity,
generation by the named generators, (xs)y = x(sy) for each kept generator s,
and a right inverse for every element (Group._validate).  The tables the
library derives itself, from a consistent pc presentation or from groups
that are already groups, are built once in int16 and skip that check
(check=False); each builder says why its output is a group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, lcm, prod
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    BadM,
    NotNormal,
    NotPGroup,
    RelationInconsistent,
    TargetMismatch,
    TooLarge,
)

if TYPE_CHECKING:
    from .presentation import PcPresentation

MAX_ORDER = 4096
MAX_NORMALS = 4096  # normal_subgroups gives up beyond this many
BLOCK_ENTRIES = 1 << 18


def row_blocks(n: int):
    """Row slices of an n x n table, about BLOCK_ENTRIES entries each."""
    step = max(1, BLOCK_ENTRIES // n)
    for r0 in range(0, n, step):
        yield slice(r0, min(n, r0 + step))


def _prime_divisors(n: int) -> list[int]:
    out, q = [], 2
    while n > 1:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out


def integer_array(data, modulus: int | None = None) -> np.ndarray:
    """Outside data as int64: TypeError for an entry that is not an integer
    (a cast would truncate 0.5 and read false as 0), OverflowError for one
    beyond 64 bits.  numpy reads bools among ints as int64 and ints past
    2^63 as float64, so a list is judged by the types of its entries.  With
    a modulus the entries are reduced mod it before the cast (a list's on
    its exact Python ints), so no entry is then too wide."""
    if isinstance(data, np.ndarray):
        if data.dtype.kind not in "iu":
            raise TypeError("entries must be integers")
        if modulus is not None and data.dtype == np.uint64:
            data = data % np.uint64(modulus)  # the cast would wrap entries past 2^63
        arr = data.astype(np.int64, copy=False)
    else:
        arr = np.array(data, dtype=object)
        if not all(issubclass(t, (int, np.integer)) and t is not bool
                   for t in set(map(type, arr.flat))):
            raise TypeError("entries must be integers")
    if modulus is not None:
        arr = arr % modulus
    return arr.astype(np.int64, copy=False)


def cayley_tree(T: np.ndarray, named) -> tuple:
    """A spanning tree of the right Cayley graph, rooted at the identity.

    Keeps each named generator that is not in the subgroup reached so far;
    a breadth-first search with the kept generators then restarts from every
    reached element, the identity first, so a kept s hangs off the edge
    (1, s).  Returns the kept generators, the reached elements in the order
    they were found, the levels (elements by depth), and each element's
    parent u and generator slot i, with y = u * gens[i].
    """
    n = T.shape[0]
    parent, slot, depth = [-1] * n, [-1] * n, [0] * n
    parent[0] = 0
    reached, gens, cols = [0], [], []
    for g in named:
        if parent[g] >= 0:
            continue
        gens.append(g)
        cols.append(T[:, g].tolist())
        for u in reached:  # grows while it is walked
            for i, col in enumerate(cols):
                y = col[u]
                if parent[y] < 0:
                    parent[y], slot[y], depth[y] = u, i, depth[u] + 1
                    reached.append(y)
    levels: list = [[] for _ in range(max(depth) + 1)]
    for y in reached:
        levels[depth[y]].append(y)
    return (gens, reached, [np.array(lv, dtype=np.int64) for lv in levels],
            np.array(parent, dtype=np.int64), np.array(slot, dtype=np.int64))


def path_counts(tree) -> np.ndarray:
    """counts[y, i]: how often the kept generator gens[i] of a cayley_tree
    result is used on the tree path from the identity to y."""
    gens, _, levels, parent, slot = tree
    counts = np.zeros((len(parent), len(gens)), dtype=np.int64)
    for lv in levels[1:]:
        counts[lv] = counts[parent[lv]]
        counts[lv, slot[lv]] += 1
    return counts


def is_multiplicative(phi: np.ndarray, S: np.ndarray, T: np.ndarray, gens) -> bool:
    """phi(xs) = phi(x) phi(s) for all x and each s in gens, gens generating
    the source table S: then phi(xy) = phi(x) phi(y) for all x, y, since the
    y for which that holds contain the identity and are closed under right
    multiplication by each s (phi(x.ys) = phi(xy) phi(s) = phi(x) phi(ys))."""
    return all(np.array_equal(phi[S[:, s]], T[phi, phi[s]]) for s in gens)


class Group:
    """Immutable finite group given by its full multiplication table.

    `pc` is the presentation pc_table built the table from (catalog groups,
    their direct products, read_pc; only with check=False), else None.
    `gens` lists the generator indices the group's loops run over: the named
    ones for a table the library built, and for a table from outside the
    ones its validation walk kept (Group.tree), so that a file naming every
    element is not looped over n - 1 times.
    """

    def __init__(self, table, generators, name: str = "", check: bool = True,
                 pc: PcPresentation | None = None):
        if pc is not None and check:
            raise RelationInconsistent("only the table pc_table built from a presentation carries it")
        # a table from outside is read wide and range-checked before the cast,
        # so that 65536 cannot wrap to 0; a trusted int16 table is not copied
        try:
            arr = integer_array(table) if check else np.asarray(table, dtype=np.int16)
        except OverflowError:
            raise RelationInconsistent("table entries out of range") from None
        except TypeError:
            raise RelationInconsistent("table entries must be integers") from None
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise RelationInconsistent("table must be square")
        if arr.shape[0] > MAX_ORDER:
            raise RelationInconsistent(f"order {arr.shape[0]} exceeds cap {MAX_ORDER}")
        if check:
            if arr.size and (arr.min() < 0 or arr.max() >= arr.shape[0]):
                raise RelationInconsistent("table entries out of range")
            arr = arr.astype(np.int16)
        arr.setflags(write=False)
        self._np = arr
        self.order = int(arr.shape[0])
        self.generators = [(str(n), int(i)) for n, i in generators]
        self.gens = [i for _, i in self.generators]
        self.name = name
        self.pc = pc
        self._inv: np.ndarray | None = None
        self._orders: list[int] | None = None
        self._tree: tuple | None = None
        if check:
            self._validate()
            self.gens = self.tree()[0]

    # -- validation ------------------------------------------------------

    def _validate(self) -> None:
        """Exact group test in n^2 k entries, k the kept generators.

        With 0 a two-sided identity and every element reached from 0 by
        right multiplication with the kept generators s, checking
        (xs)y = x(sy) for all x, y settles associativity (Light's test,
        Clifford & Preston, Algebraic Theory of Semigroups I, 1.2): the a
        with (xa)y = x(ay) for all x, y contain 0, and with a they contain
        as, since (x.as)y = ((xa)s)y = (xa)(sy) = x(a.sy) = x((as)y).  A
        finite monoid in which every element x has a right inverse r is a
        group (r has one too, r' say, and x = x(rr') = r', so rx = 1), so
        the table is a Latin square by consequence.
        """
        n = self.order
        T = self._np
        if T.min() < 0 or T.max() >= n:
            raise RelationInconsistent("table entries out of range")
        if any(not 0 <= i < n for _, i in self.generators):
            raise RelationInconsistent(f"generator indices must lie in 0..{n - 1}")
        ar = np.arange(n)
        if not (np.array_equal(T[0], ar) and np.array_equal(T[:, 0], ar)):
            raise RelationInconsistent("index 0 is not a two-sided identity")
        if len(self.tree()[1]) != n:
            raise RelationInconsistent("generators do not generate the group")
        for s in self.tree()[0]:
            for rows in row_blocks(n):
                if not np.array_equal(T[T[rows, s]], np.take(T[rows], T[s], axis=1)):
                    raise RelationInconsistent("associativity fails")
        has_inverse = (T == 0).any(axis=1)
        if not has_inverse.all():
            x = int(np.argmin(has_inverse))
            raise RelationInconsistent(f"element {x} has no inverse")

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
        return int(self.inverses()[a])

    def inverses(self) -> np.ndarray:
        """The inverse of every element, computed once."""
        if self._inv is None:
            self._inv = np.nonzero(self._np == 0)[1]  # one 0 per row, rows in order
        return self._inv

    def tree(self) -> tuple:
        """cayley_tree of the table on gens, walked once."""
        if self._tree is None:
            self._tree = cayley_tree(self._np, self.gens)
        return self._tree

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
        if self._orders is None:
            self.element_orders()
        return self._orders[a]

    def element_orders(self) -> list[int]:
        """The order of every element, in O(n log^2 n) table gathers.

        Each order divides n, so it is found from m = n by dividing out each
        prime q of n while q | m and a^(m/q) = 1, for all elements at once.
        """
        if self._orders is None:
            n = self.order
            m = np.full(n, n, dtype=np.int64)
            for q in _prime_divisors(n):
                active = np.arange(n)
                while active.size:
                    active = active[m[active] % q == 0]
                    active = active[self._powers(active, m[active] // q) == 0]
                    m[active] //= q
            self._orders = m.tolist()
        return list(self._orders)

    def _powers(self, a: np.ndarray, k: np.ndarray) -> np.ndarray:
        """a[i] ** k[i] for every i, k >= 0, by repeated squaring."""
        T = self._np
        out = np.zeros_like(a)
        base, k = a.copy(), k.copy()
        while k.any():
            odd = (k & 1).astype(bool)
            out[odd] = T[out[odd], base[odd]]
            base = T[base, base]
            k >>= 1
        return out

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
        """Subgroup generated by seed, as a sorted index list.

        The elements reached from the identity by right multiplication with
        the seeds: in a finite group that already is a subgroup.
        """
        return sorted(cayley_tree(self._np, sorted({int(s) for s in seed}))[1])

    def center(self) -> "Subgroup":
        """The elements that commute with each generator in gens: those
        generate the group (checked in _validate), so these are central."""
        T = self._np
        mask = np.ones(self.order, dtype=bool)
        for s in self.gens:
            mask &= T[:, s] == T[s]
        return Subgroup(self, np.flatnonzero(mask).tolist(), check=False)

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
    """Homomorphism given by the image of every element; checked exactly on
    the source generators (n k entries)."""

    source: Group
    target: Group
    images: tuple

    def __post_init__(self):
        phi = np.asarray(self.images, dtype=np.int64)
        if phi.shape != (self.source.order,):
            raise RelationInconsistent("image list has wrong length")
        if phi[0] != 0:
            raise RelationInconsistent("identity must map to identity")
        if phi.min() < 0 or phi.max() >= self.target.order:
            raise RelationInconsistent("images out of range")
        if not is_multiplicative(phi, self.source.np_table, self.target.np_table,
                                 self.source.gens):
            raise RelationInconsistent("map is not multiplicative")
        object.__setattr__(self, "images", tuple(int(x) for x in phi))

    def __call__(self, x: int) -> int:
        return self.images[x]

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.order

    def kernel(self) -> "Subgroup":
        return Subgroup(self.source, [i for i, v in enumerate(self.images) if v == 0],
                        check=False)


class Subgroup:
    """Subset of a parent group, validated closed and containing identity.

    `pos` is its membership array, int16 like the tables: pos[x] = i for the
    i-th element x (in increasing order) and -1 outside the subgroup.  The
    subgroups the library finds itself (centers, kernels, closures, the
    index-2 kernels and the normal subgroups) are closed by construction and
    come as increasing indices, so they skip the sort and the |H|^2 closure
    gather (check=False); a subset from outside is checked exactly.
    """

    def __init__(self, parent: Group, elements, check: bool = True):
        self.parent = parent
        self.elements = tuple(sorted(set(int(e) for e in elements))) if check else tuple(elements)
        if self.elements and (self.elements[0] < 0 or self.elements[-1] >= parent.order):
            raise RelationInconsistent(f"subgroup elements must lie in 0..{parent.order - 1}")
        if not self.elements or self.elements[0] != 0:
            raise RelationInconsistent("subgroup must contain the identity")
        els = np.array(self.elements, dtype=np.int64)
        self.pos = np.full(parent.order, -1, dtype=np.int16)
        self.pos[els] = np.arange(len(els))
        self.pos.setflags(write=False)
        if check:
            inside = self.pos >= 0  # bool: the gather of the |H|^2 products takes a byte each
            if not inside[parent.np_table[np.ix_(els, els)]].all():
                raise RelationInconsistent("subgroup not closed under multiplication")
        self._group: Group | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, x: int) -> bool:
        return 0 <= int(x) < self.parent.order and self.pos[int(x)] >= 0

    def local(self, parent_idx: int) -> int:
        if parent_idx not in self:
            raise KeyError(parent_idx)
        return int(self.pos[int(parent_idx)])

    def global_(self, local_idx: int) -> int:
        return self.elements[local_idx]

    def is_normal(self) -> bool:
        """g N g^-1 lies in N for each generator g in gens, one gather each:
        conjugation by g is then a bijection of the finite N, so N is closed
        under conjugation by every product of the generators."""
        T = self.parent.np_table
        els = np.array(self.elements, dtype=np.int64)
        for g in self.parent.gens:
            g_inv = int(np.flatnonzero(T[g] == 0)[0])
            if (self.pos[T[T[g, els], g_inv]] < 0).any():
                return False
        return True

    def as_group(self) -> Group:
        """The subgroup with its own numbering; a group by construction,
        since a Subgroup is closed (checked, or closed by construction)."""
        if self._group is None:
            els = np.array(self.elements, dtype=np.int64)
            table = self.pos[self.parent.np_table[np.ix_(els, els)]]
            gens = cayley_tree(table, range(1, len(els)))[0]
            self._group = Group(
                table,
                [(f"g{self.elements[i]}", i) for i in gens],
                name=f"sub{self.order}of{self.parent.name or self.parent.order}",
                check=False,
            )
        return self._group


def subgroup_generated(G: Group, seed) -> Subgroup:
    return Subgroup(G, G.closure(seed), check=False)


def trivial_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, [0], check=False)


# -- quotients, products, pullbacks ---------------------------------------


def quotient(G: Group, N: Subgroup) -> tuple[Group, GroupHom]:
    """Quotient G/N with the projection; cosets are ordered by least element.

    A group by construction, since N was checked normal.
    """
    if N.parent is not G:
        raise TargetMismatch("subgroup does not live in the given group")
    if not N.is_normal():
        raise NotNormal("subgroup is not normal")
    T = G.np_table
    least = T[:, np.array(N.elements, dtype=np.int64)].min(axis=1)  # of each coset xN
    reps, coset_of = np.unique(least, return_inverse=True)
    coset_of = coset_of.astype(np.int16)
    m = len(reps)
    # gathered by row blocks, so no m x m int16 index table is held beside it
    table = np.empty((m, m), dtype=np.int16)
    for rows in row_blocks(m):
        np.take(coset_of, T.take(reps[rows], 0).take(reps, 1), out=table[rows])
    gens = []
    seen = set()
    for name, idx in G.generators:
        img = int(coset_of[idx])
        if img != 0 and img not in seen:
            gens.append((name, img))
            seen.add(img)
    if m > 1 and not gens:
        gens = [(f"g{i}", i) for i in cayley_tree(table, range(1, m))[0]]
    Q = Group(table, gens, name=f"{G.name or G.order}/N{N.order}", check=False)
    proj = GroupHom(G, Q, tuple(coset_of.tolist()))
    return Q, proj


def direct_product(G1: Group, G2: Group, name: str = "") -> Group:
    """G1 x G2 on the pairs (x, y) numbered x n2 + y; a group by construction,
    as the product of two groups.  It has a pc presentation when both
    factors have one."""
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
    pc = G1.pc.join(G2.pc) if G1.pc is not None and G2.pc is not None else None
    return Group(T, gens, name=name or f"{G1.name or G1.order}x{G2.name or G2.order}",
                 check=False, pc=pc)


def pullback(G1: Group, G2: Group, f1: GroupHom, f2: GroupHom) -> tuple[Group, GroupHom, GroupHom]:
    """Fibered product over a common quotient, with the two projections.

    A group by construction: the pairs (x, y) with f1(x) = f2(y) are closed
    in G1 x G2 because f1 and f2 are homomorphisms.
    """
    if f1.source is not G1 or f2.source is not G2:
        raise TargetMismatch("homomorphism sources do not match the given groups")
    same = f1.target is f2.target or (
        f1.target.order == f2.target.order
        and np.array_equal(f1.target.np_table, f2.target.np_table)
    )
    if not same or not (f1.is_surjective() and f2.is_surjective()):
        raise TargetMismatch("maps must surject onto the same quotient")
    xs, ys = np.nonzero(np.asarray(f1.images)[:, None] == np.asarray(f2.images)[None, :])
    m = len(xs)
    if m * f1.target.order != G1.order * G2.order:
        raise RelationInconsistent("pullback order law |G1||G2|/|F| violated")
    if m > MAX_ORDER:
        raise TooLarge(f"pullback order {m} exceeds cap {MAX_ORDER}")
    lookup = np.full((G1.order, G2.order), -1, dtype=np.int16)
    lookup[xs, ys] = np.arange(m)
    T = lookup[G1.np_table[np.ix_(xs, xs)], G2.np_table[np.ix_(ys, ys)]]
    gens = [(f"g{xs[i]}.{ys[i]}", i) for i in cayley_tree(T, range(1, m))[0]]
    P = Group(T, gens, name=f"pullback{m}", check=False)
    p1 = GroupHom(P, G1, tuple(xs.tolist()))
    p2 = GroupHom(P, G2, tuple(ys.tolist()))
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
    if G.order == 1:
        return 1
    primes = _prime_divisors(G.order)
    return primes[0] if len(primes) == 1 else None


def central_step(G: Group, els: np.ndarray, gens, p: int) -> Subgroup:
    """[P, G] P^p for the normal subgroup P with elements els, gens generating G.

    It is generated by the x^p and the [x, s] = x^-1 x^s, for x in P and
    each s in gens, and that subgroup N is already normal: for y in N, which
    lies in P, y^s = y [y, s] lies in N.  In G/N each s then centralises
    PN/N, so [P, G] lies in N.
    """
    T, inv = G.np_table, G.inverses()
    seeds = [G._powers(els, np.full(len(els), p))]
    for s in gens:
        seeds.append(T[T[inv[els], inv[s]], T[els, s]])  # x^-1 s^-1 . x s
    # each seed once, in increasing order, without np.unique (which imports numpy.ma)
    return subgroup_generated(
        G, np.flatnonzero(np.bincount(np.concatenate(seeds), minlength=G.order)).tolist())


def frattini_style_subgroup(G: Group, p: int) -> Subgroup:
    """[G,G] G^p, the kernel of the maximal exponent-p abelian quotient:
    G/N is abelian, of exponent p, for N = [G, G] G^p (central_step)."""
    return central_step(G, np.arange(G.order), G.gens, p)


def sylow_subgroup(G: Group, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown from the trivial one.

    A p-subgroup H that is not Sylow has a p-element of N_G(H) outside H,
    since p divides [N_G(H) : H] (Sylow's theorems), and then H<g> is again
    a p-group: H is normal in it, with a cyclic quotient of p-power order.
    The least such g is added each time; g normalises H when it conjugates
    each added generator into H.
    """
    n, T, inv = G.order, G.np_table, G.inverses()
    full = p ** next(e for e in range(n.bit_length(), -1, -1) if n % p ** e == 0)
    p_element = full % np.array(G.element_orders()) == 0
    H, hgens = trivial_subgroup(G), []
    while H.order < full:
        inside = H.pos >= 0
        normalises = p_element & ~inside
        for h in hgens:
            normalises &= inside[T[T[:, h], inv]]  # g h g^-1
        hgens.append(int(np.flatnonzero(normalises)[0]))
        H = subgroup_generated(G, hgens)
    return H


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
    Q, proj = quotient(G, frattini_style_subgroup(G, 2))
    tree = cayley_tree(Q.np_table, range(1, Q.order))
    # Q is elementary abelian; the tree keeps the first element outside the
    # span of those kept before it, and the path counts mod 2 are each
    # element's coordinates in that basis: x is in the kernel of phi when
    # the counts of the basis elements phi selects have an even sum
    counts = path_counts(tree)
    images = np.asarray(proj.images)
    bits = np.arange(len(tree[0]))
    return [Subgroup(G, np.flatnonzero((counts @ (phi >> bits & 1) % 2 == 0)[images]).tolist(),
                     check=False) for phi in range(1, 2 ** len(bits))]


def max_elem_abelian_quotient(G: Group, p: int) -> tuple[Group, GroupHom]:
    if is_p_group(G) not in (p, 1):
        raise NotPGroup(f"|G| = {G.order} is not a power of {p}")
    N = frattini_style_subgroup(G, p)
    return quotient(G, N)


# -- normal subgroups (bounded enumeration) ---------------------------------


def normal_subgroups(G: Group) -> list[Subgroup] | None:
    """All normal subgroups, or None when there are more than MAX_NORMALS.

    Every normal subgroup is the join of the normal closures of its elements
    (the atoms).  The atom of x is generated by the conjugacy class of x,
    found by conjugating with the generators in gens only (they generate
    the group), and x's unit powers and their conjugates have the same atom, so
    one class of cyclic subgroups needs one closure walk.  Joining each new
    subgroup with each atom then finds every normal subgroup; the join of
    normal A and B is the product set AB, one gather.
    """
    T = G.np_table
    conjs = np.array([T[T[s], G.inv(s)] for s in G.gens],
                     dtype=np.int64).reshape(-1, G.order)

    def mask(els) -> np.ndarray:
        inside = np.zeros(G.order, dtype=bool)
        inside[els] = True
        return inside

    orders = G.element_orders()
    covered = np.zeros(G.order, dtype=bool)
    atoms: dict = {}  # normal closure -> the least element it is the closure of
    for x in range(G.order):
        if covered[x]:
            continue
        units = np.arange(orders[x])
        units = units[np.gcd(units, orders[x]) == 1]
        orbit = mask(G._powers(np.full(len(units), x), units))
        new = np.flatnonzero(orbit)
        while new.size:
            moved = conjs[:, new].ravel()
            # repeats in new are harmless, since orbit[new] is set before the next
            # gather (np.unique would import numpy.ma)
            new = moved[~orbit[moved]]
            orbit[new] = True
        covered |= orbit
        atoms.setdefault(tuple(G.closure(np.flatnonzero(orbit).tolist())), x)
    reps = np.array(list(atoms.values()), dtype=np.int64)
    cols = [np.array(b, dtype=np.int64) for b in atoms]
    # membership mask as bytes -> elements
    normals = {mask(list(els)).tobytes(): np.array(els, dtype=np.int64) for els in [(0,), *atoms]}
    frontier = list(normals.values())
    while frontier:
        fresh = []
        for a in frontier:
            rows = T[a]
            # b is the normal closure of its rep, so b lies in a iff rep does
            for i in np.flatnonzero(~mask(a)[reps]):
                j = mask(rows[:, cols[i]])
                key = j.tobytes()
                if key not in normals:
                    normals[key] = np.flatnonzero(j)
                    fresh.append(normals[key])
                    if len(normals) > MAX_NORMALS:
                        return None
        frontier = fresh
    found = sorted((tuple(els.tolist()) for els in normals.values()), key=lambda t: (len(t), t))
    return [Subgroup(G, els, check=False) for els in found]


# -- isomorphism testing (brute force, for tests and small lookups) ---------


def _order_profile(G: Group) -> tuple:
    from collections import Counter
    return tuple(sorted(Counter(G.element_orders()).items()))


def find_isomorphism(G: Group, H: Group) -> list[int] | None:
    """Explicit isomorphism G -> H as an image list, or None.

    Brute-force generator-image search, restricted to order <= 64.  The
    images of the generators fix the map along the Cayley tree of G.
    """
    if G.order != H.order:
        return None
    if G.order > 64:
        raise TooLarge("isomorphism search limited to order 64")
    if (_order_profile(G), G.is_abelian(), G.center().order) != (
            _order_profile(H), H.is_abelian(), H.center().order):
        return None
    gens, reached, _, parent, slot = cayley_tree(G.np_table, range(1, G.order))
    if not gens:
        return [0]
    # elements of H bucketed by order
    by_order: dict[int, list[int]] = {}
    for x in range(H.order):
        by_order.setdefault(H.element_order(x), []).append(x)
    g_orders = [G.element_order(g) for g in gens]
    rows, parent, slot = H.table, parent.tolist(), slot.tolist()

    def extend(k: int, images: list[int]) -> list[int] | None:
        if k == len(gens):
            phi = [0] * G.order
            for y in reached[1:]:  # parents come first
                phi[y] = rows[phi[parent[y]]][images[slot[y]]]
            if len(set(phi)) != G.order or not is_multiplicative(
                    np.array(phi), G.np_table, H.np_table, gens):
                return None
            return phi
        for cand in by_order.get(g_orders[k], []):
            res = extend(k + 1, images + [cand])
            if res is not None:
                return res
        return None

    return extend(0, [])


def is_isomorphic(G: Group, H: Group) -> bool:
    return find_isomorphism(G, H) is not None


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
        total = prod(self.orders)
        if total > MAX_ORDER:
            raise TooLarge("kernel too large for bijectivity check")
        seen = {self._apply(M, v) for v in product(*map(range, self.orders))}
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
