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

from itertools import product
from math import gcd, lcm, prod
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    MAX_ORDER,
    BadM,
    BadParams,
    NotNormal,
    NotPGroup,
    RelationInconsistent,
    TargetMismatch,
    TooLarge,
    check_order,
    is_integer,
    read_int,
)
from .arith import read_prime, valuation
from .records import FrozenRecord, Record

if TYPE_CHECKING:
    from .presentation import PcPresentation

MAX_NORMALS = 4096  # normal_subgroups gives up beyond this many
BLOCK_ENTRIES = 1 << 18
# errors.is_integer's rule, as the set of types read_integers accepts
INTEGER_TYPES = frozenset({int, *(np.dtype(c).type for c in np.typecodes["AllInteger"])})


def row_blocks(n: int):
    """Row slices of an n x n table, about BLOCK_ENTRIES entries each."""
    step = max(1, BLOCK_ENTRIES // n)
    for r0 in range(0, n, step):
        yield slice(r0, min(n, r0 + step))


def _prime_divisors(n: int) -> list[int]:
    out, q = [], 2
    while n > 1:
        v, n = valuation(n, q)
        if v:
            out.append(q)
        q += 1
    return out


def read_integers(data, error, detail: str, n=None, *, low: int = 0, ndim: int | None = None,
                  modulus: int | None = None, out_of_range: str | None = None) -> np.ndarray:
    """Integers a caller hands the library (an array, a list or a set) as a
    read-only array: int16 in low..n-1, int64 below 2^63 for n None, or
    with a modulus int64 reduced mod it.  Entries are judged by
    their types, never cast (numpy reads a bool among ints as 1 and 0.5 as
    0): an entry that is not an int or a numpy integer (a float, bool,
    string or None, or a ragged list), or another rank than ndim, is
    error(detail).  An entry past 64 bits or out of range is
    error(out_of_range or detail), checked before the cast that would wrap
    65536 to 0.  n may be a function of the shape that returns the bound
    or raises the site's own shape error."""
    # a list is read as objects, so that no entry is cast
    arr = data if isinstance(data, np.ndarray) else np.array(
        list(data) if isinstance(data, (set, frozenset)) else data, dtype=object)
    kinds = set(map(type, arr.flat)) if arr.dtype == object else {arr.dtype.type}
    if not kinds <= INTEGER_TYPES or ndim is not None and arr.ndim != ndim:
        raise error(detail)
    if modulus is not None and arr.dtype.kind != "i":  # the cast would wrap entries past 2^63
        # asarray: the remainder of a lone entry (a 0-d array) is a scalar
        arr = np.asarray(arr % (modulus if arr.dtype == object else np.uint64(modulus)))
    if arr.dtype == object:
        try:
            arr = arr.astype(np.int64)
        except OverflowError:
            raise error(out_of_range or detail) from None
    if modulus is not None:
        out = arr.astype(np.int64, copy=False) % modulus
    else:
        bound = n(arr.shape) if callable(n) else 2 ** 63 if n is None else n
        if arr.size:  # one entry is compared as an int: two reductions cost more than the rest
            lo, hi = (arr.min(), arr.max()) if arr.size > 1 else (int(arr.flat[0]),) * 2
            if lo < low or hi >= bound:
                raise error(out_of_range or detail)
        out = arr.astype(np.int64 if n is None else np.int16)
    out.setflags(write=False)
    return out


def read_index(x, what: str, n: int, low: int = 0, error=BadParams, names=()) -> int:
    """x in low..n-1, or the index of the name x in names; else error naming
    x.  One element argument is read by it once, at entry, never in a loop."""
    if names and isinstance(x, str):
        x = next((i for name, i in names if name == x), x)
    kind = "a generator name or an integer" if names else "an integer"
    return read_int(x, error, f"{what} must be {kind} in {low}..{n - 1}", low, n)


def _square(shape) -> int:
    """The side of a square table within the order cap."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise RelationInconsistent("table must be square")
    check_order(shape[0])
    return shape[0]


def cayley_tree(T: np.ndarray, named) -> tuple:
    """A spanning tree of the right Cayley graph, rooted at the identity.

    Keeps each named generator that is not in the subgroup reached so far;
    a breadth-first search with the kept generators then restarts from every
    reached element, the identity first, so a kept s hangs off the edge
    (1, s).  Returns the kept generators, the reached elements in the order
    they were found, the levels (elements by depth), and each element's
    parent u and generator slot i, with y = u * gens[i].
    """
    gens, reached, parent, slot, depth = _cayley_walk(T, named)
    levels: list = [[] for _ in range(max(depth) + 1)]
    for y in reached:
        levels[depth[y]].append(y)
    return (gens, reached, [np.array(lv, dtype=np.int64) for lv in levels],
            np.array(parent, dtype=np.int64), np.array(slot, dtype=np.int64))


def _cayley_walk(T: np.ndarray, named) -> tuple:
    """cayley_tree's walk, as lists: the kept generators, the reached
    elements, and each element's parent, slot and depth."""
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
    return gens, reached, parent, slot, depth


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
    multiplication by each s (phi(x.ys) = phi(xy) phi(s) = phi(x) phi(ys)).
    One n x k gather a side, column i holding phi(x s_i) and phi(x) phi(s_i)
    (take: a fancy index of two broadcast arrays costs up to twice as much)."""
    gens = np.asarray(gens, dtype=np.intp)
    return np.array_equal(phi.take(S.take(gens, axis=1)),
                          T.take(phi.take(gens), axis=1).take(phi, axis=0))


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
        # a table from outside is read exactly; a trusted int16 table is not copied
        arr = (read_integers(table, RelationInconsistent, "table entries must be integers", _square,
                             out_of_range="table entries out of range") if check
               else np.asarray(table, dtype=np.int16))
        self.order = _square(arr.shape)
        arr.setflags(write=False)
        self._np = arr
        generators = list(generators)
        if check:  # int(i) would read an index of 1.5, true or "1" as 1
            read_integers([i for _, i in generators], RelationInconsistent,
                          "generator indices must be integers", self.order, ndim=1,
                          out_of_range=f"generator indices must lie in 0..{self.order - 1}")
        self.generators = [(str(n), int(i)) for n, i in generators]
        self.gens = [i for _, i in self.generators]
        self.name = name
        self.pc = pc
        self._inv: np.ndarray | None = None
        self._orders: list[int] | None = None
        self._tree: tuple | None = None
        self._center: np.ndarray | None = None
        self._conj: np.ndarray | None = None
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
        return int(self._np[read_index(a, "a", self.order), read_index(b, "b", self.order)])

    def inv(self, a: int) -> int:
        return int(self.inverses()[read_index(a, "a", self.order)])

    def inverses(self) -> np.ndarray:
        """The inverse of every element, computed once."""
        if self._inv is None:
            # one 0 per row, rows in order; a flat scan, since a 2-d nonzero
            # builds both index arrays and costs about six times as much
            self._inv = np.flatnonzero(self._np == 0) % self.order
        return self._inv

    def tree(self) -> tuple:
        """cayley_tree of the table on gens, walked once."""
        if self._tree is None:
            self._tree = cayley_tree(self._np, self.gens)
        return self._tree

    def conjugations(self) -> np.ndarray:
        """Conjugation by each generator, built once: row i is the map
        x -> s^-1 x s for s = gens[i], a read-only int16 array.  s^-1 comes
        from one scan of row s, then two gathers give s^-1 (x s)."""
        if self._conj is None:
            T = self._np
            rows = [T[np.flatnonzero(T[s] == 0)[0]][T[:, s]] for s in self.gens]
            self._conj = np.array(rows, dtype=np.int16).reshape(len(self.gens), self.order)
            self._conj.setflags(write=False)
        return self._conj

    def conj(self, g: int, x: int) -> int:
        """g x g^{-1}"""
        g, x = read_index(g, "g", self.order), read_index(x, "x", self.order)
        return int(self._np[self._np[g, x], self.inverses()[g]])

    def power(self, a: int, k: int) -> int:
        """a^k for any integer k, by repeated squaring on the table."""
        a, k = read_index(a, "a", self.order), read_int(k, BadParams, f"k must be an integer, got k={k}")
        if k < 0:
            a, k = self.inverses()[a], -k
        T, r = self._np, 0
        while k:
            if k & 1:
                r = T[r, a]
            a = T[a, a]
            k >>= 1
        return int(r)

    def element_order(self, a: int) -> int:
        a = read_index(a, "a", self.order)
        if self._orders is None:
            self.element_orders()
        return self._orders[a]

    def element_orders(self) -> list[int]:
        """The order of every element, in O(n log n) table gathers per prime of n.

        Each order divides n.  For a prime q of n write n = q^a r: then
        y = x^r has as its order the q-part of x's order, which is q to the
        number of steps the q-th power map takes to carry y to 1, at most a.
        Each q costs two power maps over all elements and a gathers.
        """
        if self._orders is None:
            n = self.order
            orders = np.ones(n, dtype=np.int64)
            every = np.arange(n)
            for q in _prime_divisors(n):
                a, r = valuation(n, q)
                y = self._powers(every, np.full(n, r))
                qth = self._powers(every, np.full(n, q))
                for _ in range(a):
                    moved = y != 0
                    if not moved.any():
                        break
                    orders[moved] *= q
                    y = qth[y]
            self._orders = orders.tolist()
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

    def gen(self, name: str) -> int:
        for n, i in self.generators:
            if n == name:
                return i
        raise KeyError(name)

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^{-1} b^{-1} a b"""
        a, b = read_index(a, "a", self.order), read_index(b, "b", self.order)
        T, inv = self._np, self.inverses()
        return int(T[T[inv[a], inv[b]], T[a, b]])

    def closure(self, seed) -> list[int]:
        """Subgroup generated by seed, as a sorted index list.

        The elements reached from the identity by right multiplication with
        the seeds: in a finite group that already is a subgroup.
        """
        n = self.order
        seed = read_integers(seed, BadParams, f"seed elements must be integers in 0..{n - 1}", n,
                             ndim=1)
        return sorted(_cayley_walk(self._np, sorted(set(seed.tolist())))[1])

    def center(self) -> "Subgroup":
        """The elements each generator's conjugation fixes, found once: the
        generators generate the group (checked in _validate), so these are central."""
        if self._center is None:  # the elements, as a kept Subgroup would refer back: a cycle
            fixed = (self.conjugations() == np.arange(self.order)).all(axis=0)
            self._center = np.flatnonzero(fixed).astype(np.int16)
        return Subgroup(self, self._center, check=False)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "table": self.table,
            "generators": [{"name": n, "index": i} for n, i in self.generators],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Group":
        """The group of a group document.  Its "order" is read as an
        integer and must be the table's row count (0 for a table that is
        not a list); without "generators", every element but the identity
        is named one."""
        n = read_int(doc["order"], RelationInconsistent, "the group order must be an integer")
        rows = len(doc["table"]) if isinstance(doc["table"], list) else 0
        if n != rows:
            raise RelationInconsistent(f"order {n} is not the table's row count {rows}")
        gens = [(g["name"], g["index"]) for g in doc.get("generators", [])]
        return cls(doc["table"], gens or [(f"g{i}", i) for i in range(1, n)])

    def __repr__(self):
        label = self.name or "Group"
        return f"<{label} of order {self.order}>"


class GroupHom(FrozenRecord):
    """Homomorphism given by the image of every element, a read-only int16
    array; checked exactly on the source generators (n k entries)."""

    _fields = ("source", "target", "images")
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, source: Group, target: Group, images: np.ndarray):
        phi = read_integers(images, RelationInconsistent, "images must be integers",
                            target.order, out_of_range="images out of range")
        if phi.shape != (source.order,):
            raise RelationInconsistent("image list has wrong length")
        if phi[0] != 0:
            raise RelationInconsistent("identity must map to identity")
        if not is_multiplicative(phi, source.np_table, target.np_table, source.gens):
            raise RelationInconsistent("map is not multiplicative")
        self._set(source=source, target=target, images=phi)

    def __call__(self, x: int) -> int:
        return int(self.images[read_index(x, "x", self.source.order)])

    def is_surjective(self) -> bool:
        return bool(np.bincount(self.images, minlength=self.target.order).all())

    def kernel(self) -> "Subgroup":
        return Subgroup(self.source, np.flatnonzero(self.images == 0), check=False)


class Subgroup:
    """Subset of a parent group, validated closed and containing identity.

    `elements` is a read-only int16 array in increasing order and `pos` its
    membership array: pos[x] = i for the i-th element x, -1 outside, built
    the first time it is read, so that a subgroup nobody asks about (most
    of the index-2 kernels) costs only its elements.  The subgroups the
    library finds itself (centers, kernels, closures, the index-2 kernels
    and the normal subgroups) are closed by construction and come as
    increasing indices, so they skip the sort and the |H|^2 closure gather
    (check=False); a subset from outside is checked exactly.
    """

    def __init__(self, parent: Group, elements, check: bool = True):
        self.parent = parent
        n = parent.order
        if check:  # range-checked, then sorted and deduplicated by a membership mask
            inside = np.zeros(n, dtype=bool)
            inside[read_integers(elements, RelationInconsistent, "subgroup elements must be integers",
                                 n, out_of_range=f"subgroup elements must lie in 0..{n - 1}")] = True
            elements = np.flatnonzero(inside)
        els = self.elements = np.asarray(elements, dtype=np.int16)
        if not els.size or els[0] != 0:
            raise RelationInconsistent("subgroup must contain the identity")
        els.setflags(write=False)
        # bool: the gather of the |H|^2 products takes a byte each
        if check and not inside[parent.np_table[np.ix_(els, els)]].all():
            raise RelationInconsistent("subgroup not closed under multiplication")
        self._pos: np.ndarray | None = None
        self._group: Group | None = None

    @property
    def pos(self) -> np.ndarray:
        """The membership array, read-only int16, built the first time it is read."""
        if self._pos is None:
            pos = np.full(self.parent.order, -1, dtype=np.int16)
            pos[self.elements] = np.arange(self.order)
            pos.setflags(write=False)
            self._pos = pos
        return self._pos

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, x) -> bool:
        """x is an element of the subgroup; a non-integer never is."""
        return is_integer(x) and 0 <= x < self.parent.order and bool(self.pos[x] >= 0)

    def local(self, parent_idx) -> int:
        """The member's index in elements; KeyError for an integer that is
        not a member, BadParams for a non-integer."""
        x = read_int(parent_idx, BadParams, "element must be an integer")
        if x not in self:
            raise KeyError(x)
        return int(self.pos[x])

    def is_normal(self) -> bool:
        """s^-1 N s lies in N for each generator s, one gather of Group.conjugations.
        The g with g^-1 N g in N form a submonoid that holds every generator, and
        a submonoid of a finite group is a subgroup (g^-1 is a power of g): all of G."""
        return bool((self.pos[self.parent.conjugations()[:, self.elements]] >= 0).all())

    def as_group(self) -> Group:
        """The subgroup with its own numbering; a group by construction,
        since a Subgroup is closed (checked, or closed by construction)."""
        if self._group is None:
            table = self.pos[self.parent.np_table[np.ix_(self.elements, self.elements)]]
            gens = _cayley_walk(table, range(1, self.order))[0]
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

    The least element of a coset is its own least, so the representatives
    are the x with least(x) = x, and a coset's number is the rank of its
    representative among them, one cumsum: the numbering that
    np.unique(least, return_inverse=True) gives, without the sort.
    A group by construction, since N was checked normal.
    """
    if N.parent is not G:
        raise TargetMismatch("subgroup does not live in the given group")
    if not N.is_normal():
        raise NotNormal("subgroup is not normal")
    T = G.np_table
    least = T[:, N.elements].min(axis=1)  # of each coset xN
    is_rep = least == np.arange(G.order)
    reps = np.flatnonzero(is_rep)
    coset_of = (np.cumsum(is_rep, dtype=np.int16) - 1)[least]
    m = len(reps)
    # gathered by row blocks, so no m x m int16 index table is held beside it;
    # the indices are table entries, so in range, and mode="clip" lets take
    # write straight into the output, where "raise" buffers each block
    table = np.empty((m, m), dtype=np.int16)
    for rows in row_blocks(m):
        np.take(coset_of, T.take(reps[rows], 0).take(reps, 1), out=table[rows], mode="clip")
    gens = []
    seen = set()
    for name, idx in G.generators:
        img = int(coset_of[idx])
        if img != 0 and img not in seen:
            gens.append((name, img))
            seen.add(img)
    if m > 1 and not gens:
        gens = [(f"g{i}", i) for i in _cayley_walk(table, range(1, m))[0]]
    Q = Group(table, gens, name=f"{G.name or G.order}/N{N.order}", check=False)
    return Q, GroupHom(G, Q, coset_of)


def direct_product(G1: Group, G2: Group, name: str = "") -> Group:
    """G1 x G2 on the pairs (x, y) numbered x n2 + y; a group by construction,
    as the product of two groups.  It has a pc presentation when both
    factors have one."""
    n1, n2 = G1.order, G2.order
    check_order(n1 * n2)
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
    xs, ys = np.nonzero(f1.images[:, None] == f2.images[None, :])
    m = len(xs)
    if m * f1.target.order != G1.order * G2.order:
        raise RelationInconsistent("pullback order law |G1||G2|/|F| violated")
    check_order(m)
    lookup = np.full((G1.order, G2.order), -1, dtype=np.int16)
    lookup[xs, ys] = np.arange(m)
    T = lookup[G1.np_table[np.ix_(xs, xs)], G2.np_table[np.ix_(ys, ys)]]
    gens = [(f"g{xs[i]}.{ys[i]}", i) for i in _cayley_walk(T, range(1, m))[0]]
    P = Group(T, gens, name=f"pullback{m}", check=False)
    return P, GroupHom(P, G1, xs), GroupHom(P, G2, ys)


# -- structure invariants ---------------------------------------------------


class StructureInvariants(Record):
    _fields = ("center", "exponent", "element_orders", "min_generators")


def is_p_group(G: Group) -> int | None:
    """The prime p if |G| is a nontrivial p-power, 1 for the trivial group, else None."""
    if G.order == 1:
        return 1
    primes = _prime_divisors(G.order)
    return primes[0] if len(primes) == 1 else None


def central_step(G: Group, els: np.ndarray, p: int) -> Subgroup:
    """[P, G] P^p for the normal subgroup P with elements els, p a prime
    (arith.read_prime).

    It is generated by the x^p and the [x, s] = x^-1 x^s, for x in P and
    each generator s (x^s read off Group.conjugations), and that subgroup N
    is already normal: for y in N, which lies in P, y^s = y [y, s] lies in
    N.  In G/N each s then centralises PN/N, so [P, G] lies in N.  x^p is
    x^(p mod |G|), as x^|G| = 1, so a p of any size is a small exponent.
    """
    seeds = [G._powers(els, np.full(len(els), read_prime(p) % G.order)),
             G.np_table[G.inverses()[els], G.conjugations()[:, els]].ravel()]
    # each seed once, in increasing order: a plain np.unique loads numpy.ma
    # (numpy 2.4 asks np.ma.is_masked unless an index or inverse is asked for)
    return subgroup_generated(
        G, np.flatnonzero(np.bincount(np.concatenate(seeds), minlength=G.order)))


def frattini_style_subgroup(G: Group, p: int) -> Subgroup:
    """[G,G] G^p, the kernel of the maximal exponent-p abelian quotient:
    G/N is abelian, of exponent p, for N = [G, G] G^p (central_step, which
    reads p)."""
    return central_step(G, np.arange(G.order), p)


def layer_basis(G: Group, P: np.ndarray, N: Subgroup, q: int) -> tuple[list[int], np.ndarray]:
    """The greedy basis of an elementary abelian layer P/N of exponent q,
    and every element's coordinates in it.

    P holds a subgroup's elements in increasing order and N is normal in P
    with P/N elementary abelian of exponent q.  The picks are the x of P,
    in increasing order, that lie outside the span S of N and the earlier
    picks.  code[y] is y's coordinates, sum a_i q^i with the first pick
    least significant: -1 outside P, 0 on N.  It is built as the span
    grows: picking x makes the cosets x^a S, a < q, the new span (x^q lies
    in S, and x normalises S since P/N is abelian), and
    code[x^a s] = code[s] + a q^i.
    """
    T, a, code, picks = G.np_table, np.arange(q), np.full(G.order, -1), []
    code[N.elements] = 0
    for x in P.tolist():
        if code[x] < 0:
            cosets = T[np.ix_(G._powers(np.full(q, x), a), np.flatnonzero(code >= 0))]
            code[cosets] = code[cosets[0]] + a[:, None] * q ** len(picks)
            picks.append(x)
    return picks, code


def sylow_subgroup(G: Group, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown from the trivial one.

    A p-subgroup H that is not Sylow has a p-element of N_G(H) outside H,
    since p divides [N_G(H) : H] (Sylow's theorems), and then H<g> is again
    a p-group: H is normal in it, with a cyclic quotient of p-power order.
    The least such g is added each time; g normalises H when it conjugates
    each added generator into H.  p must be a prime (arith.read_prime).
    """
    n, T, inv, p = G.order, G.np_table, G.inverses(), read_prime(p)
    full = p ** valuation(n, p)[0]
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


def _frattini_rank(G: Group, p: int) -> int:
    """The rank of G/[G,G]G^p, which is d(G) for a p-group G (Burnside's
    basis theorem)."""
    return valuation(G.order // frattini_style_subgroup(G, p).order, p)[0]


def min_generators(G: Group) -> int:
    """d(G), the least number of elements that generate G.

    When every Sylow subgroup is normal (every catalog group), G is their
    direct product and G/Phi(G) the product of theirs, so d(G) is the
    largest of their Frattini ranks.  Other tables, up to order 256, are
    searched subset by subset."""
    if G.order == 1:
        return 0
    primes = _prime_divisors(G.order)
    if len(primes) == 1:
        return _frattini_rank(G, primes[0])
    sylows = [sylow_subgroup(G, p) for p in primes]
    if all(P.is_normal() for P in sylows):
        return max(_frattini_rank(P.as_group(), p) for P, p in zip(sylows, primes))
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
    """All index-2 subgroups, i.e. kernels of the surjections onto C2.

    They are the kernels of the nonzero maps phi of G/Phi onto C2, Phi =
    [G,G]G^2 (Burnside's basis theorem), and x lies in the kernel of phi
    when code(x) & phi has an even number of bits, code(x) being x's
    coordinates in the greedy basis of G/Phi (layer_basis), phi's bit i
    the image of pick i.  The parities come from one 2^d table, built by
    doubling, and are read in blocks of phi with one kernel per row.
    Each kernel has n/2 elements, so one np.nonzero of a block of kernel
    masks gives the block's kernels as the rows of a (kernels, n/2) int16
    array, and each Subgroup takes its row; its membership array is built
    only if it is read (Subgroup.pos)."""
    if G.order % 2:
        return []
    picks, code = layer_basis(G, np.arange(G.order), frattini_style_subgroup(G, 2), 2)
    odd = np.zeros(1, dtype=bool)
    for _ in picks:
        odd = np.concatenate([odd, ~odd])
    phis, out, step = np.arange(1, len(odd)), [], max(1, BLOCK_ENTRIES // G.order)
    for r0 in range(0, len(phis), step):
        even = ~odd[phis[r0:r0 + step, None] & code]
        # row-major, so the columns come kernel by kernel, each increasing
        kernels = np.nonzero(even)[1].astype(np.int16).reshape(len(even), G.order // 2)
        out += [Subgroup(G, row, check=False) for row in kernels]
    return out


def max_elem_abelian_quotient(G: Group, p: int) -> tuple[Group, GroupHom]:
    """G/[G,G]G^p for a p-group G, p a prime (arith.read_prime)."""
    if is_p_group(G) not in (read_prime(p), 1):
        raise NotPGroup(f"|G| = {G.order} is not a power of {p}")
    N = frattini_style_subgroup(G, p)
    return quotient(G, N)


# -- normal subgroups (bounded enumeration) ---------------------------------


def normal_subgroups(G: Group) -> list[Subgroup] | None:
    """All normal subgroups, or None when there are more than MAX_NORMALS.

    Every normal subgroup is the join of the normal closures of its elements
    (the atoms).  The atom of x is generated by the conjugacy class of x,
    found by conjugating with the generators only (Group.conjugations; they
    generate the group), and x's unit powers and their conjugates have the
    same atom, so one class of cyclic subgroups needs one closure walk.
    Joining each new subgroup with each atom then finds every normal
    subgroup; the join of normal A and B is the product set AB, one gather.
    """
    T, conjs = G.np_table, G.conjugations()

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
            # gather, so no np.unique pass (the plain one loads numpy.ma) is needed
            new = moved[~orbit[moved]]
            orbit[new] = True
        covered |= orbit
        atoms.setdefault(tuple(G.closure(np.flatnonzero(orbit))), x)
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
    # by order, then as tuples: big-endian bytes of indices below 2^15 compare alike
    found = sorted(normals.values(), key=lambda els: (len(els), els.astype(">i2").tobytes()))
    return [Subgroup(G, els, check=False) for els in found]


# -- isomorphism testing (brute force, for tests and small lookups) ---------


def find_isomorphism(G: Group, H: Group) -> list[int] | None:
    """Explicit isomorphism G -> H as an image list, or None.

    Brute-force generator-image search, restricted to order <= 64.  Groups
    with other sorted element orders or center orders are not isomorphic
    (the center check covers commutativity: G is abelian exactly when its
    center is G).  The images of the generators G.tree() keeps fix the map
    along that walk.
    """
    if G.order != H.order:
        return None
    if G.order > 64:
        raise TooLarge("isomorphism search limited to order 64")
    g_orders, h_orders = G.element_orders(), H.element_orders()
    if sorted(g_orders) != sorted(h_orders) or G.center().order != H.center().order:
        return None
    gens, reached, _, parent, slot = G.tree()
    if not gens:
        return [0]
    candidates = [[x for x, o in enumerate(h_orders) if o == g_orders[g]] for g in gens]
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
        for cand in candidates[k]:
            res = extend(k + 1, images + [cand])
            if res is not None:
                return res
        return None

    return extend(0, [])


def is_isomorphic(G: Group, H: Group) -> bool:
    return find_isomorphism(G, H) is not None


# -- dual-module action predicates ------------------------------------------


class DualActionData(Record):
    """Action data for an abelian kernel A = prod C_{m_i}.

    `action` maps each quotient-group generator name to a matrix acting on
    column vectors (entry [i][j] is the i-th coordinate of the image of the
    j-th basis element, an integer read mod the exponent of A); `cyclo`
    gives the cyclotomic character value of the generator, a unit modulo
    the exponent of A.
    """

    _fields = ("orders", "action", "cyclo")

    def __init__(self, orders: tuple, action: dict, cyclo: dict):
        self.orders = tuple(read_integers(
            orders, RelationInconsistent, "cyclic factor orders must be integers", low=-2 ** 63,
            ndim=1, out_of_range="cyclic factor orders must lie in 1..2^63-1").tolist())
        self.action, self.cyclo = action, cyclo
        if any(m < 1 for m in self.orders):
            raise RelationInconsistent("cyclic factor orders must be positive")
        self.exponent = lcm(*self.orders) if self.orders else 1
        for name, M in self.action.items():
            self._check_automorphism(name, M)
        for name, u in self.cyclo.items():
            unit = read_int(u, RelationInconsistent, f"cyclo value for {name} must be an integer")
            if gcd(unit, self.exponent) != 1:
                raise RelationInconsistent(f"cyclo value {u} is not a unit mod {self.exponent}")

    def _apply(self, M, v):
        r = len(self.orders)
        return tuple(sum(M[i][j] * v[j] for j in range(r)) % self.orders[i] for i in range(r))

    def _check_automorphism(self, name, M):
        r = len(self.orders)
        if len(M) != r or any(len(row) != r for row in M):
            raise RelationInconsistent(f"action matrix for {name} has wrong shape")
        M = [read_integers(row, RelationInconsistent, f"action matrix for {name} must have "
                           "integer entries", ndim=1, modulus=self.exponent).tolist() for row in M]
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
    a^(u*t) for all a, u the cyclotomic value of rho.  Each flag asks every
    generator to act as chi^t for some t in its own set: `uniform_power`
    the units mod exp A, `pm_one` {1, -1} and `thm24` {1, m}, for an
    integer m with m^2 = 1 mod exp A.
    """
    m, e = read_int(m, BadM, "m must be an integer"), data.exponent
    if (m * m) % e != 1 % e:
        raise BadM(f"m^2 = {m * m} is not 1 modulo {e}")
    flags = {"uniform_power": [t for t in range(e) if gcd(t, e) == 1], "pm_one": (1, -1),
             "thm24": (1, m)}
    return {flag: all(any(data._is_mult_by(M, data.cyclo.get(name, 1) * t % e) for t in ts)
                      for name, M in data.action.items())
            for flag, ts in flags.items()}
