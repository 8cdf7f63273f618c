"""2-cocycle arithmetic with mu_p coefficients (trivial module).

Conventions fixed throughout: cocycles are normalized (f(1,.) = f(.,1) = 0),
values are exponents of a fixed primitive p-th root, and factor sets are
extracted with the section that picks the least-index preimage
(GroupHom.section).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from math import lcm

import numpy as np

from .catalog import cyclic
from .errors import (
    MAX_ORDER,
    BadIndexSubgroup,
    BadParams,
    GInH,
    IdentityElement,
    KernelNotCentral,
    KernelNotPrime,
    NotACocycle,
    PreimageOrderMismatch,
    PrimeMismatch,
    QuotientConditionFails,
    RelationInconsistent,
    TargetMismatch,
    check_order,
    read_int,
)
from .groups import (
    Group,
    GroupHom,
    Subgroup,
    along_paths,
    is_p_group,
    path_counts,
    quotient,  # not called here; perfbench's tracer test reads pgal.cohomology.quotient
    read_index,
    read_integers,
    right_cosets,
    row_blocks,
    subgroup_generated,
    subgroups_of_index2,
    sylow_subgroup,
)
from .linalg import GFMatrix
from .arith import read_prime
from .presentation import PcTails, read_pc, value_type
from .records import Record

MAX_REPS = 4096  # h2_enumerate lists every class up to this many


def _check_prime(p) -> int:
    """p as a Python int, or BadParams unless it is a prime integer below
    2^62, where value_type(p) is int64: int64 holds the sum of two values
    reduced mod p, 2p - 2, exactly while p <= 2^62."""
    # the range detail for any p of 62 bits or more, a negative one too; read_prime refuses the rest
    return read_prime(read_int(p, BadParams, f"p must be prime, got p={p}", -2 ** 62, 2 ** 62,
                               out_of_range=f"p must be a prime below 2^62, got p={p}"))


def is_cocycle_table(group: Group, p: int, values) -> bool:
    """Exact test of normalization and the cocycle identity (_cocycle_table)."""
    return _cocycle_table(group, p, values) is not None


def _cocycle_table(group: Group, p: int, values) -> np.ndarray | None:
    """The values read mod p as an n x n int64 table if they make a cocycle,
    else None: an exact test of normalization and the cocycle identity.

    The identity f(x,y) + f(xy,z) = f(y,z) + f(x,yz) is checked for all x, y
    and z in the group's generator list (Group.gens), n^2 k entries.  That
    covers every z: the z for which it holds for all x, y contain 1 and are
    closed under products (the closure argument of Light's associativity
    test), and those generators generate.  Values that are not integers
    make no cocycle; values are exponents of zeta, read mod p, and as the
    identity holds mod any modulus, p need only be an integer in 2..2^62.
    Each term of the identity is a sum of four values in [0, p) with two
    signs, so it lies within +-(2p - 2) < 2^63 and the int64 test is exact.
    """
    p = read_int(p, BadParams, f"p must be an integer in 2..2^62, got p={p}", 2, 2 ** 62 + 1)
    try:
        F = read_integers(values, NotACocycle, "", modulus=p)
    except NotACocycle:
        return None
    n = group.order
    if F.shape != (n, n) or F[0].any() or F[:, 0].any():
        return None
    T = group.np_table
    for s in group.gens:
        for rows in row_blocks(n):
            Fx = F[rows]
            if ((Fx + F[T[rows], s] - F[:, s] - Fx[:, T[:, s]]) % p).any():
                return None
    return F


class Cocycle2:
    """Normalized 2-cocycle on `group` with values in Z/p.

    Values from outside are checked exactly and reduced mod p.  The library's
    own constructions pass check=False with integer values already reduced
    into [0, p).  Either way the values are kept read-only in value_type(p),
    and an array of that type is not copied.  add and neg sum two values in
    [0, p) or negate one, so they stay within 2p - 2, which value_type(p)
    holds.
    """

    def __init__(self, group: Group, p: int, values, check: bool = True):
        self.group, self.p = group, _check_prime(p)
        values = _cocycle_table(group, self.p, values) if check else values
        if values is None:
            raise NotACocycle("table violates normalization or the cocycle identity")
        self.values = np.asarray(values, dtype=value_type(self.p))
        self.values.setflags(write=False)

    def __call__(self, x: int, y: int) -> int:
        n = self.group.order
        return int(self.values[read_index(x, "x", n), read_index(y, "y", n)])

    def add(self, other: "Cocycle2") -> "Cocycle2":
        if other.group is not self.group or other.p != self.p:
            raise PrimeMismatch("cocycles live on different groups or primes")
        return Cocycle2(self.group, self.p, (self.values + other.values) % self.p, check=False)

    def neg(self) -> "Cocycle2":
        return Cocycle2(self.group, self.p, (-self.values) % self.p, check=False)

    def transport(self, images, target: Group) -> "Cocycle2":
        """Push the cocycle along an isomorphism given by an image list."""
        phi = GroupHom(self.group, target, images)
        if target.order != self.group.order or not phi.is_surjective():
            raise RelationInconsistent("map is not a bijection")
        back = phi.section()  # the inverse bijection
        return Cocycle2(target, self.p, self.values[np.ix_(back, back)], check=False)

    def to_json(self, group_ref: str | None = None) -> dict:
        return {
            "p": self.p,
            "group": group_ref if group_ref is not None else self.group.to_json(),
            "values": self.values.tolist(),
        }


class ExtensionClass(Record):
    """A cocycle together with its canonical central extension model."""

    _fields = ("cocycle", "extension", "proj", "kernel_gen")


# -- factor sets <-> extensions ----------------------------------------------


def cocycle_of_extension(E: Group, proj: GroupHom, kernel_gen: int) -> Cocycle2:
    """Factor set of a central extension via the least-index-preimage section."""
    if proj.source is not E:
        raise TargetMismatch("projection must start at the extension group")
    kernel_gen = read_index(kernel_gen, "kernel_gen", E.order)
    ker = np.flatnonzero(proj.images == 0)
    p = read_prime(len(ker), KernelNotPrime, f"kernel has order {len(ker)}")
    # kernel_gen^0 .. kernel_gen^p in one gather
    powers = E._powers(np.full(p + 1, kernel_gen), np.arange(p + 1))
    if powers[p] != 0 or sorted(powers[:p].tolist()) != ker.tolist():
        raise KernelNotPrime("kernel_gen does not generate the kernel")
    T, F = E.np_table, proj.target
    moved = np.flatnonzero(T[kernel_gen] != T[:, kernel_gen])
    if moved.size:
        raise KernelNotCentral(f"kernel generator fails to commute with element {moved[0]}")
    kpow = np.zeros(E.order, dtype=value_type(p))
    kpow[powers[:p]] = np.arange(p)
    sec = proj.section()
    sec_inv = np.nonzero(T[sec] == 0)[1]
    # f(a, b) = s(a) s(b) s(ab)^-1, a power of the kernel generator; the
    # factor set of a central extension, so a cocycle by construction
    vals = kpow[T[T[np.ix_(sec, sec)], sec_inv[F.np_table]]]
    return Cocycle2(F, p, vals, check=False)


def extension_of_cocycle(f: Cocycle2) -> ExtensionClass:
    """The extension E of G by mu_p = <z> with factor set f: x z^c times
    y z^d is xy z^(c + d + f(x, y)), and x z^c is numbered p x + c, the
    numbering of G's pc presentation extended by a last generator z, so
    that z is element 1 and G's generator g is g p in E.

    The table is built row-wise in int16, each row of E from one row of f
    and of G, so numpy's inner loops run along whole rows: before the
    reduction mod p an entry is below 3p, after it below p n <= MAX_ORDER.
    """
    G, p = f.group, f.p
    n = G.order
    check_order(p * n)
    if not is_cocycle_table(G, p, f.values):
        raise NotACocycle("input fails the cocycle identity")
    I = np.arange(p, dtype=np.int16)
    F = np.repeat(f.values.astype(np.int16), p, axis=1)  # F[x, p y + d] = f(x, y)
    T = F[:, None, :] + np.add.outer(I, np.tile(I, n))  # T[x, c, p y + d] = f(x, y) + c + d
    T %= p
    T += np.repeat(G.np_table * np.int16(p), p, axis=1)[:, None, :]
    T = T.reshape(p * n, p * n)
    gens = [("zeta", 1)] + [(nm if nm != "zeta" else "zeta'", idx * p) for nm, idx in G.generators]
    # a group by construction, since f passed the exact cocycle check
    E = Group(T, gens, name=f"ext{p}x{G.name or n}", check=False)
    proj = GroupHom(E, G, np.arange(p * n) // p)
    return ExtensionClass(f, E, proj, 1)


# -- coboundaries on a spanning tree ---------------------------------------------


class CoboundarySpace:
    """Cocycles modulo coboundaries on (group, p) through a spanning tree of the Cayley graph.

    The non-tree edges (y, s_i) of the group's Cayley walk (Group.tree),
    N = n(k-1)+1 of them, are the coordinates of a cocycle that vanishes on
    the tree edges.  Every normalized cocycle f is cohomologous to one that
    does, f - delta(w) for the w built along the tree (`normalise`), and two
    such differ by a coboundary exactly when they differ by a combination of
    the k coboundaries delta(phi_i) that vanish on the tree; phi_i(y) counts
    the uses of s_i on the tree path to y (Handbook of Computational Group
    Theory, 7.6).  delta(g)(x, y) = g(x) + g(y) - g(xy).  One solve over
    those rows and any further ones (`solve`) gives the coboundary witness
    and the corestriction image (cor_image_search), and a rank test against
    them the classes of h2_enumerate's Sylow step.
    """

    def __init__(self, group: Group, p: int):
        self.group, self.p = group, _check_prime(p)  # GF(p) elimination needs a prime
        gens, _, self.parent, self.slot = self.tree = group.tree()
        self.gens = np.array(gens, dtype=np.int64)
        on_tree = np.zeros((group.order, len(gens)), dtype=bool)
        on_tree[self.parent[1:], self.slot[1:]] = True
        self.edge_y, self.edge_slot = np.nonzero(~on_tree)
        self.N = len(self.edge_y)
        self.edge_z = group.np_table[self.edge_y, self.gens[self.edge_slot]]

    @cached_property
    def phi(self) -> np.ndarray:  # phi[y, i] = phi_i(y), built once, when first read
        return path_counts(self.tree)

    @cached_property
    def dphi(self) -> np.ndarray:  # dphi[i] = delta(phi_i) on the non-tree edges
        own = np.eye(len(self.gens), dtype=np.int64)[self.edge_slot]
        return ((self.phi[self.edge_y] + own - self.phi[self.edge_z]) % self.p).T

    def normalise(self, Fs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(w, v) for a normalized cochain F with values in [0, p), read only
        at its n x k columns Fs = F[:, gens]: the 1-cochain w in [0, p), int64,
        built along the tree so that F - delta(w) vanishes on the tree edges,
        and the values v of F - delta(w) on the non-tree edges, mod p.  On
        the tree edge (u, s_i) to y, w(y) = w(u) + w(s_i) - F(u, s_i) with
        w(s_i) = -F(1, s_i), so -w sums the steps F(u, s_i) + F(1, s_i)
        (u != 1) along the tree paths (along_paths), mod p in every round;
        a zero column pads Fs for the identity's slot -1."""
        p, Z = self.p, np.hstack([Fs, np.zeros((len(Fs), 1), Fs.dtype)]).astype(np.int64)
        step = (Z[self.parent, self.slot] + Z[0, self.slot] * (self.parent > 0)) % p
        w = -along_paths(self.tree, step, lambda a, b: (a + b) % p) % p
        y, i = self.edge_y, self.edge_slot
        return w, (Fs[y, i] - w[y] - w[self.gens[i]] + w[self.edge_z]) % p

    def solve(self, v: np.ndarray, extra=()) -> np.ndarray | None:
        """Coefficients c with v = c [delta(phi); extra] mod p, or None, for
        v and the rows of extra on the non-tree edges: with the rows augmented
        by the identity, [v, 0] reduces to [0, -c] exactly when v is in their span."""
        p, N = self.p, self.N
        rows = np.vstack([self.dphi, *extra])
        mat = GFMatrix(N + len(rows), p)
        mat.add_rows(np.hstack([rows, np.eye(len(rows), dtype=np.int64)]))
        red = mat.reduce(np.concatenate([v, np.zeros(len(rows), dtype=np.int64)])[None])[0]
        return None if red[:N].any() else -red[N:] % p

    def witness(self, values):
        """A 1-cochain w with delta(w) = values, as a list, or None if there is none.

        After `normalise`, the values v on the non-tree edges must be a
        combination c of the delta(phi_i), and then w + sum c_i phi_i is one.
        The witness is checked against the full table before it is returned;
        that check sums four values in [0, p) with two signs, within
        +-(2p - 2) < 2^63.  Values that are not integers, or not an n x n
        table, are NotACocycle.
        """
        p, T, n = self.p, self.group.np_table, self.group.order
        F = read_integers(values, NotACocycle, "cocycle values must be integers", modulus=p)
        if F.shape != (n, n):
            raise NotACocycle(f"cocycle values must be a table of shape {n} x {n}")
        w, v = self.normalise(F[:, self.gens])
        if v.any():
            if (c := self.solve(v)) is None:
                return None
            w = (w + self.phi @ c) % p
        for rows in row_blocks(n):
            if ((w[rows, None] + w[None, :] - w[T[rows]] - F[rows]) % p).any():
                return None
        return [int(c) for c in w]


def verify(group: Group, p: int, values) -> dict:
    """Check the cocycle conditions and test for being a coboundary."""
    cob = CoboundarySpace(group, p)
    F = _cocycle_table(group, cob.p, values)
    g = cob.witness(F) if F is not None else None
    return {"is_cocycle": F is not None, "is_coboundary": g is not None, "witness": g}


def is_coboundary(f: Cocycle2) -> bool:
    return CoboundarySpace(f.group, f.p).witness(f.values) is not None


def class_equal(f1: Cocycle2, f2: Cocycle2) -> bool:
    """Equality in H^2: the difference is a coboundary."""
    return CoboundarySpace(f1.group, f1.p).witness(f1.add(f2.neg()).values) is not None


# -- H^2 enumeration -----------------------------------------------------------


class Classes(Sequence):
    """The classes of an H2Result, each built only when it is read.

    Index i is the combination of the basis whose coefficients are the
    base-p digits of i, the first basis element's most significant (the
    order of itertools.product); when not every class is listed, index i
    is the i-th basis element.  Slices give lists.
    """

    def __init__(self, build, p: int, dim: int, complete: bool):
        self._build, self._p, self._dim, self._complete = build, p, dim, complete

    def __len__(self) -> int:
        return self._p ** self._dim if self._complete else self._dim

    def __getitem__(self, i):
        i = range(len(self))[i]  # an index or a slice, read and bounded as a sequence's
        if isinstance(i, range):
            return [self[j] for j in i]
        if self._complete:
            coeffs = [i // self._p ** (self._dim - 1 - d) % self._p for d in range(self._dim)]
        else:
            coeffs = [int(d == i) for d in range(self._dim)]
        return self._build(np.array(coeffs, dtype=np.int64))


class H2Result(Record):
    _fields = ("dimension", "class_count", "representatives", "complete")


def h2_enumerate(group: Group, p: int) -> H2Result:
    """Dimension of H^2(G, mu_p) and class representatives.

    When p does not divide |G| the dimension is 0: |G| kills H^2 and is a
    unit mod p (Brown, Cohomology of Groups, III.10).  Otherwise one solve,
    PcTails, serves every table; it never builds the extension, so no order
    cap applies.  A group with a pc presentation (catalog groups and their
    products) uses its own; any other q-group table has one read off it
    (read_pc), and its classes move back to G's numbering through the
    bijection L.  Any other group goes through a Sylow p-subgroup P:
    cor res = [G : P] is a unit mod p, so cor maps H^2(P) onto H^2(G)
    (Brown, Cohomology of Groups, III.10), and the cor of a basis of H^2(P)
    that raise the rank in the tree coordinates of CoboundarySpace, against
    the k rows delta(phi_i), are a basis of H^2(G).

    The representatives list all p^dim classes when that count is at most
    MAX_REPS, and otherwise a basis; either way a class is built when read.
    """
    p = _check_prime(p)
    if group.order % p:
        n = group.order
        h, build = 0, lambda c: Cocycle2(group, p, np.zeros((n, n), value_type(p)), check=False)
    else:
        h, build = _classes(group, p)
    count = p ** h
    complete = count <= MAX_REPS
    return H2Result(h, count, Classes(build, p, h, complete), complete)


def _classes(group: Group, p: int):
    """dim H^2 and the class of a coefficient vector, linear in it: by
    PcTails on the group's presentation or on one read off its table, and
    for a group that is not a q-group by the Sylow step."""
    if group.pc is None and is_p_group(group) is None:
        return _sylow_classes(group, p)
    H, L = (group, None) if group.pc is not None else read_pc(group)
    tails, back = PcTails(H, p), None if L is None else np.argsort(L)  # L^-1
    basis = tails.basis

    def build(c):
        f = tails.cocycle(c @ basis)
        return Cocycle2(group, p, f if back is None else f[np.ix_(back, back)], check=False)
    return len(basis), build


def _sylow_classes(group: Group, p: int):
    """dim H^2 and the class of a coefficient vector, by corestriction from
    a Sylow p-subgroup P (see h2_enumerate): the basis classes of H^2(P)
    whose corestrictions' tree coordinates (_cor_coords) raise the rank."""
    P = sylow_subgroup(group, p)
    dim_p, build_p = _classes(P.as_group(), p)
    cob = CoboundarySpace(group, p)
    rank = GFMatrix(cob.N, p)
    rank.add_rows(cob.dphi)
    kept = [e for e, v in zip(np.eye(dim_p, dtype=np.int64), _cor_coords(cob, P, dim_p, build_p))
            if rank.add_rows(v[None])]
    basis = np.array(kept, dtype=np.int64).reshape(len(kept), dim_p)

    def build(c):
        return corestrict(build_p(c @ basis % p), P)
    return len(basis), build


def _cor_coords(cob: CoboundarySpace, H: Subgroup, dim: int, build) -> np.ndarray:
    """The tree coordinates of the corestrictions to G of the basis classes
    build(e_j) of H^2(H), one row each, gathered at the kept generators'
    columns, the only ones cob.normalise reads."""
    return np.array([cob.normalise(_transfer(build(e).values, H, cob.gens, cob.p))[1]
                     for e in np.eye(dim, dtype=np.int64)], dtype=np.int64).reshape(dim, cob.N)


# -- restriction, inflation, corestriction -------------------------------------


def restrict(f: Cocycle2, H: Subgroup) -> Cocycle2:
    """Restriction to a subgroup, indexed by H.as_group() element order."""
    if H.parent is not f.group:
        raise TargetMismatch("subgroup does not live in the cocycle's group")
    vals = f.values[np.ix_(H.elements, H.elements)]
    return Cocycle2(H.as_group(), f.p, vals, check=False)


def inflate(f: Cocycle2, proj: GroupHom) -> Cocycle2:
    """Pullback along a projection G -> G/N."""
    if proj.target is not f.group:
        raise TargetMismatch("projection target does not carry the cocycle")
    vals = f.values[np.ix_(proj.images, proj.images)]
    return Cocycle2(proj.source, f.p, vals, check=False)


def corestrict(fbar: Cocycle2, H: Subgroup, transversal=None) -> Cocycle2:
    """Corestriction from H to G = H.parent, by the transfer on inhomogeneous 2-cochains.

    Take a right transversal R of H in G (by default the least element of
    each right coset Hx) and write t g = h(t, g) bar(t g), with bar(t g) in R
    and h(t, g) in H.  Then

        cor(f)(g1, g2) = sum over t in R of f(h(t, g1), h(bar(t g1), g2))

    (Brown, Cohomology of Groups, III.9).  Two |R| x n gathers give h and
    bar on R, and then each t one gather of n^2 entries, in row blocks.  The
    corestriction of a cocycle is a cocycle, so the output is not checked
    again.
    """
    Hgrp = H.as_group()
    if fbar.group is not Hgrp and not (
        fbar.group.order == Hgrp.order
        and np.array_equal(fbar.group.np_table, Hgrp.np_table)
    ):
        raise BadIndexSubgroup("cocycle is not indexed by this subgroup")
    G, p = H.parent, fbar.p
    return Cocycle2(G, p, _transfer(fbar.values, H, np.arange(G.order), p, transversal), check=False)


def _transfer(F: np.ndarray, H: Subgroup, cols: np.ndarray, p: int, transversal=None) -> np.ndarray:
    """corestrict's sum for the values F of a cochain on H, in [0, p), at
    the columns cols of G's table only, in F's type: the sum is reduced mod p
    at each coset, so each partial sum adds two values in [0, p) and stays
    within 2p - 2, which value_type(p) holds."""
    G = H.parent
    n, T, inv = G.order, G.np_table, G.inverses()
    if transversal is None:
        R, bar = right_cosets(G, H.elements)
    else:
        R = read_integers(transversal, BadIndexSubgroup,
                          f"transversal elements must be integers in 0..{n - 1}", n, ndim=1,
                          out_of_range=f"transversal elements must lie in 0..{n - 1}")
        cosets = T[np.ix_(H.elements, R)]  # column i is H R[i]
        if len(R) * H.order != n or (np.bincount(cosets.ravel(), minlength=n) != 1).any():
            raise BadIndexSubgroup("not a right transversal of the subgroup")
        bar = np.empty(n, dtype=np.int64)
        bar[cosets] = np.arange(len(R))
    tg = T[R]
    nxt = bar[tg]  # bar(t g), by its place in R
    h = H.pos[T[tg, inv[R[nxt]]]]  # h(t, g) = t g bar(t g)^-1, numbered in H
    hc = h[:, cols]
    out = np.zeros((n, len(cols)), dtype=F.dtype)
    for rows in row_blocks(n):
        for i in range(len(R)):
            out[rows] = (out[rows] + F[h[i, rows][:, None], hc[nxt[i, rows]]]) % p
    return out


def _tate_g(fbar: Cocycle2, H: Subgroup, g: int | None) -> int:
    """corestrict_tate's checks, and its g: the least element outside H for
    None.  A g that is not an integer element of G is BadIndexSubgroup, as
    for corestrict's transversal."""
    if fbar.p != 2:
        raise PrimeMismatch("the transfer formula is implemented for p = 2 only")
    if H.index() != 2:
        raise BadIndexSubgroup(f"subgroup has index {H.index()}, need 2")
    g = (int(np.argmin(H.pos >= 0)) if g is None
         else read_index(g, "g", H.parent.order, error=BadIndexSubgroup))
    if g in H:
        raise GInH(f"element {g} lies in the subgroup")
    return g


def corestrict_tate(fbar: Cocycle2, H: Subgroup, g: int | None = None) -> Cocycle2:
    """Quadratic corestriction (p = 2, index 2): corestrict with the
    transversal {1, g}, g as read by _tate_g."""
    return corestrict(fbar, H, [0, _tate_g(fbar, H, g)])


# -- the raise/lower companion construction ------------------------------------


def cyclic_step_cocycle(p: int, n_exp: int) -> Cocycle2:
    """Class of 1 -> mu_p -> C_{p^n} -> C_{p^(n-1)} -> 1 (the carry cocycle).

    With t a generator of C_{p^n}, m = p^(n-1) and the kernel generated by
    t^m, it is the factor set of the section i -> t^i of C_m:
    t^i t^j t^-((i+j) mod m) = (t^m)^[i+j >= m].
    """
    p = _check_prime(p)
    m = p ** (read_index(n_exp, "n_exp", MAX_ORDER.bit_length() + 1, low=1) - 1)
    i = np.arange(m)
    return Cocycle2(cyclic(m), p, i[:, None] + i >= m, check=False)


def raise_lower(E: ExtensionClass, sigma1, n_exp: int, direction: str) -> ExtensionClass:
    """Companion extension changing the order of sigma1's preimage by p.

    `raise` sends a preimage of order p^(n-1) to one of order p^n; `lower`
    is the inverse.  All relations not involving the sigma1 power persist.
    The new class adds a carry value, 0 or +-1, to a value in [0, p), so the
    sum lies in -1..p, which value_type(p) holds.
    """
    if direction not in ("raise", "lower"):
        raise QuotientConditionFails(f"unknown direction {direction!r}")
    G = E.proj.target
    p = E.cocycle.p
    s1 = read_index(sigma1, "sigma1", G.order, names=G.generators)
    m = p ** (read_index(n_exp, "n_exp", MAX_ORDER.bit_length() + 1, low=1) - 1)
    if G.element_order(s1) != m:
        raise QuotientConditionFails(f"sigma1 must have order {m} in the base group")
    others = [i for _, i in G.generators if i != s1]
    H = subgroup_generated(G, others)
    if s1 in H or G.order != m * H.order:
        raise QuotientConditionFails("quotient by the other generators is not cyclic of order p^(n-1)")
    if not H.is_normal():
        raise QuotientConditionFails("the subgroup of the other generators is not normal")
    # no power s1^i with 0 < i < m lies in H: H is normal and holds every
    # named generator but s1, so G = <s1> H and |<s1> n H| = m |H| / |G| = 1
    pre_order = E.extension.element_order(E.proj.section()[s1])
    want = m if direction == "raise" else p * m
    if pre_order != want:
        raise PreimageOrderMismatch(
            f"preimage of sigma1 has order {pre_order}, need {want} to {direction}")
    coset_of = right_cosets(G, H.elements)[1]
    # dlog[s1^i H] = i, the exponent that indexes the carry cocycle on C_m
    dlog = np.empty(m, dtype=np.int64)
    dlog[coset_of[G._powers(np.full(m, s1), np.arange(m))]] = np.arange(m)
    expo = dlog[coset_of]
    inf_vals = cyclic_step_cocycle(p, n_exp).values[expo[:, None], expo[None, :]]
    sign = 1 if direction == "raise" else -1
    new_vals = (E.cocycle.values + sign * inf_vals) % p
    # extension_of_cocycle checks the sum
    return extension_of_cocycle(Cocycle2(G, p, new_vals, check=False))


def lift_order_diag(f: Cocycle2, z: int) -> dict:
    """f(z^(k/2), z^(k/2)) and the order of z's preimages (p = 2)."""
    if f.p != 2:
        raise PrimeMismatch("defined for p = 2")
    z = read_index(z, "z", f.group.order)
    if z == 0:
        raise IdentityElement("z must not be the identity")
    k = f.group.element_order(z)
    if k % 2:
        raise QuotientConditionFails("element order must be even")
    h = f.group.power(z, k // 2)
    val = int(f.values[h, h])
    return {"value": val, "lifted_order": k if val == 0 else 2 * k}


def prop54_report(G: Group, H: Subgroup, g: int | None, fbar: Cocycle2) -> dict:
    """Exponent comparison for a corestricted extension (transfer context),
    with g read as corestrict_tate reads it, for the corestriction and the
    part-(2) conjugation test alike.

    Part (2) needs exp(H) even (its argument lifts the half-order power of a
    maximal-order element), so the trivial subgroup is reported inapplicable.
    """
    if H.parent is not G:
        raise TargetMismatch("subgroup does not live in the given group")
    g = _tate_g(fbar, H, g)
    f = corestrict(fbar, H, [0, g])
    exp_h2 = extension_of_cocycle(fbar).extension.exponent()
    E1 = extension_of_cocycle(f)
    orders = np.array(E1.extension.element_orders())
    exp_h1 = lcm(*orders[H.pos[E1.proj.images] >= 0].tolist())
    exp_h = H.as_group().exponent()
    applicable = exp_h % 2 == 0 and all(G.conj(g, x) in G.closure([x]) for x in H.elements
                                        if G.element_order(x) == exp_h)
    return {
        "expH1": exp_h1,
        "expH2": exp_h2,
        "ineq_holds": exp_h1 <= exp_h2,
        "part2_applicable": applicable,
        "part2_holds": (exp_h1 == exp_h) if applicable else None,
    }


def cor_image_search(G: Group, target: Cocycle2):
    """(H, fbar) with [G : H] = 2 and cor(fbar) ~ target at p = 2, or None.

    cor is additive, so cor(H^2(H)) + B^2(G) is spanned by the cor of a
    basis of H^2(H) and the coboundaries (Brown, Cohomology of Groups,
    III.9): one CoboundarySpace.solve per H over the rows delta(phi_i) and
    _cor_coords, whose coefficients on the latter give fbar.
    """
    if target.p != 2:
        raise PrimeMismatch("search implemented for p = 2")
    if target.group is not G:
        raise TargetMismatch("target cocycle does not live on the group searched")
    cob = CoboundarySpace(G, 2)
    v = cob.normalise(target.values[:, cob.gens])[1]
    for H in subgroups_of_index2(G):
        dim, build = _classes(H.as_group(), 2)
        c = cob.solve(v, _cor_coords(cob, H, dim, build))
        if c is not None:
            return H, build(c[len(cob.gens):])
    return None


# -- commutator data off chosen preimages --------------------------------------


def power_commutator_data(E: ExtensionClass, gens: list) -> tuple[list, dict]:
    """Read s_i^p = zeta^(d_ii) and s_i s_j = zeta^(d_ij) s_j s_i off least-index preimages.

    Entries are None when the corresponding element does not land in the
    kernel (the convention-dependent data only exists when it does).
    """
    ext, proj, p = E.extension, E.proj, E.cocycle.p
    kp = {int(z): j for j, z in enumerate(ext._powers(np.full(p, E.kernel_gen), np.arange(p)))}
    sec = proj.section()
    pre = [int(sec[read_index(g, "gens", proj.target.order, names=proj.target.generators)])
           for g in gens]
    diag = [kp.get(ext.power(s, p)) for s in pre]
    offdiag = {(i, j): kp.get(ext.mul(ext.mul(pre[i], pre[j]), ext.inv(ext.mul(pre[j], pre[i]))))
               for i in range(len(pre)) for j in range(i + 1, len(pre))}
    return diag, offdiag
