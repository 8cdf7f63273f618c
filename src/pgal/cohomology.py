"""2-cocycle arithmetic with mu_p coefficients (trivial module).

Conventions fixed throughout: cocycles are normalized (f(1,.) = f(.,1) = 0),
values are exponents of a fixed primitive p-th root, and factor sets are
extracted with the section that picks the least-index preimage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

import numpy as np

from .catalog import cyclic
from .errors import (
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
    TargetMismatch,
    TooLarge,
)
from .groups import (
    MAX_ORDER,
    Group,
    GroupHom,
    Subgroup,
    cayley_tree,
    integer_array,
    path_counts,
    quotient,
    row_blocks,
    subgroup_generated,
    subgroups_of_index2,
)
from .linalg import GFMatrix
from .arith import is_prime


def _check_prime(p) -> None:
    if not is_prime(p):
        raise BadParams(f"p must be prime, got p={p}")


def is_cocycle_table(group: Group, p: int, values) -> bool:
    """Exact test of normalization and the cocycle identity.

    The identity f(x,y) + f(xy,z) = f(y,z) + f(x,yz) is checked for all x, y
    and z a generator, n^2 k entries.  That covers every z: the z for which
    it holds for all x, y contain 1 and are closed under products (the
    closure argument of Light's associativity test).  Values that are not
    integers (groups.integer_array) make no cocycle; values are exponents of
    zeta, so one of any size is read mod p.
    """
    try:
        F = integer_array(values, p)
    except TypeError:
        return False
    n = group.order
    if F.shape != (n, n) or F[0].any() or F[:, 0].any():
        return False
    T = group.np_table
    for s in sorted({i for _, i in group.generators}):
        for rows in row_blocks(n):
            Fx = F[rows]
            if ((Fx + F[T[rows], s] - F[:, s] - Fx[:, T[:, s]]) % p).any():
                return False
    return True


class Cocycle2:
    """Normalized 2-cocycle on `group` with values in Z/p."""

    def __init__(self, group: Group, p: int, values, check: bool = True):
        _check_prime(p)
        if check and not is_cocycle_table(group, p, values):
            raise NotACocycle("table violates normalization or the cocycle identity")
        self.group = group
        self.p = int(p)
        self.values = integer_array(values, self.p)
        self.values.setflags(write=False)

    def __call__(self, x: int, y: int) -> int:
        return int(self.values[x, y])

    def add(self, other: "Cocycle2") -> "Cocycle2":
        if other.group is not self.group or other.p != self.p:
            raise PrimeMismatch("cocycles live on different groups or primes")
        return Cocycle2(self.group, self.p, (self.values + other.values) % self.p, check=False)

    def neg(self) -> "Cocycle2":
        return Cocycle2(self.group, self.p, (-self.values) % self.p, check=False)

    def transport(self, images, target: Group) -> "Cocycle2":
        """Push the cocycle along an isomorphism given by an image list."""
        phi = np.asarray(images, dtype=np.int64)
        vals = np.zeros((target.order, target.order), dtype=np.int64)
        vals[phi[:, None], phi[None, :]] = self.values
        return Cocycle2(target, self.p, vals)

    def to_json(self, group_ref: str | None = None) -> dict:
        return {
            "p": self.p,
            "group": group_ref if group_ref is not None else self.group.to_json(),
            "values": self.values.tolist(),
        }


@dataclass
class ExtensionClass:
    """A cocycle together with its canonical central extension model."""

    cocycle: Cocycle2
    extension: Group
    proj: GroupHom
    kernel_gen: int


# -- factor sets <-> extensions ----------------------------------------------


def _section(proj: GroupHom) -> np.ndarray:
    """The least preimage of each element of proj's target."""
    images, sec = np.unique(np.asarray(proj.images), return_index=True)
    if len(images) != proj.target.order:
        raise TargetMismatch("projection is not surjective")
    return sec


def cocycle_of_extension(E: Group, proj: GroupHom, kernel_gen: int) -> Cocycle2:
    """Factor set of a central extension via the least-index-preimage section."""
    if proj.source is not E:
        raise TargetMismatch("projection must start at the extension group")
    images = np.asarray(proj.images, dtype=np.int64)
    ker = np.flatnonzero(images == 0)
    p = len(ker)
    if not is_prime(p):
        raise KernelNotPrime(f"kernel has order {p}")
    powers = []
    x = 0
    for _ in range(p):
        powers.append(x)
        x = E.mul(x, kernel_gen)
    if x != 0 or sorted(powers) != ker.tolist():
        raise KernelNotPrime("kernel_gen does not generate the kernel")
    T, F = E.np_table, proj.target
    moved = np.flatnonzero(T[kernel_gen] != T[:, kernel_gen])
    if moved.size:
        raise KernelNotCentral(f"kernel generator fails to commute with element {moved[0]}")
    kpow = np.zeros(E.order, dtype=np.int64)
    kpow[powers] = np.arange(p)
    sec = _section(proj)
    sec_inv = np.nonzero(T[sec] == 0)[1]
    # f(a, b) = s(a) s(b) s(ab)^-1, a power of the kernel generator
    vals = kpow[T[T[np.ix_(sec, sec)], sec_inv[F.np_table]]]
    return Cocycle2(F, p, vals)


def extension_of_cocycle(f: Cocycle2) -> ExtensionClass:
    """Group on pairs (zeta-exponent, base element) with twisted multiplication."""
    G, p = f.group, f.p
    n = G.order
    if p * n > MAX_ORDER:
        raise TooLarge(f"extension order {p * n} exceeds cap {MAX_ORDER}")
    if not is_cocycle_table(G, p, f.values):
        raise NotACocycle("input fails the cocycle identity")
    # (i, x)(j, y) = (i + j + f(x, y), xy), numbered i n + x; built in int16
    I = np.arange(p, dtype=np.int16)
    T = I[:, None, None, None] + I[None, None, :, None] + f.values.astype(np.int16)[None, :, None, :]
    T %= p
    T *= n
    T += G.np_table[None, :, None, :]
    T = T.reshape(p * n, p * n)
    gens = [("zeta", n)]
    for name, idx in G.generators:
        nm = name if name != "zeta" else "zeta'"
        gens.append((nm, idx))
    # a group by construction, since f passed the exact cocycle check
    E = Group(T, gens, name=f"ext{p}x{G.name or n}", check=False)
    proj = GroupHom(E, G, tuple(int(x % n) for x in range(p * n)))
    return ExtensionClass(f, E, proj, n)


# -- the spanning-tree engine ---------------------------------------------------


class CoboundarySpace:
    """Cocycles and coboundaries on (group, p) through a spanning tree of the Cayley graph.

    The non-tree edges (y, s_i) of groups.cayley_tree, N = n(k-1)+1 of them, are
    the coordinates of a cocycle that vanishes on the tree edges.  Every
    normalized cocycle is cohomologous to one that does, and two such differ
    by a coboundary exactly when they differ by a combination of the k
    coboundaries delta(phi_i) that vanish on the tree; phi_i(y) counts the
    uses of s_i on the tree path to y (Handbook of Computational Group
    Theory, 7.6).  delta(g)(x, y) = g(x) + g(y) - g(xy).
    """

    def __init__(self, group: Group, p: int):
        self.group, self.p = group, p
        T = group.np_table
        self.tree = cayley_tree(T, [g for _, g in group.generators])
        gens, _, self.levels, self.parent, self.slot = self.tree
        self.gens = np.array(gens, dtype=np.int64)
        on_tree = np.zeros((group.order, len(gens)), dtype=bool)
        on_tree[self.parent[1:], self.slot[1:]] = True
        self.edge_y, self.edge_slot = np.nonzero(~on_tree)
        self.N = len(self.edge_y)
        self.edge = np.full(on_tree.shape, -1, dtype=np.int64)  # -1 on tree edges
        self.edge[self.edge_y, self.edge_slot] = np.arange(self.N)
        self.edge_z = T[self.edge_y, self.gens[self.edge_slot]]

    def tree_additive(self) -> tuple[np.ndarray, np.ndarray]:
        """phi[y, i] = phi_i(y), and dphi[i] = delta(phi_i) on the non-tree edges."""
        phi = path_counts(self.tree)
        own = np.eye(len(self.gens), dtype=np.int64)[self.edge_slot]
        return phi, ((phi[self.edge_y] + own - phi[self.edge_z]) % self.p).T

    def along_tree(self, rows, U) -> np.ndarray:
        """f(x, y) for x in `rows` and all y, for each row u of U giving f on the non-tree edges.

        From f(x, 1) = 0 and, on the tree edge (u, s) to y = us, where
        f(u, s) = 0: f(x, y) = f(x, u) + f(xu, s).  Shape (rows, n, len(U)).
        """
        U = np.asarray(U, dtype=np.int64)
        V = np.vstack([U.T, np.zeros(len(U), dtype=np.int64)])[self.edge]
        T = self.group.np_table
        F = np.zeros((len(rows), self.group.order, len(U)), dtype=np.int64)
        for lv in self.levels[1:]:
            u = self.parent[lv]
            F[:, lv] = F[:, u] + V[T[np.ix_(rows, u)], self.slot[lv]]
        return F

    def witness(self, values):
        """A 1-cochain w with delta(w) = values, as a list, or None if there is none.

        w is first built along the tree so that f - delta(w) vanishes on the
        tree edges; its values v on the other edges must then be a
        combination of the delta(phi_i).  The witness is checked against the
        full table before it is returned.
        """
        p, N, T = self.p, self.N, self.group.np_table
        F = integer_array(values, p)
        w = np.zeros(self.group.order, dtype=np.int64)
        for lv in self.levels[1:]:
            u, s = self.parent[lv], self.gens[self.slot[lv]]
            w[lv] = w[u] + w[s] - F[u, s]
        y, s = self.edge_y, self.gens[self.edge_slot]
        v = (F[y, s] - w[y] - w[s] + w[T[y, s]]) % p
        if v.any():
            phi, dphi = self.tree_additive()
            k = len(self.gens)
            mat = GFMatrix(N + k, p)
            mat.add_rows(np.hstack([dphi, np.eye(k, dtype=np.int64)]))
            red = mat.reduce(np.concatenate([v, np.zeros(k, dtype=np.int64)])[None])[0]
            if red[:N].any():
                return None
            w = w - phi @ red[N:]
        w %= p
        for rows in row_blocks(self.group.order):
            if ((w[rows, None] + w[None, :] - w[T[rows]] - F[rows]) % p).any():
                return None
        return [int(c) for c in w]


def verify(group: Group, p: int, values) -> dict:
    """Check the cocycle conditions and test for being a coboundary."""
    _check_prime(p)
    if not is_cocycle_table(group, p, values):
        return {"is_cocycle": False, "is_coboundary": False, "witness": None}
    g = CoboundarySpace(group, p).witness(values)
    return {"is_cocycle": True, "is_coboundary": g is not None, "witness": g}


def is_coboundary(f: Cocycle2) -> bool:
    return CoboundarySpace(f.group, f.p).witness(f.values) is not None


def class_equal(f1: Cocycle2, f2: Cocycle2) -> bool:
    """Equality in H^2: the difference is a coboundary."""
    if f1.group is not f2.group or f1.p != f2.p:
        return False
    return CoboundarySpace(f1.group, f1.p).witness(f1.values - f2.values) is not None


# -- H^2 enumeration -----------------------------------------------------------


@dataclass
class H2Result:
    dimension: int
    class_count: int
    representatives: list
    complete: bool


def h2_enumerate(group: Group, p: int, max_reps: int = 4096) -> H2Result:
    """Dimension of H^2(G, mu_p) and class representatives.

    The cocycles that vanish on the tree edges (CoboundarySpace) are the u
    with f(x, y) + f(xy, s) - f(y, s) - f(x, ys) = 0 for each non-tree edge
    (y, s) and each generator x, f = along_tree(u).  In Schreier's terms u is
    a map on the relators y s (ys)^-1 that conjugation by x must fix, and
    the generators x suffice for that; the identity on the tree edges holds
    by construction, and the closure argument of Light's test covers every
    last argument.  Then dim H^2 = dim Z_tree - rank{delta(phi_i)}.

    All p^dim classes are materialized when that count is at most max_reps;
    otherwise only a basis of representatives is returned.
    """
    _check_prime(p)
    n = group.order
    if p * n > MAX_ORDER:
        raise TooLarge("extension group would exceed the table cap")
    if (p == 2 and n > 64) or (p == 3 and n > 81) or (p > 3 and (n - 1) ** 2 > 6400):
        raise TooLarge(f"H^2 linear algebra not supported at order {n} for p={p}")
    if n == 1:
        zero = Cocycle2(group, p, np.zeros((1, 1), dtype=np.int64), check=False)
        return H2Result(0, 1, [zero], True)
    cob = CoboundarySpace(group, p)
    N, T, xs, Y = cob.N, group.np_table, cob.gens, cob.edge_y
    L = cob.along_tree(xs, np.eye(N, dtype=np.int64))
    e = np.eye(N + 1, N, dtype=np.int64)[cob.edge[T[np.ix_(xs, Y)], cob.edge_slot]]
    eq = GFMatrix(N, p)
    eq.add_rows((L[:, Y] + e - L[:, cob.edge_z] - np.eye(N, dtype=np.int64)).reshape(-1, N) % p)
    comp = GFMatrix(N, p)
    comp.add_rows(cob.tree_additive()[1])
    chosen = [v for v in eq.nullspace() if comp.add_rows(v[None])]
    h = len(chosen)
    count = p ** h
    basis = cob.along_tree(np.arange(n), np.reshape(chosen, (h, N))) % p
    complete = count <= max_reps
    coeffs = itertools.product(range(p), repeat=h) if complete else np.eye(h, dtype=np.int64)
    reps = [Cocycle2(group, p, basis @ np.array(c, dtype=np.int64) % p, check=False)
            for c in coeffs]
    return H2Result(h, count, reps, complete)


# -- restriction, inflation, corestriction -------------------------------------


def restrict(f: Cocycle2, H: Subgroup) -> Cocycle2:
    """Restriction to a subgroup, indexed by H.as_group() element order."""
    if H.parent is not f.group:
        raise TargetMismatch("subgroup does not live in the cocycle's group")
    els = np.array(H.elements, dtype=np.int64)
    vals = f.values[np.ix_(els, els)]
    return Cocycle2(H.as_group(), f.p, vals, check=False)


def inflate(f: Cocycle2, proj: GroupHom) -> Cocycle2:
    """Pullback along a projection G -> G/N."""
    if proj.target is not f.group:
        raise TargetMismatch("projection target does not carry the cocycle")
    phi = np.asarray(proj.images, dtype=np.int64)
    vals = f.values[phi[:, None], phi[None, :]]
    return Cocycle2(proj.source, f.p, vals, check=False)


def corestrict_tate(fbar: Cocycle2, H: Subgroup, g: int | None = None) -> Cocycle2:
    """Quadratic corestriction by the four-case transfer formula (p = 2)."""
    if fbar.p != 2:
        raise PrimeMismatch("the transfer formula is implemented for p = 2 only")
    if H.index() != 2:
        raise BadIndexSubgroup(f"subgroup has index {H.index()}, need 2")
    G = H.parent
    Hgrp = H.as_group()
    if fbar.group is not Hgrp and not (
        fbar.group.order == Hgrp.order
        and np.array_equal(fbar.group.np_table, Hgrp.np_table)
    ):
        raise BadIndexSubgroup("cocycle is not indexed by this subgroup")
    loc = H.pos
    inH = loc >= 0
    if g is None:
        g = int(np.argmin(inH))
    if g in H:
        raise GInH(f"element {g} lies in the subgroup")
    n = G.order
    T = G.np_table
    inv_g = G.inv(g)
    xs = np.arange(n)
    A = T[xs, inv_g]          # x g^-1
    B = T[g, xs]              # g x
    Cc = T[B, inv_g]          # g x g^-1
    fb = fbar.values
    lx, lAx, lBx, lCx = loc[xs], loc[A], loc[B], loc[Cc]
    right_in = np.where(inH, lx, lAx)      # l[y] / l[A y]
    right_out = np.where(inH, lCx, lBx)    # l[C y] / l[B y]
    t1 = np.where(
        inH[:, None],
        fb[lx[:, None], right_in[None, :]],
        fb[lAx[:, None], right_out[None, :]],
    )
    t2 = np.where(
        inH[:, None],
        fb[lCx[:, None], right_out[None, :]],
        fb[lBx[:, None], right_in[None, :]],
    )
    return Cocycle2(G, 2, (t1 + t2) % 2)


# -- the raise/lower companion construction ------------------------------------


def _resolve_element(G: Group, gen) -> int:
    if isinstance(gen, str):
        return G.gen(gen)
    return int(gen)


def cyclic_step_cocycle(p: int, n_exp: int) -> Cocycle2:
    """Class of 1 -> mu_p -> C_{p^n} -> C_{p^(n-1)} -> 1 (the carry cocycle)."""
    m = p ** (n_exp - 1)
    Cbig = cyclic(p ** n_exp)
    N = subgroup_generated(Cbig, [Cbig.power(1, m)])
    Q, proj = quotient(Cbig, N)
    return cocycle_of_extension(Cbig, proj, Cbig.power(1, m))


def raise_lower(E: ExtensionClass, sigma1, n_exp: int, direction: str) -> ExtensionClass:
    """Companion extension changing the order of sigma1's preimage by p.

    `raise` sends a preimage of order p^(n-1) to one of order p^n; `lower`
    is the inverse.  All relations not involving the sigma1 power persist.
    """
    if direction not in ("raise", "lower"):
        raise QuotientConditionFails(f"unknown direction {direction!r}")
    G = E.proj.target
    p = E.cocycle.p
    s1 = _resolve_element(G, sigma1)
    m = p ** (n_exp - 1)
    if G.element_order(s1) != m:
        raise QuotientConditionFails(f"sigma1 must have order {m} in the base group")
    others = [i for _, i in G.generators if i != s1]
    H = subgroup_generated(G, others)
    if s1 in H or G.order != m * H.order:
        raise QuotientConditionFails("quotient by the other generators is not cyclic of order p^(n-1)")
    if not H.is_normal():
        raise QuotientConditionFails("the subgroup of the other generators is not normal")
    for i in range(1, m):
        if G.power(s1, i) in H:
            raise QuotientConditionFails("sigma1 powers meet the complement subgroup")
    pre = int(_section(E.proj)[s1])
    pre_order = E.extension.element_order(pre)
    want = m if direction == "raise" else p * m
    if pre_order != want:
        raise PreimageOrderMismatch(
            f"preimage of sigma1 has order {pre_order}, need {want} to {direction}")
    Q, projH = quotient(G, H)
    dlog = {}
    e = 0
    for i in range(m):
        dlog[e] = i
        e = Q.mul(e, projH(s1))
    fc = cyclic_step_cocycle(p, n_exp)
    # quotient of C_{p^n} by <t^m> orders cosets by least element: coset of t^i is i
    expo = np.array([dlog[projH(x)] for x in range(G.order)], dtype=np.int64)
    inf_vals = fc.values[expo[:, None], expo[None, :]]
    sign = 1 if direction == "raise" else -1
    new_vals = (E.cocycle.values + sign * inf_vals) % p
    out = extension_of_cocycle(Cocycle2(G, p, new_vals))
    return out


def lift_order_diag(f: Cocycle2, z: int) -> dict:
    """f(z^(k/2), z^(k/2)) and the order of z's preimages (p = 2)."""
    if f.p != 2:
        raise PrimeMismatch("defined for p = 2")
    if z == 0:
        raise IdentityElement("z must not be the identity")
    k = f.group.element_order(z)
    if k % 2:
        raise QuotientConditionFails("element order must be even")
    h = f.group.power(z, k // 2)
    val = int(f.values[h, h])
    return {"value": val, "lifted_order": k if val == 0 else 2 * k}


def prop54_report(G: Group, H: Subgroup, g: int, fbar: Cocycle2) -> dict:
    """Exponent comparison for a corestricted extension (transfer context).

    Part (2) needs exp(H) even (its argument lifts the half-order power of a
    maximal-order element), so the trivial subgroup is reported inapplicable.
    """
    f = corestrict_tate(fbar, H, g)
    ext2 = extension_of_cocycle(fbar)
    exp_h2 = ext2.extension.exponent()
    ext1 = extension_of_cocycle(f)
    E1 = ext1.extension
    n = G.order
    orders = E1.element_orders()
    exp_h1 = lcm(*(orders[i * n + x] for i in range(2) for x in H.elements))
    exp_h = H.as_group().exponent()
    applicable = exp_h % 2 == 0
    for x in H.elements:
        if not applicable or G.element_order(x) != exp_h:
            continue
        if G.conj(g, x) not in G.closure([x]):
            applicable = False
            break
    return {
        "expH1": exp_h1,
        "expH2": exp_h2,
        "ineq_holds": exp_h1 <= exp_h2,
        "part2_applicable": applicable,
        "part2_holds": (exp_h1 == exp_h) if applicable else None,
    }


def cor_image_search(G: Group, target: Cocycle2):
    """Exhaustive search for (H, fbar) with cor(fbar) ~ target; None if none."""
    if target.p != 2:
        raise PrimeMismatch("search implemented for p = 2")
    if G.order > 16:
        raise TooLarge("corestriction image search limited to order 16")
    for H in subgroups_of_index2(G):
        Hgrp = H.as_group()
        res = h2_enumerate(Hgrp, 2)
        if not res.complete:
            raise TooLarge("subgroup has too many classes to enumerate")
        for rep in res.representatives:
            f = corestrict_tate(rep, H)
            if class_equal(f, target):
                return H, rep
    return None


# -- commutator data off chosen preimages --------------------------------------


def power_commutator_data(E: ExtensionClass, gens: list) -> tuple[list, dict]:
    """Read s_i^p = zeta^(d_ii) and s_i s_j = zeta^(d_ij) s_j s_i off least-index preimages.

    Entries are None when the corresponding element does not land in the
    kernel (the convention-dependent data only exists when it does).
    """
    ext, proj, p = E.extension, E.proj, E.cocycle.p
    kp = {ext.power(E.kernel_gen, j): j for j in range(p)}
    sec = _section(proj)
    pre = [int(sec[_resolve_element(proj.target, g)]) for g in gens]
    diag = [kp.get(ext.power(s, p)) for s in pre]
    offdiag = {}
    for i in range(len(pre)):
        for j in range(i + 1, len(pre)):
            lhs, rhs = ext.mul(pre[i], pre[j]), ext.mul(pre[j], pre[i])
            offdiag[(i, j)] = kp.get(ext.mul(lhs, ext.inv(rhs)))
    return diag, offdiag
