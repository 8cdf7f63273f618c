"""Reference implementations the library replaced, kept as test oracles.

- `tree_h2_dim`: the spanning-tree H^2 solve that served tables without a
  pc presentation, under its old order caps;
- `corestrict_four_case`: the four-case transfer formula at index 2 and
  p = 2;
- `bar_complex_h2_dim`: the normalized bar complex, in (n-1)^2 unknowns;
- `cor_image_search_exhaustive`: the corestriction-image search that tried
  every class of every index-2 subgroup, under its old caps;
- `element_orders_active_set`: element orders by dividing each prime out
  of n while a power is the identity, on a shrinking set of elements;
- `index2_per_phi`: the index-2 kernels, one product and gather per map
  onto C2;
- `pc_table_sixteen_blocks`: pc_table filling each level in min(e, 16)
  blocks, with phi^t built one power at a time;
- `trial_primes_by_division`: arith's trial primes as a comprehension
  that trial-divides each candidate;
- `normalize_by_reexpansion`: symbols.normalize as it was before a symbol
  product kept its atom pairs, which expanded a raw factor list and
  regrouped it, here with the p-primary rule for roots of unity and
  repeated until the form expands back to itself;
- `count_solutions_double_loop`: fpmodules.count_solutions as the literal
  double loop over i and j < i, recomputing each Delta;
- `family_specs`, `PRIMES` and `permutation_group`: the catalog specs,
  primes and tables that are not p-groups the comparisons run over.
"""

import itertools
import math

import numpy as np

from pgal.cohomology import (
    CoboundarySpace,
    Cocycle2,
    class_equal,
    corestrict_tate,
    h2_enumerate,
)
from pgal.arith import factor
from pgal.errors import FactorizationFailed, NotSolvable, PrimeMismatch, TooLarge
from pgal.fpmodules import INFINITE, delta, p_binomial, solvable
from pgal.groups import (
    MAX_ORDER,
    Group,
    Subgroup,
    _prime_divisors,
    cayley_tree,
    frattini_style_subgroup,
    path_counts,
    quotient,
    subgroups_of_index2,
)
from pgal.linalg import GFMatrix
from pgal.presentation import _check_hoelder, _walk, generator_indices
from pgal.symbols import FieldElem, elem_canon, rat, zeta

PRIMES = (2, 3, 5, 7, 11, 13)


def family_specs(limit):
    """Catalog family specs of order at most `limit`: every family, with the
    parameter ranges the comparisons were first written for (EA up to rank
    4, Mmod up to n = 5, MSS up to n = 3, the 2-power families up to 64)."""
    specs = [f"C:{n}" for n in range(1, limit + 1)]
    for fam, smallest in (("D", 8), ("Q", 8), ("SD", 16), ("M", 16)):
        specs += [f"{fam}:{o}" for o in (8, 16, 32, 64) if smallest <= o <= limit]
    for p in PRIMES:
        specs += [f"EA:p={p},r={r}" for r in range(5) if p ** r <= limit]
        specs += [f"G{i}:p={p}" for i in (1, 2) if p ** 3 <= limit]
        specs += [f"G{i}:p={p}" for i in range(3, 8) if p ** 4 <= limit and (i, p) != (7, 2)]
        specs += [f"Mmod:p={p},n={n}" for n in range(3, 6) if p ** n <= limit]
        specs += [f"MSS:p={p},n={n},j={j}" for n in range(1, 4) for j in range(1, p ** n + 1)
                  if p ** (n + j) <= limit]
    return specs


def permutation_group(degree, even):
    """S_n, or A_n, from a group file without generators."""
    def sign(q):
        return sum(q[i] > q[j] for i in range(degree) for j in range(i + 1, degree)) % 2
    perms = [q for q in itertools.permutations(range(degree)) if not (even and sign(q))]
    idx = {q: i for i, q in enumerate(perms)}
    table = [[idx[tuple(b[a[k]] for k in range(degree))] for b in perms] for a in perms]
    return Group.from_json({"order": len(perms), "table": table})


def tree_h2_dim(G, p):
    """dim H^2(G, F_p) by the spanning-tree solve, TooLarge beyond its caps.

    The cocycles that vanish on the tree edges of CoboundarySpace are the u
    on the N non-tree edges with f(x, y) + f(xy, s) - f(y, s) - f(x, ys) = 0
    for each non-tree edge (y, s) and each kept generator x, f built from u
    along the tree; then dim H^2 = dim Z_tree - rank{delta(phi_i)}.
    """
    n = G.order
    if p * n > MAX_ORDER:
        raise TooLarge("extension group would exceed the table cap")
    if n == 1:
        return 0
    if (p == 2 and n > 64) or (p == 3 and n > 81) or (p > 3 and (n - 1) ** 2 > 6400):
        raise TooLarge(f"H^2 linear algebra not supported at order {n} for p={p}")
    cob = CoboundarySpace(G, p)
    N, T, xs, Y = cob.N, G.np_table, cob.gens, cob.edge_y
    edge = np.full((n, len(xs)), -1, dtype=np.int64)  # -1 on tree edges
    edge[Y, cob.edge_slot] = np.arange(N)
    # f(x, y) for each kept generator x, all y and each unit vector u: from
    # f(x, 1) = 0 and, on the tree edge (u, s) to y = us, f(x, y) = f(x, u) + f(xu, s)
    V = np.vstack([np.eye(N, dtype=np.int64), np.zeros(N, dtype=np.int64)])[edge]
    L = np.zeros((len(xs), n, N), dtype=np.int64)
    for lv in cob.levels[1:]:
        u = cob.parent[lv]
        L[:, lv] = L[:, u] + V[T[np.ix_(xs, u)], cob.slot[lv]]
    e = np.eye(N + 1, N, dtype=np.int64)[edge[T[np.ix_(xs, Y)], cob.edge_slot]]
    eq = GFMatrix(N, p)
    eq.add_rows((L[:, Y] + e - L[:, cob.edge_z] - np.eye(N, dtype=np.int64)).reshape(-1, N) % p)
    comp = GFMatrix(N, p)
    comp.add_rows(cob.dphi)
    return sum(1 for v in eq.nullspace() if comp.add_rows(v[None]))


def corestrict_four_case(fbar, H, g):
    """Corestriction at index 2 and p = 2 by the four-case transfer formula,
    for g outside H."""
    G = H.parent
    loc = H.pos
    inH = loc >= 0
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


def bar_complex_h2_dim(G, p):
    """dim Z^2 - dim B^2 over the normalized bar complex."""
    n = G.order
    if n == 1:
        return 0
    C = (n - 1) * (n - 1)
    T = G.np_table
    Z = GFMatrix(C, p)
    ys = np.arange(1, n)
    for x in range(1, n):
        Y = np.repeat(ys, n - 1)
        W = np.tile(ys, n - 1)
        rows = np.arange(len(Y))
        B = np.zeros((len(Y), C), dtype=np.int64)
        np.add.at(B, (rows, (x - 1) * (n - 1) + Y - 1), 1)
        xy, yw = T[x, Y], T[Y, W]
        m = xy != 0
        np.add.at(B, (rows[m], (xy[m] - 1) * (n - 1) + W[m] - 1), 1)
        np.add.at(B, (rows, (Y - 1) * (n - 1) + W - 1), -1)
        m = yw != 0
        np.add.at(B, (rows[m], (x - 1) * (n - 1) + yw[m] - 1), -1)
        Z.add_rows(B % p)
    cob = GFMatrix(C, p)
    for a in range(1, n):
        d = np.zeros((n, n), dtype=np.int64)
        d[a, :] += 1
        d[:, a] += 1
        d -= T == a
        cob.add_rows(d[1:, 1:].reshape(1, C) % p)
    return C - Z.rank - cob.rank


def cor_image_search_exhaustive(G, target):
    """(H, fbar) with cor(fbar) ~ target, trying each class of each index-2
    subgroup H in turn; None if none.  TooLarge beyond order 16 or when H
    has more classes than h2_enumerate lists."""
    if target.p != 2:
        raise PrimeMismatch("search implemented for p = 2")
    if G.order > 16:
        raise TooLarge("corestriction image search limited to order 16")
    for H in subgroups_of_index2(G):
        res = h2_enumerate(H.as_group(), 2)
        if not res.complete:
            raise TooLarge("subgroup has too many classes to enumerate")
        for rep in res.representatives:
            if class_equal(corestrict_tate(rep, H), target):
                return H, rep
    return None


def element_orders_active_set(G):
    """Each order found from m = n by dividing out each prime q of n while
    q | m and a^(m/q) = 1, for the elements still active."""
    n = G.order
    m = np.full(n, n, dtype=np.int64)
    for q in _prime_divisors(n):
        active = np.arange(n)
        while active.size:
            active = active[m[active] % q == 0]
            active = active[G._powers(active, m[active] // q) == 0]
            m[active] //= q
    return m.tolist()


def index2_per_phi(G):
    """The kernel of each phi in 1..2^d - 1 on G/Phi(G), by one product of
    the path counts with phi's bits and one gather each."""
    if G.order % 2:
        return []
    Q, proj = quotient(G, frattini_style_subgroup(G, 2))
    tree = cayley_tree(Q.np_table, range(1, Q.order))
    counts = path_counts(tree)
    images = np.asarray(proj.images)
    bits = np.arange(len(tree[0]))
    return [Subgroup(G, np.flatnonzero((counts @ (phi >> bits & 1) % 2 == 0)[images]).tolist(),
                     check=False) for phi in range(1, 2 ** len(bits))]


def pc_table_sixteen_blocks(pc):
    """pc_table's level formula with each level in min(e, 16) blocks of a
    and P[t] = phi[P[t - 1]]."""
    rel, T = pc.rel_orders, np.zeros((1, 1), dtype=np.int16)
    gen = generator_indices(rel)
    for i in reversed(range(len(rel))):
        e, m = rel[i], T.shape[0]
        w, _, phi, _ = _walk(T, pc, gen, i)
        _check_hoelder(T, phi, w, e, i, gen[i + 1:])
        P = np.empty((e, m), dtype=np.int16)
        P[0] = np.arange(m)
        for t in range(1, e):
            P[t] = phi[P[t - 1]]
        out = np.empty((e, m, e, m), dtype=np.int16)
        b = np.arange(e)
        step = -(-e // 16)
        for a0 in range(0, e, step):
            s = np.arange(a0, min(a0 + step, e))[:, None] + b
            R = T[np.where(s >= e, w, 0)[:, None, :], P.T[None]]
            blk = out[a0:a0 + len(s)]
            np.take(T, R, axis=0, out=blk, mode="clip")
            blk += (s % e * m).astype(np.int16)[:, None, :, None]
        T = out.reshape(e * m, e * m)
    return T


def trial_primes_by_division():
    return tuple(d for d in range(2, 1 << 10)
                 if all(d % q for q in range(2, math.isqrt(d) + 1)))


def _atoms_once(x, p):
    """Atoms of x with exponents mod p; an entry factor cannot split is one atom."""
    x = elem_canon(x)
    if x.kind == "rat":
        q, out = x.payload, []
        if q < 0 and p == 2:
            out.append((rat(-1), 1))
            q = -q
        try:
            facs = factor(q.numerator * q.denominator ** (p - 1))
        except FactorizationFailed:
            return out + [(rat(q), 1)]
        return out + [(rat(r), e % p) for r, e in sorted(facs.items()) if e % p]
    if x.kind == "ind":
        return [(x, 1)]
    if x.kind == "zeta":
        # zeta_n^e = zeta_{p^k}^(e m^-1) times a p-th power, n = p^k m, p prime to m
        n, e = x.payload
        k = max(j for j in range(n.bit_length()) if n % p ** j == 0)
        if k == 0:
            return []
        e = e * pow(n // p ** k, -1, p ** k) % p
        return [(zeta(p ** k), e)] if e else []
    return [(a, ae * e % p) for b, e in x.payload for a, ae in _atoms_once(b, p)]


def _one_minus(a, b):
    return a.is_rational() and b.is_rational() and (
        b.payload == 1 - a.payload or a.payload == 1 - b.payload)


def _unsplit(a, p):
    """Whether the atom a is an entry factor cannot split: such an atom
    merges into a right entry only as its one rational atom besides -1, with
    exponent 1, since factor would not split a product with it."""
    if not a.is_rational():
        return False
    try:
        factor(a.payload.numerator * a.payload.denominator ** (p - 1))
    except FactorizationFailed:
        return True
    return False


def _normalize_once(p, factors, opaque):
    pairs = {}
    for l, r in factors:
        l, r = elem_canon(l), elem_canon(r)
        if l.is_one() or r.is_one() or _one_minus(l, r):
            continue
        for la0, le in _atoms_once(l, p):
            for ra0, re in _atoms_once(r, p):
                la, ra, e = la0, ra0, le * re % p
                if not e:
                    continue
                if la.key() == ra.key():
                    if p != 2:
                        continue
                    if not (la.is_rational() and la.payload == -1):
                        ra = rat(-1)
                if _one_minus(la, ra):
                    continue
                if ra.key() < la.key():
                    la, ra = ra, la
                    if p != 2:
                        e = -e % p
                key = (la.key(), ra.key())
                old = pairs.get(key, (la, ra, 0))[2]
                pairs[key] = (la, ra, (old + e) % p)
    groups = {}
    for (lk, _), (la, ra, e) in sorted(pairs.items()):
        if e:
            groups.setdefault(lk, (la, []))[1].append((ra, e))
    out = []
    for lk in sorted(groups):
        la, rights = groups[lk]
        rats = [e for ra, e in rights if ra.is_rational() and ra.payload != -1]
        apart = [] if rats == [1] else [ra for ra, _ in rights if _unsplit(ra, p)]
        r = elem_canon(FieldElem("prod", tuple((ra, e) for ra, e in rights if ra not in apart)))
        if not r.is_one():
            out.append((la, r))
        out.extend((la, ra) for ra, e in rights if ra in apart for _ in range(e))
    ops = {}
    for name, e in opaque:
        ops[name] = (ops.get(name, 0) + e) % p
    return tuple(out), tuple((n, ops[n]) for n in sorted(ops) if ops[n])


def normalize_by_reexpansion(p, factors, opaque):
    """(factors, opaque) of the canonical form of a raw factor list."""
    factors, opaque = tuple(factors), tuple(opaque)
    while True:
        out = _normalize_once(p, factors, opaque)
        if out == (factors, opaque):
            return out
        factors, opaque = out


def count_solutions_double_loop(A, nd):
    """The counting product, evaluated literally."""
    if not solvable(A, nd):
        raise NotSolvable("the embedding problem is not solvable")
    if not nd.base_quotient_finite:
        return INFINITE
    p = A.p
    top = p ** A.n
    marker = None if nd.i_invariant is None else p ** nd.i_invariant + 1
    total = 1
    for i in range(1, top + 1):
        d_i = A.d.get(i, 0)
        ind = 1 if marker == i else 0
        topval = nd.dims[i] - delta(A, i + 1) - ind
        botval = delta(A, i) - delta(A, i + 1)
        total *= p_binomial(topval, botval, p)
        exp = 0
        for j in range(1, i):
            ind_j = 1 if (marker == j and i == top) else 0
            exp += nd.dims[j] - delta(A, j) - ind_j
        total *= p ** (d_i * exp)
    return total
