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
- `layer_picks_by_span_masks`: the greedy basis of an elementary abelian
  layer as presentation.read_pc picked it, with a span mask per layer;
- `pc_table_sixteen_blocks`: pc_table filling each level in min(e, 16)
  blocks, with phi^t built one power at a time;
- `phi_powers_one_at_a_time`: a pc level's powers phi^b and psi-sums, one
  pass per b, as PcTails built them before presentation._phi_powers and
  its cumsum;
- `contraction_cocycle`: PcTails' class build as it was, one contraction of
  the level-1 z-forms of every tail with t and one level-0 fill, the forms
  built level by level by its own walk;
- `trial_primes_by_division`: arith's trial primes as a comprehension
  that trial-divides each candidate;
- `normalize_by_reexpansion`: symbols.normalize as it was before a symbol
  product kept its atom pairs, which expanded a raw factor list and
  regrouped it, here with the p-primary rule for roots of unity and
  repeated until the form expands back to itself;
- `count_solutions_double_loop`: fpmodules.count_solutions as the literal
  double loop over i and j < i, recomputing each Delta;
- `find_isomorphism_every_element`: groups.find_isomorphism as it was,
  comparing order profiles, commutativity and center orders on each call
  and searching along a Cayley walk on every element;
- `realization_answers`: the realization graph's closure queries as they
  were answered with every node built and every edge checked on
  construction, here with the quotient relation found once for all specs,
  and `reaches`, which pairs a path could join by the ends' orders alone;
- `massy_by_folding`, `ledet_product_by_folding`, `hasse_witt_by_folding`
  and `frohlich_by_folding`: the multi-factor obstruction engines as they
  were, one binary `mul` per factor;
- `min_generators_by_search`: the least number of generators by trying
  every subset of each size, as min_generators does for tables whose Sylow
  subgroups are not all normal;
- `hasse_by_groups`: Massy's central embedding problem over Q decided
  place by place on the group side, an independent check of `massy` and
  `splits_over_Q`;
- `prime_divisors_by_trial`, `two_adic_split` and `split_off_by_division`:
  groups._prime_divisors, the 2-adic split in arith.is_prime and
  symbols._split_off as they were, each dividing a prime out one step at a
  time, before arith.valuation did it for all of them;
- `cosets_by_columns`: quotient's coset numbering as it was, the least
  element of each xN by an n x |N| column gather;
- `path_counts_by_walk` and `normalise_by_walk`: groups.path_counts and
  CoboundarySpace.normalise as they were before groups.along_paths, one
  step per tree edge with the parents first, the cochain w unreduced;
- `section_by_cosets`: GroupHom.section as it was, the least elements of
  the kernel's right cosets sorted by their images;
- `normal_subgroups_by_product_sets`: groups.normal_subgroups as it was,
  joining a normal subgroup A with an atom B by the product set AB, one
  gather of |A| |B| entries;
- `family_specs`, `PRIMES` and `permutation_group`: the catalog specs,
  primes and tables that are not p-groups the comparisons run over.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from pgal.autoreal import QUOTIENT_EDGE_MAX_ORDER
from pgal.catalog import build_group, canonical_spec, spec_order
from pgal.cohomology import (
    CoboundarySpace,
    Cocycle2,
    class_equal,
    corestrict_tate,
    h2_enumerate,
)
from pgal.arith import factor, legendre
from pgal.errors import FactorizationFailed, NotSolvable, PrimeMismatch, TargetMismatch, TooLarge
from pgal.fpmodules import INFINITE, delta, p_binomial, solvable
from pgal.groups import (
    MAX_NORMALS,
    MAX_ORDER,
    Group,
    Subgroup,
    _prime_divisors,
    cayley_tree,
    frattini_style_subgroup,
    is_isomorphic,
    is_multiplicative,
    min_generators,
    normal_subgroups,
    path_counts,
    quotient,
    right_cosets,
    subgroups_of_index2,
)
from pgal.linalg import GFMatrix
from pgal.obstructions import _as_class, discriminant
from pgal.presentation import _check_hoelder, _walk, generator_indices
from pgal.symbols import FieldElem, elem_canon, elem_mul, rat, symbol, trivial, zeta

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
    for y in cob.tree[1][1:]:  # parents come first
        u = cob.parent[y]
        L[:, y] = L[:, u] + V[T[xs, u], cob.slot[y]]
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


def cosets_by_columns(G, N):
    """(reps, coset_of) of a normal N as quotient numbered its cosets: the
    least element of each xN by a gather of N's columns, the representatives
    the x that are their own least, and a coset's number its
    representative's rank, one cumsum."""
    least = G.np_table[:, N.elements].min(axis=1)
    is_rep = least == np.arange(G.order)
    return np.flatnonzero(is_rep), (np.cumsum(is_rep) - 1)[least]


def path_counts_by_walk(tree):
    """counts[y, i], the uses of gens[i] on the tree path to y, one row per
    reached element from its parent's row."""
    gens, reached, parent, slot = tree
    counts = np.zeros((len(parent), len(gens)), dtype=np.int64)
    for y in reached[1:]:
        counts[y] = counts[parent[y]]
        counts[y, slot[y]] += 1
    return counts


def normalise_by_walk(cob, Fs):
    """(w, v) of CoboundarySpace.normalise by w(u s_i) = w(u) + w(s_i) -
    F(u, s_i) on each tree edge, the kept generators first (they hang off
    the identity); w unreduced, exact while its sums stay below 2^63."""
    w = np.zeros(cob.group.order, dtype=np.int64)
    for y in cob.tree[1][1:]:
        u, i = cob.parent[y], cob.slot[y]
        w[y] = w[u] + w[cob.gens[i]] - Fs[u, i]
    y, i = cob.edge_y, cob.edge_slot
    return w, (Fs[y, i] - w[y] - w[cob.gens[i]] + w[cob.edge_z]) % cob.p


def section_by_cosets(phi):
    """The least preimages, the least elements of the kernel's right cosets
    in the order of their images; TargetMismatch unless phi is onto."""
    reps = right_cosets(phi.source, phi.kernel().elements)[0]
    if len(reps) != phi.target.order:
        raise TargetMismatch("projection is not surjective")
    return reps[np.argsort(phi.images[reps])]


def normal_subgroups_by_product_sets(G):
    """The normal subgroups as a list of element lists, or None past
    MAX_NORMALS: the atoms (normal closures of the classes of cyclic
    subgroups), then each new subgroup A joined with each atom B outside it
    as the product set AB."""
    T, conjs = G.np_table, G.conjugations()

    def mask(els):
        inside = np.zeros(G.order, dtype=bool)
        inside[els] = True
        return inside

    orders = G.element_orders()
    covered = np.zeros(G.order, dtype=bool)
    atoms = {}
    for x in range(G.order):
        if covered[x]:
            continue
        units = np.arange(orders[x])
        units = units[np.gcd(units, orders[x]) == 1]
        orbit = mask(G._powers(np.full(len(units), x), units))
        new = np.flatnonzero(orbit)
        while new.size:
            moved = conjs[:, new].ravel()
            new = moved[~orbit[moved]]
            orbit[new] = True
        covered |= orbit
        atoms.setdefault(tuple(G.closure(np.flatnonzero(orbit))), x)
    reps = np.array(list(atoms.values()), dtype=np.int64)
    cols = [np.array(b, dtype=np.int64) for b in atoms]
    normals = {mask(list(els)).tobytes(): np.array(els, dtype=np.int64) for els in [(0,), *atoms]}
    frontier = list(normals.values())
    while frontier:
        fresh = []
        for a in frontier:
            rows = T[a]
            for i in np.flatnonzero(~mask(a)[reps]):
                j = mask(rows[:, cols[i]])
                key = j.tobytes()
                if key not in normals:
                    normals[key] = np.flatnonzero(j)
                    fresh.append(normals[key])
                    if len(normals) > MAX_NORMALS:
                        return None
        frontier = fresh
    return sorted((els.tolist() for els in normals.values()), key=lambda els: (len(els), els))


def layer_picks_by_span_masks(G, P, N, q):
    """The x of P, in increasing order, outside the span of N and the x
    picked before them, the span kept as a mask and grown by the cosets
    x^a S, a < q, of each pick."""
    T, layer, span, picks = G.np_table, np.arange(q), N.pos >= 0, []
    for x in P.tolist():
        if not span[x]:
            picks.append(x)
            span[T[np.ix_(G._powers(np.full(q, x), layer), np.flatnonzero(span))]] = True
    return picks


def pc_table_sixteen_blocks(pc):
    """pc_table's level formula with each level in min(e, 16) blocks of a
    and P[t] = phi[P[t - 1]]."""
    rel, T = pc.rel_orders, np.zeros((1, 1), dtype=np.int16)
    gen = generator_indices(rel)
    for i in reversed(range(len(rel))):
        e, m = rel[i], T.shape[0]
        w, _, phi, _ = _walk(T, pc, gen, i)
        P = np.empty((e + 1, m), dtype=np.int16)
        P[0] = np.arange(m)
        for t in range(1, e + 1):
            P[t] = phi[P[t - 1]]
        _check_hoelder(T, P, w, e, i, gen[i + 1:])
        P = P[:e]
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


def phi_powers_one_at_a_time(phi, e, psi=None, p=1):
    """PcTails' powers of phi as they were built, one pass per b: P[b] =
    phi^b and, given psi, PS[b] = psi + psi phi + ... + psi phi^(b-1) mod p,
    for b = 0..e."""
    P = np.empty((e + 1, len(phi)), dtype=np.int16)
    P[0] = np.arange(len(phi))
    PS = None if psi is None else np.zeros((e + 1,) + psi.shape, dtype=np.int64)
    for b in range(1, e + 1):
        P[b] = phi[P[b - 1]]
        if PS is not None:
            PS[b] = (PS[b - 1] + psi[P[b - 1]]) % p
    return P, PS


def contraction_cocycle(G, p):
    """t -> the class of the tails t of the pc group G at p: the z-forms of
    all m tails are built level by level down to G_1, each level in row
    blocks of 2^21 entries (_tail_level_by_blocks), then contracted with t,
    and level 0 is built on the contraction.  Its attribute powers holds
    each level's P[:e] and PS[:e] (phi_powers_one_at_a_time), from the
    last level up."""
    pc, table = G.pc, G.np_table
    rel, k = pc.rel_orders, len(pc.rel_orders)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    m = k + len(pairs)
    col = {pair: k + c for c, pair in enumerate(pairs)}
    gen, unit = generator_indices(rel), np.eye(m, dtype=np.int64)
    L = np.zeros((1, 1, m), dtype=np.int64)  # the z-forms on G_k = 1
    level0, powers = None, []
    for i in reversed(range(k)):
        nH = L.shape[0]
        T = table[:nH, :nH]

        def z(steps, tail):
            out = unit[tail].copy()
            for r, pos in steps:
                out += L[r, gen[pos]]
            return out

        w, steps, phi, below = _walk(T, pc, gen, i)
        omega, psi = z(steps, i) % p, np.zeros((1, m), dtype=np.int64)
        for j, g, g_steps, pw, phi_j in below:
            pwz = np.zeros((len(pw), m), dtype=np.int64)
            np.cumsum(z(g_steps, col[i, j]) + L[pw[:-1], g], axis=0, out=pwz[1:])
            psi = (pwz[:, None] + psi[None] + L[pw[:, None], phi_j[None]]).reshape(-1, m) % p
        e = rel[i]
        P, PS = phi_powers_one_at_a_time(phi, e, psi, p)
        P, PS = P[:e], PS[:e]
        powers.append((P, PS))
        level0 = (T, L, e, w, omega, P, PS)
        if i:
            L = _tail_level_by_blocks(T, L, e, w, omega, P, PS, p)

    def cocycle(t):
        t = np.asarray(t, dtype=np.int64) % p
        if level0 is None:
            return np.zeros((1, 1), dtype=np.int64)
        T, L, e, w, omega, P, PS = level0
        Z = np.einsum("xyr,r->xy", L, t) % p
        return _tail_level_by_blocks(T, Z[..., None], e, w, (omega @ t % p)[None], P,
                                     (PS @ t % p)[..., None], p)[:, :, 0]
    cocycle.powers = powers
    return cocycle


def _tail_level_by_blocks(T, L, e, w, omega, P, PS, p):
    """The z-forms on G_i = <x> H from those on H, by the level formula
    f(x^a h, x^b h') = u (omega + f(w, phi^b h)) + PS[b, h] + f(w^u phi^b h, h'),
    u = [a+b >= e], in row blocks of at most 2^21 entries."""
    nH, m = L.shape[0], L.shape[2]
    n = e * nH
    rest = (np.concatenate([PS, PS + omega + L[w][P]]) % p).reshape(-1, m)
    Tw = T[w]
    out = np.empty((n, n, m), dtype=np.int64)
    b = np.arange(e)
    step = max(1, (1 << 21) // (n * m))
    for r0 in range(0, n, step):
        a, h = np.divmod(np.arange(r0, min(n, r0 + step)), nH)
        u = a[:, None] + b >= e
        ph = P[:, h].T
        blk = out[r0:r0 + len(a)].reshape(len(a), e, nH, m)
        np.take(L, np.where(u, Tw[ph], ph), axis=0, out=blk, mode="clip")
        blk += rest[(u * e + b) * nH + h[:, None]][:, :, None]
        np.subtract(blk, p, out=blk, where=blk >= p)
    return out


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


def find_isomorphism_every_element(G, H):
    """An isomorphism G -> H as an image list, or None: the images of the
    generators a Cayley walk on every element keeps, each of its
    generator's order, fixing the map along that walk."""
    if G.order != H.order:
        return None

    def invariants(X):
        T = X.np_table
        profile = tuple(sorted(Counter(X.element_orders()).items()))
        return profile, bool(np.array_equal(T, T.T)), X.center().order

    if invariants(G) != invariants(H):
        return None
    gens, reached, parent, slot = cayley_tree(G.np_table, range(1, G.order))
    if not gens:
        return [0]
    by_order = {}
    for x in range(H.order):
        by_order.setdefault(H.element_order(x), []).append(x)
    rows = H.table
    for images in itertools.product(*(by_order.get(G.element_order(g), []) for g in gens)):
        phi = [0] * G.order
        for y in reached[1:]:
            phi[y] = rows[phi[parent[y]]][images[slot[y]]]
        if len(set(phi)) == G.order and is_multiplicative(np.array(phi), G.np_table,
                                                          H.np_table, gens):
            return phi
    return None


def reaches(edges, specs):
    """{(src, dst): whether src has a path to dst} over the ordered pairs of
    specs and every edge that orders allow: each seeded edge, and v => w for
    v != w among the nodes and both ends with |v| <= QUOTIENT_EDGE_MAX_ORDER
    and |w| dividing |v|."""
    seeded = {(canonical_spec(e.src), canonical_spec(e.dst)) for e in edges}
    nodes = {spec for arrow in seeded for spec in arrow}
    order = {spec: spec_order(spec) for spec in nodes | {canonical_spec(s) for s in specs}}

    def allowed(v, w):
        return (v, w) in seeded or v != w and order[v] <= QUOTIENT_EDGE_MAX_ORDER \
            and order[v] % order[w] == 0

    answers = {}
    for a, b in itertools.product(specs, repeat=2):
        src, dst = canonical_spec(a), canonical_spec(b)
        universe = nodes | {src, dst}
        reach, todo = {dst}, [dst]
        while todo:
            w = todo.pop()
            for v in [v for v in universe - reach if allowed(v, w)]:
                reach.add(v)
                todo.append(v)
        answers[a, b] = src in reach
    return answers


def realization_answers(edges, specs):
    """{(src, dst): RealizationGraph(edges).implies(src, dst)} over the
    ordered pairs of specs, from every group built and every edge's
    generator-count condition asserted first.  A query is a breadth-first
    search from src that leaves a node by its seeded edges, in file order,
    then by its quotient edges (order at most 64) to the nodes and both ends
    in spec order."""
    seeded = {}
    for e in edges:
        src, dst = canonical_spec(e.src), canonical_spec(e.dst)
        seeded.setdefault(src, []).append((dst, e.cite))
    nodes = {spec for src, arrows in seeded.items() for spec in [src] + [d for d, _ in arrows]}
    groups = {spec: build_group(spec) for spec in nodes | {canonical_spec(s) for s in specs}}
    for src, arrows in seeded.items():
        for dst, _ in arrows:
            assert min_generators(groups[dst]) <= min_generators(groups[src])
    quotients_of = {}  # spec -> the specs isomorphic to one of its quotients
    for spec, G in groups.items():
        normals = normal_subgroups(G) if G.order <= QUOTIENT_EDGE_MAX_ORDER else []
        quotients = [quotient(G, N)[0] for N in normals]
        quotients_of[spec] = {t for t, H in groups.items() if t != spec and any(
            Q.order == H.order and is_isomorphic(Q, H) for Q in quotients)}
    answers = {}
    for a, b in itertools.product(specs, repeat=2):
        src, dst = canonical_spec(a), canonical_spec(b)
        universe = sorted(nodes | {src, dst})
        seen, frontier = {src: None}, [src]
        while frontier and dst not in seen:
            nxt = []
            for node in frontier:
                for t, cite in seeded.get(node, []) + [
                        (t, "trivial: G => G/N") for t in universe if t in quotients_of[node]]:
                    if t not in seen:
                        seen[t] = {"from": node, "to": t, "cite": cite}
                        nxt.append(t)
            frontier = nxt
        path, node = [], dst
        while seen.get(node):
            path.append(seen[node])
            node = seen[node]["from"]
        answers[a, b] = {"holds": True, "path": path[::-1]} if dst in seen else \
            {"holds": "unknown", "path": []}
    return answers


def massy_by_folding(data):
    p = data.p
    out = trivial(p)
    n = len(data.a)
    for i in range(1, n + 1):
        e = data.d.get((i, i), 0) % p
        if e:
            out = out.mul(symbol(data.a[i - 1], zeta(p), p).pow(e))
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            e = data.d.get((i, k), 0) % p
            if e:
                out = out.mul(symbol(data.a[i - 1], data.a[k - 1], p).pow(e))
    return out


def ledet_product_by_folding(data):
    p = data.p
    out = _as_class(data.resN_class, p).mul(_as_class(data.resH_class, p))
    for (i, j), e in sorted(data.d.items()):
        e %= p
        if e:
            out = out.mul(symbol(data.b[j - 1], data.a[i - 1], p).pow(e))
    return out


def hasse_witt_by_folding(q):
    out = trivial(2)
    n = len(q.entries)
    for i in range(n):
        for j in range(i + 1, n):
            out = out.mul(symbol(q.entries[i], q.entries[j], 2))
    return out


def frohlich_by_folding(q, q_e, spin_pairs):
    out = hasse_witt_by_folding(q).mul(hasse_witt_by_folding(q_e))
    out = out.mul(symbol(discriminant(q), elem_mul(rat(-1), discriminant(q_e)), 2))
    for a_i, sp_i in spin_pairs:
        out = out.mul(symbol(a_i, sp_i, 2))
    return out


def min_generators_by_search(G):
    """The least r such that some r elements generate G."""
    for r in range(G.order):
        for combo in itertools.combinations(range(1, G.order), r):
            if len(G.closure(combo)) == G.order:
                return r
    return 0  # unreachable: the group's own elements generate it


def hasse_by_groups(E, z, gens, a):
    """Whether the embedding problem E -> E/<z> = EA(2, r) over
    Q(sqrt a_1, ..., sqrt a_r), gens[i] over the generator that moves
    sqrt a_i, is solvable at every place but 2, which by the product
    formula is then solvable too.  z is central of order 2 and the a_i are
    nonzero integers or Fractions.

    At an odd prime l, a_i = l^v_i u_i with u_i a unit at l, and the tame
    group <sigma, tau | sigma tau sigma^-1 = tau^l> maps tau to the v_i mod
    2 and sigma, the Frobenius that fixes sqrt l, to the u_i that are not
    squares mod l; the problem is solvable there iff some s over sigma's
    image and t over tau's satisfy s t s^-1 = t^l.  Only the l that divide
    an a_i can fail.  At infinity complex conjugation maps to the signs,
    and some e over its image must have e^2 = 1 (Serre, A Course in
    Arithmetic, ch. III; Massy, J. Algebra 109, 1987)."""
    def over(bits):
        g = 0
        for x, bit in zip(gens, bits):
            if bit:
                g = E.mul(g, x)
        return g, E.mul(g, z)

    a = [Fraction(q) for q in a]
    if not any(E.mul(e, e) == 0 for e in over([q < 0 for q in a])):
        return False
    places = {l for q in a for l in factor(q.numerator * q.denominator) if l != 2}
    for l in sorted(places):
        tau, sigma = [], []
        for q in a:
            v, num, den = 0, q.numerator, q.denominator
            while num % l == 0:
                num, v = num // l, v + 1
            while den % l == 0:
                den, v = den // l, v - 1
            tau.append(v % 2)
            sigma.append(legendre(num * den, l) == -1)
        if not any(E.mul(E.mul(s, t), E.inv(s)) == E.power(t, l)
                   for s in over(sigma) for t in over(tau)):
            return False
    return True


def prime_divisors_by_trial(n):
    """The primes dividing n >= 1, each q from 2 up divided out while it divides."""
    out, q = [], 2
    while n > 1:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out


def two_adic_split(n):
    """(r, d) with n = 2^r d and d odd, for n >= 1."""
    d = n
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    return r, d


def split_off_by_division(q, l):
    """(v, u) with q = l^v a/b, l prime to a and b, and u = ab."""
    num, den = q.numerator, q.denominator
    v = 0
    while num % l == 0:
        num //= l
        v += 1
    while den % l == 0:
        den //= l
        v -= 1
    return v, num * den
