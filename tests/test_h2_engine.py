"""h2_enumerate against the bar complex, known dimensions and properties.

The reference oracle (oracles.bar_complex_h2_dim) is the first solver the
engine replaced: the cocycle identity on every triple of the bar complex, in
(n-1)^2 unknowns, and the span of all n-1 coboundaries.  It costs seconds
from order 27 up, so it is compared on every catalog group of order at most
16 and on the order-27 groups; larger groups are checked against
dim H^2(G, F_p) = d(G) + d(M(G)) and the Kunneth formula.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgal.catalog import build_group
from pgal.cohomology import (
    Cocycle2,
    class_equal,
    extension_of_cocycle,
    h2_enumerate,
    is_cocycle_table,
    verify,
)
from pgal.errors import BadParams, NotACocycle, PrimeMismatch, TooLarge
from pgal.groups import Group
from pgal.linalg import GFMatrix

from oracles import PRIMES, bar_complex_h2_dim, family_specs


def _oracle_specs():
    """Family specs of order <= 16, and products of order <= 16 of C:2 .. C:8, D:8, Q:8."""
    specs = family_specs(16)
    factors = [(f"C:{n}", n) for n in range(2, 9)] + [("D:8", 8), ("Q:8", 8)]
    for (a, na), (b, nb) in itertools.combinations_with_replacement(factors, 2):
        if na * nb <= 16:
            specs.append(f"{a}*{b}")
    return specs


def test_oracle_covers_every_family():
    # G7 closes only for odd p, so its smallest group has order 81
    fams = {s.partition(":")[0] for s in _oracle_specs() if "*" not in s}
    assert fams == {"C", "D", "Q", "SD", "M", "EA", "G1", "G2", "G3", "G4", "G5", "G6",
                    "Mmod", "MSS"}


def test_dimensions_match_the_bar_complex_up_to_order_16():
    for spec in _oracle_specs():
        G = build_group(spec)
        for p in {2} | {q for q in PRIMES if G.order % q == 0}:
            assert h2_enumerate(G, p).dimension == bar_complex_h2_dim(G, p), (spec, p)


@pytest.mark.parametrize("spec", ["C:27", "EA:p=3,r=3", "G1:p=3", "G2:p=3", "Mmod:p=3,n=3",
                                  "MSS:p=3,n=1,j=2"])
def test_dimensions_match_the_bar_complex_at_order_27(spec):
    G = build_group(spec)
    assert h2_enumerate(G, 3).dimension == bar_complex_h2_dim(G, 3)


# dim H^2(G, F_p) = d(G) + d(M(G)): M(G) is trivial for Q, SD, M and the
# modular groups, C_2 for dihedral 2-groups, (C_p)^(r(r-1)/2) for EA(p, r);
# Kunneth adds d(X) d(Y) for a product X x Y.  Beyond the oracle's reach.
@pytest.mark.parametrize("spec,p,dim", [
    ("D:64", 2, 3), ("Q:64", 2, 2), ("SD:64", 2, 2), ("M:64", 2, 2),
    ("EA:p=2,r=6", 2, 21), ("Mmod:p=3,n=4", 3, 2), ("G1:p=3*C:3", 3, 4 + 2 * 1 + 1),
    ("D:16*C:4", 2, 3 + 2 * 1 + 1), ("EA:p=3,r=4", 3, 10),
])
def test_known_dimensions(spec, p, dim):
    res = h2_enumerate(build_group(spec), p)
    assert res.dimension == dim
    assert res.class_count == p ** dim
    for f in res.representatives[:16]:
        assert is_cocycle_table(f.group, p, f.values)


@pytest.mark.parametrize("p,r", [(3, r) for r in range(1, 8)] + [(5, r) for r in range(1, 6)])
def test_elementary_abelian_dimensions_up_to_the_table_cap(p, r):
    """dim H^2(EA(p, r), F_p) = r(r+1)/2, also where p |G| > 4096."""
    assert h2_enumerate(build_group(f"EA:p={p},r={r}"), p).dimension == r * (r + 1) // 2


def test_kunneth_past_the_old_cap():
    """D:64 x C:64, order 4096: 3 + 2 * 1 + 1, and a class is a cocycle."""
    res = h2_enumerate(build_group("D:64*C:64"), 2)
    assert (res.dimension, res.class_count) == (6, 64)
    f = res.representatives[-1]
    assert is_cocycle_table(f.group, 2, f.values)


@pytest.mark.parametrize("spec", ["D:8", "Q:8", "G1:p=3"])
@pytest.mark.parametrize("p", [40009, 65537, 2 ** 31 - 1])
def test_a_prime_that_does_not_divide_the_order_gives_zero(spec, p):
    """|G| kills H^2 and is a unit mod p.  No elimination over GF(p) runs,
    so GFMatrix's int64 guard, which refuses 2^31 - 1, is not reached."""
    res = h2_enumerate(build_group(spec), p)
    assert (res.dimension, res.class_count, len(res.representatives)) == (0, 1, 1)
    zero = res.representatives[0]
    assert zero.p == p and not zero.values.any()


def test_engine_accepts_any_generating_set():
    """A group file without generators names every element; the pc reader
    keeps an irredundant subset and the answer does not change."""
    for spec, p in (("D:8", 2), ("G1:p=3", 3), ("C:4*C:2", 2)):
        G = build_group(spec)
        bare = Group.from_json({"order": G.order, "table": G.table})
        assert len(bare.generators) == G.order - 1
        assert h2_enumerate(bare, p).dimension == h2_enumerate(G, p).dimension


def test_engine_on_a_group_that_is_not_a_p_group():
    """S3: H^2(S3, F_2) = F_2 and H^2(S3, F_3) = 0, through a Sylow
    subgroup; the tree-additive cochains of the coboundary witness are not
    all homomorphisms here."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    idx = {q: i for i, q in enumerate(perms)}
    table = [[idx[tuple(b[a[k]] for k in range(3))] for b in perms] for a in perms]
    S3 = Group(table, [("r", 1), ("s", 3)])
    for p in (2, 3):
        assert h2_enumerate(S3, p).dimension == bar_complex_h2_dim(S3, p)
        g = [0, 1, 2, 0, 1, 1]
        cob = [[(g[x] + g[y] - g[S3.mul(x, y)]) % p for y in range(6)] for x in range(6)]
        w = verify(S3, p, cob)["witness"]
        assert all((w[x] + w[y] - w[S3.mul(x, y)]) % p == cob[x][y]
                   for x in range(6) for y in range(6))


def test_zero_class_comes_first():
    for spec, p in (("D:8", 2), ("Mmod:p=3,n=3", 3), ("EA:p=2,r=3", 2)):
        reps = h2_enumerate(build_group(spec), p).representatives
        assert not reps[0].values.any()


# -- exact cocycle check ----------------------------------------------------------


def test_every_corrupted_entry_of_a_d256_coboundary_is_rejected():
    """Above order 128 the cocycle identity used to be sampled on 10^4 triples,
    and about half of the one-entry corruptions of a D:256 table passed.
    Every entry of two seeded rows and two seeded columns is corrupted here,
    plus 200 seeded entries elsewhere."""
    G = build_group("D:256")
    n, T = G.order, G.np_table
    rng = np.random.default_rng(256)
    g = rng.integers(0, 2, n)
    g[0] = 0
    F = (g[:, None] + g[None, :] - g[T]) % 2
    assert is_cocycle_table(G, 2, F)
    lines = rng.choice(np.arange(1, n), 2, replace=False)
    cells = {(int(a), y) for a in lines for y in range(1, n)}
    cells |= {(x, int(b)) for b in lines for x in range(1, n)}
    cells |= {(int(x), int(y)) for x, y in rng.integers(1, n, (200, 2))}
    for x, y in sorted(cells):
        bad = F.copy()
        bad[x, y] ^= 1
        assert not is_cocycle_table(G, 2, bad), (x, y)
    bad = F.copy()
    bad[lines[0], lines[1]] ^= 1
    with pytest.raises(NotACocycle):
        extension_of_cocycle(Cocycle2(G, 2, bad, check=False))


def test_the_cocycle_check_uses_every_generator():
    """Cochains on D:8 with the identity for z = sigma, a basis of them, are
    accepted exactly when the identity holds on every triple."""
    G = build_group("D:8")
    n, T, s = G.order, G.np_table, G.gen("sigma")
    cell = np.arange(n * n).reshape(n, n)
    eqs = np.zeros((n * n, n * n), dtype=np.int64)
    for x, y in itertools.product(range(n), repeat=2):
        for (a, b), sign in (((x, y), 1), ((T[x, y], s), 1), ((y, s), -1), ((x, T[y, s]), -1)):
            eqs[x * n + y, cell[a, b]] += sign
    eqs[:, cell[0]] = eqs[:, cell[:, 0]] = 0  # normalized: those values are 0
    Z = GFMatrix(n * n, 2)
    Z.add_rows(eqs % 2)
    verdicts = set()
    for v in Z.nullspace():
        F = v.reshape(n, n) * (np.arange(n)[:, None] > 0) * (np.arange(n) > 0)
        full = not ((F[:, :, None] + F[T, :] - F[None, :, :] - F[:, T]) % 2).any()
        assert is_cocycle_table(G, 2, F) == full
        verdicts.add(full)
    assert verdicts == {True, False}


def test_a_prime_too_large_for_exact_elimination_is_refused():
    """The int64 elimination is exact while (p - 1)^2 ncols < 2^63: p = 2^31 - 1
    is a domain error on D:16, and p = 2^27 - 39, which the float64 bound
    2^53 refused, answers."""
    G = build_group("D:16")
    g = np.random.default_rng(1).integers(0, 2 ** 31 - 1, G.order)
    with pytest.raises(TooLarge):
        verify(G, 2 ** 31 - 1, _coboundary(G, 2 ** 31 - 1, g))
    assert verify(G, 10007, _coboundary(G, 10007, g))["is_coboundary"]
    assert verify(G, 2 ** 27 - 39, _coboundary(G, 2 ** 27 - 39, g))["is_coboundary"]


# -- a prime p only -------------------------------------------------------------------


@pytest.mark.parametrize("p", [0, 1, 4, 6])
def test_non_prime_p_is_a_domain_error(p):
    G = build_group("D:8")
    zero = np.zeros((8, 8), dtype=np.int64)
    for call in (lambda: h2_enumerate(G, p), lambda: Cocycle2(G, p, zero),
                 lambda: verify(G, p, zero)):
        with pytest.raises(BadParams) as exc:
            call()
        assert exc.value.detail == f"p must be prime, got p={p}"


# -- properties -------------------------------------------------------------------------

PROPERTY_GROUPS = [("C:4", 2), ("EA:p=2,r=2", 2), ("D:8", 2), ("Q:8", 2), ("C:4*C:2", 2),
                   ("D:16", 2), ("SD:16", 2), ("M:16", 2), ("C:9", 3), ("Mmod:p=3,n=3", 3),
                   ("G2:p=3", 3), ("EA:p=5,r=2", 5), ("D:8*C:2", 2)]
_H2 = {}


def _h2(spec, p):
    if (spec, p) not in _H2:
        G = build_group(spec)
        _H2[spec, p] = (G, h2_enumerate(G, p))
    return _H2[spec, p]


def _coboundary(G, p, g):
    g = np.asarray(g, dtype=np.int64)
    g[0] = 0
    return (g[:, None] + g[None, :] - g[G.np_table]) % p


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PROPERTY_GROUPS), st.integers(0, 10 ** 6), st.integers(0, 2 ** 32 - 1))
def test_adding_a_coboundary_keeps_the_class(case, pick, seed):
    G, res = _h2(*case)
    p = case[1]
    f = res.representatives[pick % len(res.representatives)]
    g = np.random.default_rng(seed).integers(0, p, G.order)
    shifted = Cocycle2(G, p, f.values + _coboundary(G, p, g))
    assert class_equal(f, shifted)
    assert class_equal(shifted, f)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PROPERTY_GROUPS), st.integers(0, 2 ** 32 - 1))
def test_verify_witness_is_exact(case, seed):
    G, res = _h2(*case)
    p = case[1]
    F = _coboundary(G, p, np.random.default_rng(seed).integers(0, p, G.order))
    rep = verify(G, p, F)
    assert rep["is_cocycle"] and rep["is_coboundary"]
    w = np.array(rep["witness"])
    assert np.array_equal((w[:, None] + w[None, :] - w[G.np_table]) % p, F)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([c for c in PROPERTY_GROUPS if c[0] not in ("EA:p=5,r=2", "D:8*C:2")]))
def test_representatives_are_pairwise_inequivalent(case):
    G, res = _h2(*case)
    reps = res.representatives
    assert res.complete and len(reps) == res.class_count
    for a, b in itertools.combinations(reps, 2):
        assert not class_equal(a, b)
    for f in reps[1:]:
        assert not verify(G, case[1], f.values)["is_coboundary"]


def test_class_equal_refuses_cocycles_on_two_groups_or_primes():
    # a second build of D:8 is another group object; class_equal said False
    # for the same class on it, where add refuses the pair
    A, B = build_group("D:8"), build_group("D:8")
    f = h2_enumerate(A, 2).representatives[3]
    assert class_equal(f, Cocycle2(A, 2, f.values))
    for other in (Cocycle2(B, 2, f.values), Cocycle2(A, 3, np.zeros((8, 8), dtype=np.int64))):
        for pair in ((f, other), (other, f)):
            with pytest.raises(PrimeMismatch, match="different groups or primes"):
                class_equal(*pair)


def _plain_rank(rows, p):
    """Row echelon elimination one entry at a time, as a reference."""
    M = [list(map(int, r)) for r in rows]
    rank, col, ncols = 0, 0, len(M[0]) if M else 0
    while rank < len(M) and col < ncols:
        piv = next((i for i in range(rank, len(M)) if M[i][col] % p), None)
        if piv is None:
            col += 1
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][col], p - 2, p)
        M[rank] = [v * inv % p for v in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][col] % p:
                c = M[i][col]
                M[i] = [(a - c * b) % p for a, b in zip(M[i], M[rank])]
        rank += 1
        col += 1
    return rank


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 40), st.integers(1, 30), st.integers(0, 2 ** 32 - 1))
def test_gfmatrix_rank_and_nullspace_match_plain_elimination(p, m, ncols, seed):
    rng = np.random.default_rng(seed)
    low_rank = rng.integers(0, p, (m, 3)) @ rng.integers(0, p, (3, ncols))
    rows = low_rank if seed % 2 else rng.integers(0, p, (m, ncols))
    M = GFMatrix(ncols, p)
    for r0 in range(0, m, 7):
        M.add_rows(rows[r0:r0 + 7] % p)
    assert M.rank == _plain_rank(rows % p, p)
    null = M.nullspace()
    assert len(null) == ncols - M.rank
    assert not (rows @ null.T % p).any()
    assert _plain_rank(null, p) == len(null)

