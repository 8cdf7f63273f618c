"""H^2 from the tails of a pc presentation (presentation.PcTails).

The engine is checked on the catalog's presentation and on one read off the
bare table against the spanning-tree oracle (oracles.tree_h2_dim) on every
catalog spec up to order 81, against the builder's own verdict on every
tail of small presentations, against the numeric build of the extension
class by class, and on known dimensions beyond the old order caps.  The
bar-complex oracle in test_h2_engine.py stays beside these.
"""

import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgal import cohomology, presentation
from pgal.catalog import build_group
from pgal.cohomology import h2_enumerate, is_cocycle_table, verify
from pgal.errors import BadParams, PgalError, RelationInconsistent, TooLarge
from pgal.groups import Group
from pgal.presentation import PcPresentation, PcTails, pc_table, read_pc

from fresh import run_request
from oracles import PRIMES, family_specs, tree_h2_dim


def _bare(G):
    """G's table without its presentation, so that h2_enumerate reads one off
    it (or, for a group that is not a p-group, goes through a Sylow subgroup)."""
    return Group(G.np_table, G.generators, check=False)


def _extended(G, p, t):
    """G's presentation with a central z of order p placed last and the tails
    t (each in range(p)): the power tails of x_0 .. x_(k-1), then the
    conjugate tails of the pairs i < j in lexicographic order."""
    rel, powers, conj = G.pc
    k = len(rel)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    pw = {i: {**powers.get(i, {}), k: int(t[i])} for i in range(k)}
    cj = {(i, j): {**conj.get((i, j), {j: 1}), k: int(t[k + c])} for c, (i, j) in enumerate(pairs)}
    return PcPresentation.of(list(rel) + [p], pw, cj)


MIXED_PRODUCTS = [("D:8*C:3", 2), ("D:8*C:3", 3), ("Q:8*C:3", 2), ("Q:8*C:3", 3),
                  ("C:9*C:2", 2), ("C:9*C:2", 3), ("EA:p=2,r=2*C:5", 2), ("EA:p=2,r=2*C:5", 5)]


def test_tails_and_tree_agree_up_to_order_81():
    """The catalog's presentation, the one read off the bare table (a Sylow
    subgroup's, for the mixed products) and the tree oracle agree."""
    cases = [(spec, p) for spec in family_specs(81) for p in PRIMES]
    checked = 0
    for spec, p in cases + MIXED_PRODUCTS:
        G = build_group(spec)
        if (spec, p) not in MIXED_PRODUCTS and p != 2 and G.order % p:
            continue
        assert G.pc is not None, spec
        try:
            tree = tree_h2_dim(_bare(G), p)
        except TooLarge:  # the tree's caps: order 81 at p = 2
            continue
        assert h2_enumerate(G, p).dimension == tree, (spec, p)
        assert h2_enumerate(_bare(G), p).dimension == tree, (spec, p)
        checked += 1
    assert checked == 225


BRUTE = [("C:8", 2), ("D:8", 2), ("Q:8", 2), ("C:4*C:2", 2), ("EA:p=2,r=3", 2), ("D:8*C:2", 2),
         ("EA:p=2,r=4", 2), ("G3:p=2", 2), ("MSS:p=2,n=1,j=2", 2), ("G1:p=3", 3),
         ("EA:p=3,r=2", 3), ("C:9*C:2", 3), ("C:9*C:2", 2), ("D:8*C:3", 3), ("C:25", 5)]


@pytest.mark.parametrize("spec,p", BRUTE)
def test_a_tail_is_consistent_exactly_when_the_builder_accepts_it(spec, p):
    G = build_group(spec)
    tails = PcTails(G, p)
    assert tails.m <= 10
    consistent = 0
    for t in itertools.product(range(p), repeat=tails.m):
        in_v = not (tails.eq.rows @ np.array(t) % p).any()
        try:
            pc_table(_extended(G, p, t))
            accepted = True
        except RelationInconsistent:
            accepted = False
        assert in_v == accepted, (spec, p, t)
        consistent += in_v
    assert consistent == p ** (tails.m - tails.eq.rank)


PROPERTY = [("D:8", 2), ("Q:16", 2), ("M:16", 2), ("G1:p=3", 3), ("Mmod:p=3,n=3", 3),
            ("EA:p=2,r=4", 2), ("D:8*C:3", 2), ("D:8*C:3", 3), ("Q:8*C:3", 2), ("C:9*C:2", 3),
            ("MSS:p=2,n=2,j=3", 2), ("EA:p=5,r=2", 5), ("G7:p=3", 3), ("Q:8*C:4", 2),
            ("G4:p=3", 3)]
_CACHE = {}


def _solved(spec, p):
    if (spec, p) not in _CACHE:
        G = build_group(spec)
        _CACHE[spec, p] = (G, PcTails(G, p), h2_enumerate(G, p))
    return _CACHE[spec, p]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PROPERTY), st.integers(0, 2 ** 32 - 1))
def test_a_class_is_the_factor_set_of_the_checked_extension(case, seed):
    spec, p = case
    G, tails, res = _solved(spec, p)
    V = tails.eq.nullspace()
    rng = np.random.default_rng(seed)
    t = rng.integers(0, p, len(V)) @ V % p
    TE = pc_table(_extended(G, p, t)).astype(np.int64)
    assert np.array_equal(TE[::p, ::p] // p, G.np_table)
    assert np.array_equal(tails.cocycle(t), TE[::p, ::p] % p)
    # a listed class is the one of the tails its index names, in
    # itertools.product order
    i = seed % len(res.representatives)
    coeffs = list(itertools.product(range(p), repeat=res.dimension))[i] if res.complete \
        else np.eye(res.dimension, dtype=np.int64)[i]
    TE = pc_table(_extended(G, p, np.array(coeffs) @ tails.basis % p)).astype(np.int64)
    assert np.array_equal(res.representatives[i].values, TE[::p, ::p] % p)


# dim H^2(G, F_p) = d(G) + d(M(G)), and Kunneth for the product (see
# test_h2_engine.py)
@pytest.mark.parametrize("spec,p,dim", [("D:2048", 2, 3), ("Q:2048", 2, 2), ("EA:p=2,r=8", 2, 36),
                                        ("D:64*C:32", 2, 6)])
def test_known_dimensions_beyond_the_old_caps(spec, p, dim):
    G = build_group(spec)
    res = h2_enumerate(G, p)
    assert (res.dimension, res.class_count) == (dim, p ** dim)
    assert is_cocycle_table(G, p, res.representatives[-1].values)


def test_ea_3_7_has_dimension_28_but_no_extension_table():
    """h2_enumerate gives 7 + 21, as the engine does, though |E| = 3 * 2187
    exceeds the table cap, so extension_of_cocycle refuses to build E."""
    G = build_group("EA:p=3,r=7")
    assert len(PcTails(G, 3).basis) == 28
    res = h2_enumerate(G, 3)
    assert (res.dimension, res.complete) == (28, False)
    with pytest.raises(TooLarge, match="extension order 6561 exceeds cap 4096"):
        cohomology.extension_of_cocycle(res.representatives[0])


def test_presentations_join_in_products_and_stay_out_of_json():
    G = build_group("D:8*C:3")
    assert G.pc.rel_orders == (2, 4, 3)
    assert dict(G.pc.conj) == {(0, 1): {1: 3}}
    assert np.array_equal(pc_table(G.pc), G.np_table)
    with pytest.raises(TypeError):
        G.pc.powers[0] = {1: 1}
    assert set(G.to_json()) == {"order", "table", "generators"}
    assert Group.from_json(G.to_json()).pc is None


# -- the lazy class sequence --------------------------------------------------------


def test_classes_are_built_only_when_read(monkeypatch):
    built = []
    real = PcTails.cocycle
    monkeypatch.setattr(PcTails, "cocycle", lambda self, t: built.append(1) or real(self, t))
    res = h2_enumerate(build_group("EA:p=2,r=3"), 2)
    reps = res.representatives
    assert (len(reps), built) == (64, [])
    assert np.array_equal(reps[-1].values, reps[63].values) and len(built) == 2
    assert [f.values.tolist() for f in reps[2:6:2]] == [reps[2].values.tolist(),
                                                         reps[4].values.tolist()]
    with pytest.raises(IndexError):
        reps[64]
    with pytest.raises(TypeError):
        reps[0] = reps[1]
    assert not list(reps)[0].values.any()


def test_iteration_follows_product_order_for_both_engines():
    """On the catalog's presentation and on one read off the bare table."""
    G = build_group("Q:8*C:2")
    for group in (G, _bare(G)):
        res = h2_enumerate(group, 2)
        assert res.complete and len(res.representatives) == 32
        reps = list(res.representatives)
        basis = [reps[2 ** (res.dimension - 1 - d)] for d in range(res.dimension)]
        for coeffs, f in zip(itertools.product(range(2), repeat=res.dimension), reps):
            want = sum(c * b.values for c, b in zip(coeffs, basis)) % 2
            assert np.array_equal(f.values, want)


def test_a_basis_is_listed_when_the_classes_are_too_many():
    res = h2_enumerate(build_group("EA:p=2,r=11"), 2)
    assert (res.dimension, res.class_count, res.complete) == (66, 2 ** 66, False)
    assert len(res.representatives) == 66
    f = res.representatives[65]
    assert f.values.shape == (2048, 2048) and f.values.any()


def test_h2_cli_at_ea_2_11_is_quick_and_small():
    """The request's own peak resident size (VmHWM), not ru_maxrss, which on
    Linux keeps the forking test process's resident size across exec."""
    req = run_request(["h2", "--group", "EA:p=2,r=11", "--p", "2", "--json"], timeout=60)
    assert req.code == 0, req.stderr
    assert json.loads(req.stdout)["dimension"] == 66
    assert req.seconds < 5 and req.peak_rss_kb < 400 * 1024


def test_tables_the_catalog_did_not_build_carry_no_presentation():
    G = build_group("D:16")
    tables = [cohomology.subgroups_of_index2(G)[0].as_group(),
              cohomology.quotient(G, G.center())[0],
              Group.from_json(G.to_json()),
              cohomology.extension_of_cocycle(h2_enumerate(G, 2).representatives[1]).extension]
    assert all(T.pc is None for T in tables)


@pytest.mark.parametrize("spec,p", [("D:16", 2), ("G3:p=3", 3)])
def test_a_read_presentation_builds_its_table_once(monkeypatch, spec, p):
    """read_pc checks itself with pc_table, and PcTails runs on that table."""
    built = build_group(spec)
    bare = _bare(built)
    calls = []
    real = presentation.pc_table
    monkeypatch.setattr(presentation, "pc_table", lambda *pc: calls.append(1) or real(*pc))
    assert h2_enumerate(bare, p).dimension == h2_enumerate(built, p).dimension
    assert len(calls) == 1


# -- each fact checked once: the words by PcPresentation.of, Hoelder's conditions
# by pc_table, and the pair by building the group from both ----------------------


@pytest.mark.parametrize("powers,conj", [
    ({0: {-1: 2}}, {}),        # a letter before x1
    ({0: {1: -2}}, {}),        # a negative exponent
    ({0: {2: 1}}, {}),         # a letter past the last generator
    ({}, {(0, 1): {1: 3, 0: 1}}),
    ({}, {(0, 1): {1: 2}}),    # a normal form, but x1 -> x1^2 is not bijective
    ({0: {1: 4}}, {}),         # x1^4 is not a normal form, as e_1 = 4
    ({0: {1: 10 ** 9}}, {}),
])
def test_tails_reject_what_the_builder_rejects(powers, conj):
    """PcTails takes only a pc group, so it never sees these: PcPresentation.of
    rejects each word that is not a normal form, and pc_table the automorphism
    that is not one.  PcTails used to answer dimensions 3 and 1 for the first
    and fifth, to read the second as the identity and to raise IndexError for
    the third and fourth; pc_table built C2 x C4 from the sixth and walked the
    last letter by letter, for minutes."""
    normal = conj == {(0, 1): {1: 2}}
    t0 = time.perf_counter()
    with pytest.raises(RelationInconsistent) as exc:
        pc_table(PcPresentation.of([2, 4], powers, conj))
    assert time.perf_counter() - t0 < 0.1
    assert exc.value.detail.startswith("conjugation by x0 is not" if normal else "a word at level 0")


def test_tails_need_a_pc_group():
    with pytest.raises(BadParams):
        PcTails(_bare(build_group("D:8")), 2)


@pytest.mark.parametrize("table,pc", [("D:8", "Q:8"), ("D:8", "C:8"), ("C:8", "D:8")])
def test_only_the_table_built_from_a_presentation_carries_it(table, pc):
    """Each pair passed Group's exact check, and then h2_enumerate answered
    dimension 2 for D8 with Q8's presentation (it is 3), 1 with C8's (and a
    class that is no cocycle on D8's table), and IndexError for C8."""
    G = build_group(table)
    with pytest.raises(PgalError):
        Group(G.np_table, G.generators, pc=build_group(pc).pc)


def test_hoelder_is_checked_by_the_table_at_each_level_and_not_by_the_tails(monkeypatch):
    """PcTails used to run Hoelder's checks again at every level: 2, 4 and 4
    calls here."""
    groups = [(G, p, h2_enumerate(_bare(G), p).dimension) for G, p in
              [(build_group("D:8"), 2), (build_group("G3:p=3"), 3),
               (read_pc(_bare(build_group("D:16")))[0], 2)]]
    levels = []
    real = presentation._check_hoelder
    monkeypatch.setattr(presentation, "_check_hoelder", lambda *a: levels.append(a[4]) or real(*a))
    for G, p, dim in groups:
        assert len(PcTails(G, p).basis) == dim
        assert levels == []
        assert np.array_equal(pc_table(G.pc), G.np_table)
        assert levels == list(reversed(range(len(G.pc.rel_orders))))
        levels.clear()


@pytest.mark.parametrize("spec", ["D:8", "Q:8", "EA:p=2,r=3", "G1:p=3"])
@pytest.mark.parametrize("p", [40009, 65537])
def test_tails_at_a_prime_beyond_int16(spec, p):
    """The z-forms hold 2p - 2, so int32 here, and a cocycle of tails in V is
    a coboundary, as H^2 = 0 for p prime to |G|."""
    G = build_group(spec)
    tails = PcTails(G, p)
    assert tails.dtype == np.int32 and len(tails.basis) == 0
    V = tails.eq.nullspace()
    assert len(V)
    t = np.arange(1, len(V) + 1) * 7919 @ V % p
    f = tails.cocycle(t)
    assert f.any() and f.max() < p
    ans = verify(G, p, f)
    assert ans["is_cocycle"] and ans["is_coboundary"]


def test_a_class_at_a_prime_near_2_to_the_30():
    """The level-1 z-forms of C2 x D16 reach 7 on a tail V uses, so
    contracting them with t at p = 10^9 + 7 passes int32; the factor set is
    still a cocycle."""
    G, p = build_group("C:2*D:16"), 1000000007
    tails = PcTails(G, p)
    V = tails.eq.nullspace()
    f = tails.cocycle(np.arange(1, len(V) + 1) * 7919 @ V % p)
    assert tails.dtype == np.int32 and f.any() and is_cocycle_table(G, p, f)
