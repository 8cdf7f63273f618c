"""Catalog construction, quotients, pullbacks and structure invariants."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pgal.catalog import build_group, canonical_spec
from pgal.errors import (
    NotNormal,
    NotPGroup,
    OrderTooLarge,
    RelationInconsistent,
    TargetMismatch,
    UnknownFamily,
    BadM,
)
from pgal.groups import (
    DualActionData,
    Group,
    GroupHom,
    Subgroup,
    cayley_tree,
    direct_product,
    dual_action_predicate,
    find_isomorphism,
    frattini_style_subgroup,
    is_isomorphic,
    max_elem_abelian_quotient,
    min_generators,
    normal_subgroups,
    pullback,
    quotient,
    structure_invariants,
    subgroup_generated,
    subgroups_of_index2,
    trivial_subgroup,
)
from pgal.linalg import GFMatrix


def test_trivial_group_table():
    G = build_group("C:1")
    assert G.order == 1
    assert G.table == [[0]]


def test_dihedral_16_defining_relation():
    G = build_group("D:16")
    s, t = G.gen("sigma"), G.gen("tau")
    assert G.element_order(s) == 8
    assert G.element_order(t) == 2
    assert G.mul(t, s) == G.mul(G.power(s, -1), t)


def test_semidihedral_16_defining_relation():
    G = build_group("SD:16")
    s, t = G.gen("sigma"), G.gen("tau")
    assert G.mul(t, s) == G.mul(G.power(s, 3), t)


def test_quaternion_16_defining_relations():
    G = build_group("Q:16")
    s, t = G.gen("sigma"), G.gen("tau")
    assert G.power(t, 2) == G.power(s, 4)
    assert G.mul(t, s) == G.mul(G.power(s, -1), t)


def test_modular_16_defining_relation():
    G = build_group("M:16")
    s, t = G.gen("sigma"), G.gen("tau")
    assert G.mul(t, s) == G.mul(G.power(s, 5), t)


def test_modular_27_relations():
    G = build_group("Mmod:p=3,n=3")
    a, b = G.gen("alpha"), G.gen("beta")
    assert G.element_order(a) == 9
    assert G.element_order(b) == 3
    assert G.mul(b, a) == G.mul(G.power(a, 4), b)


def test_heisenberg_relations():
    G = build_group("G1:p=3")
    g1, g2, g3 = G.gen("g1"), G.gen("g2"), G.gen("g3")
    assert G.order == 27
    assert all(G.element_order(g) == 3 for g in (g1, g2, g3))
    assert G.mul(g1, g2) == G.mul(G.mul(g2, g1), g3)
    assert np.array_equal(G.center().elements, subgroup_generated(G, [g3]).elements)


def test_g2_group_relations():
    G = build_group("G2:p=3")
    g1, g2 = G.gen("g1"), G.gen("g2")
    assert G.element_order(g1) == 9
    assert G.element_order(g2) == 3
    assert G.mul(g1, g2) == G.mul(g2, G.power(g1, 4))


@pytest.mark.parametrize("spec,relations", [
    ("G3:p=3", {"g1^p": "g4", "g2^p": "1"}),
    ("G4:p=3", {"g1^p": "g4", "g2^p": "g3"}),
    ("G5:p=3", {"g1^p": "g3", "g2^p": "1"}),
    ("G6:p=3", {"g1^p": "1", "g2^p": "1"}),
])
def test_order_81_families(spec, relations):
    G = build_group(spec)
    assert G.order == 81
    g1, g2 = G.gen("g1"), G.gen("g2")
    g3, g4 = G.gen("g3"), G.gen("g4")
    want = {"1": 0, "g3": g3, "g4": g4}
    assert G.power(g1, 3) == want[relations["g1^p"]]
    assert G.power(g2, 3) == want[relations["g2^p"]]
    # [g2, g1] is the stated central element
    comm = G.commutator(g2, g1)
    if spec in ("G3:p=3", "G4:p=3"):
        assert comm == g3
    else:
        assert comm == g4
    # centrality of g3 and g4
    for c in (g3, g4):
        assert all(G.mul(c, x) == G.mul(x, c) for x in range(G.order))


def test_g5_power_chain():
    G = build_group("G5:p=3")
    g1 = G.gen("g1")
    assert G.element_order(g1) == 27


def test_g7_relations():
    G = build_group("G7:p=3")
    mu, lam, tau, sig = G.gen("mu"), G.gen("lambda"), G.gen("tau"), G.gen("sigma")
    assert G.commutator(mu, tau) == sig
    assert G.commutator(mu, lam) == tau
    assert G.commutator(lam, tau) == 0
    assert all(G.mul(sig, x) == G.mul(x, sig) for x in range(G.order))


def test_mss_semidirect_matches_g7_relations():
    """MSS(p,1,3) realizes the same presentation as G7 (order 81 case)."""
    G = build_group("MSS:p=3,n=1,j=3")
    s, m = G.gen("s"), G.gen("m")
    tau = G.commutator(s, m)
    sig = G.commutator(s, tau)
    assert sig != 0
    assert G.commutator(s, sig) == 0          # (sigma-1)^3 = 0
    assert G.commutator(m, tau) == 0
    assert all(G.mul(sig, x) == G.mul(x, sig) for x in range(G.order))
    assert len(G.closure([s, m])) == 81


def test_mss_small_is_isomorphic_to_heisenberg():
    # M_2 x| C_3 has order 27, exponent 3 and is nonabelian, so it is G1(3)
    A = build_group("MSS:p=3,n=1,j=2")
    B = build_group("G1:p=3")
    assert is_isomorphic(A, B)


def test_elem_abelian_and_products():
    G = build_group("EA:p=2,r=3")
    assert G.order == 8
    assert G.exponent() == 2
    H = build_group("C:4*C:2")
    assert H.order == 8
    assert sorted(H.element_orders()) == [1, 2, 2, 2, 4, 4, 4, 4]


def test_unknown_family_and_too_large():
    with pytest.raises(UnknownFamily):
        build_group("X:8")
    with pytest.raises(UnknownFamily):
        build_group("D:12")
    with pytest.raises(OrderTooLarge):
        build_group("C:8192")


def test_every_group_order_above_the_cap_is_one_refusal():
    """Products and pullbacks were TooLarge, and an outside table
    RelationInconsistent."""
    C64, C128 = build_group("C:64"), build_group("C:128")
    _, f1 = quotient(C64, Subgroup(C64, range(64)))
    _, f2 = quotient(C128, Subgroup(C128, range(128)))
    big = np.zeros((4097, 4097), dtype=np.int16)
    for make in (lambda: direct_product(C64, C128),
                 lambda: pullback(C64, C128, f1, f2),
                 lambda: Group(big, [], check=False)):
        with pytest.raises(OrderTooLarge, match=r"order \d+ exceeds cap 4096"):
            make()


def test_from_table_rejects_broken_table():
    with pytest.raises(RelationInconsistent):
        Group([[0, 1], [1, 1]], [("a", 1)])


def test_canonical_spec_roundtrip():
    assert canonical_spec("Mmod:n=3,p=3") == "Mmod:n=3,p=3"
    assert canonical_spec("D:16") == "D:16"


# -- pullbacks -----------------------------------------------------------------


def _mod2_hom(C4, C2):
    return GroupHom(C4, C2, tuple(x % 2 for x in range(4)))


def test_pullback_c4_c4_over_c2():
    C4 = build_group("C:4")
    C2 = build_group("C:2")
    f = _mod2_hom(C4, C2)
    P, p1, p2 = pullback(C4, C4, f, f)
    assert P.order == 8
    assert is_isomorphic(P, build_group("C:4*C:2"))
    assert p1.is_surjective() and p2.is_surjective()


def test_pullback_over_trivial_group_is_direct_product():
    C4 = build_group("C:4")
    C3 = build_group("C:3")
    T = build_group("C:1")
    f1 = GroupHom(C4, T, (0,) * 4)
    f2 = GroupHom(C3, T, (0,) * 3)
    P, _, _ = pullback(C4, C3, f1, f2)
    assert is_isomorphic(P, direct_product(C4, C3))


def test_pullback_reconstruction_from_trivially_intersecting_normals():
    G = build_group("C:4*C:2")
    a = G.gen("sigma")            # order 4
    b = G.gen("sigma'")           # order 2 from the second factor
    N1 = subgroup_generated(G, [G.power(a, 2)])
    N2 = subgroup_generated(G, [b])
    assert set(N1.elements) & set(N2.elements) == {0}
    Q1, pr1 = quotient(G, N1)
    Q2, pr2 = quotient(G, N2)
    N12 = subgroup_generated(G, list(N1.elements) + list(N2.elements))
    F, prF = quotient(G, N12)
    h1 = GroupHom(Q1, F, prF.images[pr1.section()])
    h2 = GroupHom(Q2, F, prF.images[pr2.section()])
    P, _, _ = pullback(Q1, Q2, h1, h2)
    assert is_isomorphic(P, G)


def test_pullback_target_mismatch():
    C4 = build_group("C:4")
    C2 = build_group("C:2")
    C3 = build_group("C:3")
    f1 = _mod2_hom(C4, C2)
    f2 = GroupHom(C3, build_group("C:1"), (0, 0, 0))
    with pytest.raises(TargetMismatch):
        pullback(C4, C3, f1, f2)


# -- quotients ------------------------------------------------------------------


def test_quotient_q8_by_center():
    Q8 = build_group("Q:8")
    Z = Q8.center()
    assert Z.order == 2
    Q, proj = quotient(Q8, Z)
    assert is_isomorphic(Q, build_group("EA:p=2,r=2"))
    assert proj.is_surjective()


def test_quotient_by_trivial_is_identity():
    G = build_group("D:8")
    Q, proj = quotient(G, trivial_subgroup(G))
    assert is_isomorphic(Q, G)


def test_modular16_center_and_quotient():
    G = build_group("M:16")
    s = G.gen("sigma")
    assert np.array_equal(G.center().elements, subgroup_generated(G, [G.power(s, 2)]).elements)
    Q, _ = quotient(G, subgroup_generated(G, [G.power(s, 2)]))
    assert is_isomorphic(Q, build_group("EA:p=2,r=2"))


def test_quotient_not_normal():
    G = build_group("D:8")
    t = G.gen("tau")
    with pytest.raises(NotNormal):
        quotient(G, subgroup_generated(G, [t]))


# -- structure invariants --------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5])
def test_index2_cyclic_families_structure(n):
    """Centers, exponents and central quotients of the four order-2^n families."""
    order = 2 ** n
    for fam in ("D", "Q", "SD", "M"):
        if fam in ("SD", "M") and n < 4:
            continue
        G = build_group(f"{fam}:{order}")
        s = G.gen("sigma")
        assert G.exponent() == 2 ** (n - 1)
        if fam == "M":
            want_center = subgroup_generated(G, [G.power(s, 2)])
        else:
            want_center = subgroup_generated(G, [G.power(s, 2 ** (n - 2))])
        assert np.array_equal(G.center().elements, want_center.elements)
        Q, _ = quotient(G, subgroup_generated(G, [G.power(s, 2 ** (n - 2))]))
        if fam == "M":
            expect = build_group(f"C:{2 ** (n - 2)}*C:2")
        else:
            expect = build_group(f"D:{2 ** (n - 1)}")
        assert is_isomorphic(Q, expect)
        assert Q.exponent() == 2 ** (n - 2)


def test_structure_invariants_examples():
    assert build_group("D:16").exponent() == 8
    inv = structure_invariants(build_group("G1:p=3"))
    assert inv.center.order == 3
    assert min_generators(build_group("C:1")) == 0
    assert min_generators(build_group("Q:8")) == 2
    assert min_generators(build_group("EA:p=2,r=3")) == 3


def test_min_generators_quotient_monotone():
    for spec in ("D:16", "Q:16", "M:16", "G1:p=3", "C:4*C:2"):
        G = build_group(spec)
        dG = min_generators(G)
        Z = G.center()
        for x in Z.elements:
            if x == 0:
                continue
            N = subgroup_generated(G, [x])
            Q, _ = quotient(G, N)
            assert min_generators(Q) <= dG


# products of groups of coprime orders, so nilpotent, up to order 48
MIXED = ["C:6", "C:12", "C:2*C:2*C:3", "C:2*C:5", "C:2*C:3*C:5", "D:8*C:3", "Q:8*C:3",
         "C:4*C:2*C:3", "EA:p=2,r=3*C:3", "EA:p=2,r=2*C:9", "EA:p=2,r=2*EA:p=3,r=2",
         "EA:p=3,r=2*C:4", "D:8*C:5", "D:16*C:3", "Q:16*C:3", "EA:p=2,r=4*C:3"]


@pytest.mark.parametrize("spec", MIXED)
def test_min_generators_of_a_mixed_product_agrees_with_the_subset_search(spec):
    from oracles import min_generators_by_search

    G = build_group(spec)
    assert min_generators(G) == min_generators_by_search(G)


def test_min_generators_searches_subsets_only_when_a_sylow_subgroup_is_not_normal(monkeypatch):
    from oracles import permutation_group

    searched, real = [], itertools.combinations
    monkeypatch.setattr(itertools, "combinations", lambda *a: searched.append(a) or real(*a))
    assert min_generators(build_group("EA:p=2,r=5*C:3")) == 5
    assert min_generators(build_group("EA:p=2,r=6*EA:p=3,r=3")) == 6
    assert not searched
    for degree in (3, 4):  # S3 and S4
        searched.clear()
        assert min_generators(permutation_group(degree, False)) == 2 and searched


def test_subgroups_of_index2():
    assert len(subgroups_of_index2(build_group("EA:p=2,r=2"))) == 3
    assert subgroups_of_index2(build_group("C:3")) == []
    q8 = build_group("Q:8")
    subs = subgroups_of_index2(q8)
    assert len(subs) == 3
    for H in subs:
        assert is_isomorphic(H.as_group(), build_group("C:4"))
        assert H.is_normal()


def test_max_elem_abelian_quotient():
    Q, _ = max_elem_abelian_quotient(build_group("D:8"), 2)
    assert is_isomorphic(Q, build_group("EA:p=2,r=2"))
    E = build_group("EA:p=3,r=2")
    Q2, _ = max_elem_abelian_quotient(E, 3)
    assert is_isomorphic(Q2, E)
    Q3, _ = max_elem_abelian_quotient(build_group("Mmod:p=3,n=3"), 3)
    assert is_isomorphic(Q3, build_group("EA:p=3,r=2"))
    with pytest.raises(NotPGroup):
        max_elem_abelian_quotient(build_group("C:6"), 2)


def test_group_json_roundtrip():
    G = build_group("D:8")
    doc = G.to_json()
    H = Group.from_json(doc)
    assert H.table == G.table
    assert H.generators == G.generators


def test_find_isomorphism_returns_actual_map():
    A = build_group("C:4*C:2")
    B = build_group("C:2*C:4")
    phi = find_isomorphism(A, B)
    assert phi is not None
    for x in range(A.order):
        for y in range(A.order):
            assert phi[A.mul(x, y)] == B.mul(phi[x], phi[y])


# -- dual action predicates -------------------------------------------------------


def test_dual_action_trivial():
    data = DualActionData((4,), {"r": ((1,),)}, {"r": 1})
    for m in (1, 3):
        flags = dual_action_predicate(data, m)
        assert flags["uniform_power"] and flags["pm_one"] and flags["thm24"]


def test_dual_action_inversion_is_pm_one():
    data = DualActionData((4,), {"r": ((3,),)}, {"r": 1})
    flags = dual_action_predicate(data, 3)
    assert flags["pm_one"]
    assert flags["thm24"]          # inversion equals chi -> chi^3 here


def test_dual_action_c8_cube():
    data = DualActionData((8,), {"r": ((3,),)}, {"r": 1})
    flags = dual_action_predicate(data, 3)
    assert flags["thm24"]
    assert flags["uniform_power"]
    assert not flags["pm_one"]


def test_dual_action_bad_m():
    data = DualActionData((8,), {"r": ((3,),)}, {"r": 1})
    with pytest.raises(BadM):
        dual_action_predicate(data, 2)
    for m in (3.0, 3.5, True, "3", None):
        with pytest.raises(BadM, match="^m must be an integer$"):
            dual_action_predicate(data, m)


def test_dual_action_matrix_entries_are_read_mod_the_exponent():
    flags = dual_action_predicate(DualActionData((8,), {"r": ((3,),)}, {"r": 1}), 3)
    for entry in (-5, 11, 2 ** 70 + 3, np.int16(3)):
        data = DualActionData((8,), {"r": ((entry,),)}, {"r": 1})
        assert dual_action_predicate(data, 3) == flags
    assert dual_action_predicate(DualActionData((8,), {"r": ((3,),)}, {"r": 1}), -5) == flags


def test_dual_action_non_power_map():
    # swap of the two factors is not chi -> chi^t
    data = DualActionData((2, 2), {"r": ((0, 1), (1, 0))}, {"r": 1})
    flags = dual_action_predicate(data, 1)
    assert not flags["uniform_power"]
    assert not flags["thm24"]


# -- exact table laws ---------------------------------------------------------------
#
# The breadth-first searches below are the ones the library ran before every
# walk of a Cayley graph went through cayley_tree; they stay as oracles.


def _bfs_closure(T, seed):
    """Elements reached from 0 by right multiplication with the seeds."""
    seen, frontier = {0}, [0]
    gens = sorted(set(int(s) for s in seed))
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = int(T[x, g])
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def _bfs_generating_set(T):
    """Greedy generating set: keep each element not yet reached, redo the search."""
    n = T.shape[0]
    chosen, reach = [], {0}
    for x in range(1, n):
        if x in reach:
            continue
        chosen.append(x)
        reach = set(_bfs_closure(T, chosen))
        if len(reach) == n:
            break
    return chosen


def _bfs_word_tree(T, gens):
    """x = parent[x] * gens[letter[x]], and the order the search found them in."""
    n = T.shape[0]
    parent, letter, order, seen, frontier = [-1] * n, [-1] * n, [], {0}, [0]
    parent[0] = 0
    while frontier:
        nxt = []
        for x in frontier:
            for li, g in enumerate(gens):
                y = int(T[x, g])
                if y not in seen:
                    seen.add(y)
                    parent[y], letter[y] = x, li
                    nxt.append(y)
                    order.append(y)
        frontier = nxt
    return parent, letter, order


def _catalog_specs(limit):
    """Every catalog family spec of order at most `limit`, and a few products."""
    primes = (2, 3, 5, 7, 11, 13)
    specs = [f"C:{n}" for n in (1, 6, 12) + tuple(
        p ** r for p in primes for r in range(1, 9) if p ** r <= limit)]
    for fam, smallest in (("D", 8), ("Q", 8), ("SD", 16), ("M", 16)):
        specs += [f"{fam}:{2 ** e}" for e in range(3, 9) if smallest <= 2 ** e <= limit]
    for p in primes:
        specs += [f"EA:p={p},r={r}" for r in range(9) if p ** r <= limit]
        specs += [f"G{i}:p={p}" for i in (1, 2) if p ** 3 <= limit]
        specs += [f"G{i}:p={p}" for i in range(3, 8) if p ** 4 <= limit and (i, p) != (7, 2)]
        specs += [f"Mmod:p={p},n={n}" for n in range(3, 9) if p ** n <= limit]
        specs += [f"MSS:p={p},n={n},j={j}" for n in range(1, 4) for j in range(1, p ** n + 1)
                  if p ** (n + j) <= limit]
    products = ["D:8*C:2", "Q:8*C:4", "C:4*C:4*C:2", "G1:p=3*C:3", "D:16*C:16", "C:6*C:2"]
    return specs + [s for s in products if build_group(s).order <= limit]


def _tables_from(G):
    """G's table, the tables of its center and index-2 subgroups, and of G/Z(G)."""
    subs = [G.center()] + (subgroups_of_index2(G) if G.order <= 64 else [])
    tables = [G.np_table] + [H.as_group().np_table for H in subs]
    return tables + [quotient(G, G.center())[0].np_table]


def _along(parent, slot, order, T, images):
    """The map that sends gens[i] to images[i], evaluated along a word tree."""
    phi = np.zeros(len(parent), dtype=np.int64)
    for x in order:
        phi[x] = T[phi[parent[x]], images[slot[x]]]
    return phi


def test_the_cayley_walk_agrees_with_the_breadth_first_searches():
    """Generating sets, closures and word trees on every catalog spec up to
    order 256 and on the subgroup and quotient tables built from them."""
    rng = np.random.default_rng(4)
    for spec in _catalog_specs(256):
        G = build_group(spec)
        for T in _tables_from(G):
            n = T.shape[0]
            gens, reached, parent, slot = cayley_tree(T, range(1, n))
            assert gens == _bfs_generating_set(T), spec
            assert sorted(reached) == list(range(n)), spec
            order = reached[1:]
            assert sorted(order) == list(range(1, n)), spec
            assert np.array_equal(_along(parent, slot, order, T, gens), np.arange(n)), spec
            H = Group(T, [(f"g{g}", g) for g in gens])
            seeds = [[g] for g in range(min(n, 12))] + [rng.integers(0, n, 3) for _ in range(4)]
            for seed in seeds:
                assert H.closure(seed) == _bfs_closure(T, seed), (spec, seed)
        # both word trees give the projection onto G/Z(G) from the images of the generators
        Q, proj = quotient(G, G.center())
        gens, reached, parent, slot = cayley_tree(G.np_table, range(1, G.order))
        images = [proj(g) for g in gens]
        old_parent, old_letter, old_order = _bfs_word_tree(G.np_table, gens)
        old = _along(old_parent, old_letter, old_order, Q.np_table, images)
        new = _along(parent, slot, reached[1:], Q.np_table, images)
        assert old.tolist() == new.tolist() == list(proj.images), spec


def _rejected(table, generators) -> bool:
    try:
        Group(table, generators)
    except RelationInconsistent:
        return True
    return False


@pytest.mark.parametrize("spec,lines", [("D:256", 2), ("MSS:p=5,n=1,j=3", 1)])
def test_every_one_entry_corruption_of_seeded_lines_is_rejected(spec, lines):
    """No Latin-square test runs any more, so the exact laws alone must catch
    a table that differs from a group in one entry."""
    G = build_group(spec)
    n, bad = G.order, G.np_table.copy()
    rng = np.random.default_rng(n)
    rows = rng.choice(np.arange(1, n), lines, replace=False)
    cols = rng.choice(np.arange(1, n), lines, replace=False)
    cells = [(int(x), y) for x in rows for y in range(n)] + [(x, int(y)) for y in cols for x in range(n)]
    for x, y in cells:
        good = bad[x, y]
        bad[x, y] = (good + rng.integers(1, n)) % n
        assert _rejected(bad, G.generators), (x, y)
        bad[x, y] = good


def _latin_swap(T, rng):
    """T with an intercalate swapped: four cells (a, c), (a, d), (b, c), (b, d)
    with b = ag, d = gc for an involution g, off row and column 0.  The result
    is still a Latin square with identity 0."""
    n = T.shape[0]
    g = rng.choice([x for x in range(1, n) if T[x, x] == 0])
    a, c = (rng.choice([x for x in range(1, n) if x != g]) for _ in range(2))
    b, d = T[a, g], T[g, c]
    out = T.copy()
    out[a, c], out[a, d], out[b, c], out[b, d] = T[a, d], T[a, c], T[b, d], T[b, c]
    return out


def test_latin_swaps_in_an_order_1024_table_are_rejected():
    """Associativity used to be sampled on 10^4 triples above order 64; at
    order 1024 that let most of these Latin squares through."""
    G = build_group("D:1024")
    rng = np.random.default_rng(1024)
    for _ in range(24):
        assert _rejected(_latin_swap(G.np_table, rng), G.generators)


@pytest.mark.parametrize("middle", ["sigma", "tau"])
def test_every_kept_generator_is_checked(middle):
    """Loops on Z/2 x D:8, (a, x)(b, y) = (a + b + f(x, y), xy), for a basis of
    the normalized f with f(x, s) + f(xs, y) = f(s, y) + f(x, sy), s = middle:
    then (us)v = u(sv) for s = (0, middle) and for zeta = (1, 0), whatever f,
    and the table is accepted exactly when it is associative."""
    G = build_group("D:8")
    n, T, s = G.order, G.np_table, G.gen(middle)
    cell = np.arange(n * n).reshape(n, n)
    eqs = np.zeros((n * n, n * n), dtype=np.int64)
    for x, y in itertools.product(range(n), repeat=2):
        for (a, b), sign in (((x, s), 1), ((T[x, s], y), 1), ((s, y), -1), ((x, T[s, y]), -1)):
            eqs[x * n + y, cell[a, b]] += sign
    eqs[:, cell[0]] = eqs[:, cell[:, 0]] = 0  # normalized: those values are 0
    Z = GFMatrix(n * n, 2)
    Z.add_rows(eqs % 2)
    I, gens = np.arange(2), [("zeta", n), ("sigma", G.gen("sigma")), ("tau", G.gen("tau"))]
    verdicts = set()
    for v in Z.nullspace():
        F = v.reshape(n, n) * (np.arange(n)[:, None] > 0) * (np.arange(n) > 0)
        a_part = (I[:, None, None, None] + I[None, None, :, None] + F[None, :, None, :]) % 2
        L = (a_part * n + T[None, :, None, :]).reshape(2 * n, 2 * n)
        associative = np.array_equal(L[L, :], L[:, L])
        assert _rejected(L, gens) != associative
        verdicts.add(associative)
    assert verdicts == {True, False}


def test_a_homomorphism_corrupted_at_one_element_is_rejected():
    for spec in ("D:16", "G1:p=3", "D:8*C:2"):
        G = build_group(spec)
        Q, proj = quotient(G, G.center())
        S, T = G.np_table, Q.np_table
        for x in range(1, G.order):
            for v in range(-1, Q.order + 1):
                phi = np.array(proj.images)
                if v == phi[x]:
                    continue
                phi[x] = v
                ok = 0 <= v < Q.order and np.array_equal(phi[S], T[phi[:, None], phi[None, :]])
                if ok:
                    GroupHom(G, Q, tuple(phi))
                else:
                    with pytest.raises(RelationInconsistent):
                        GroupHom(G, Q, tuple(phi))


@pytest.mark.parametrize("middle", ["sigma", "tau"])
def test_every_source_generator_is_checked(middle):
    """Every map D:8 -> D:8 with phi(xs) = phi(x) phi(s) for s = middle (one
    image per coset x<s> and phi(s) of order dividing that of s) is accepted
    exactly when it is multiplicative."""
    G = build_group("D:8")
    T, s = G.np_table, G.gen(middle)
    powers = [G.power(s, i) for i in range(G.element_order(s))]
    reps = sorted({int(min(T[x, powers])) for x in range(1, G.order)} - {0})
    verdicts = set()
    for a in range(G.order):
        if G.power(a, len(powers)):
            continue
        a_powers = [G.power(a, i) for i in range(len(powers))]
        for imgs in itertools.product(range(G.order), repeat=len(reps)):
            phi = np.zeros(G.order, dtype=np.int64)
            for r, im in zip([0] + reps, (0,) + imgs):
                phi[T[r, powers]] = T[im, a_powers]
            full = np.array_equal(phi[T], T[phi[:, None], phi[None, :]])
            try:
                GroupHom(G, G, tuple(phi))
                accepted = True
            except RelationInconsistent:
                accepted = False
            assert accepted == full
            verdicts.add(full)
    assert verdicts == {True, False}


def test_tables_that_are_not_groups_name_the_failed_law():
    D8 = build_group("D:8")
    cases = [
        ([[0, 1], [1, 1]], [("a", 1)], "element 1 has no inverse"),
        (np.maximum.outer(np.arange(5), np.arange(5)), [(f"g{i}", i) for i in range(1, 5)],
         "element 1 has no inverse"),
        (D8.table, [("sigma", D8.gen("sigma"))], "generators do not generate the group"),
        ([[0, 1, 2], [1, 0, 1], [2, 2, 0]], [("a", 1), ("b", 2)], "associativity fails"),
        ([[0, 1], [0, 1]], [("a", 1)], "index 0 is not a two-sided identity"),
        ([[0, 1], [1, 2]], [("a", 1)], "table entries out of range"),
        (D8.table, [("sigma", -1), ("tau", 1)], "generator indices must lie in 0..7"),
    ]
    for table, gens, detail in cases:
        with pytest.raises(RelationInconsistent) as exc:
            Group(table, gens)
        assert exc.value.detail == detail
    for elements in ([-1, 0], [0, 8]):
        with pytest.raises(RelationInconsistent) as exc:
            Subgroup(D8, elements)
        assert exc.value.detail == "subgroup elements must lie in 0..7"


SMALL_SPECS = [s for s in _catalog_specs(64) if s != "C:1"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_SPECS), st.data())
def test_row_permuted_tables_are_rejected(spec, data):
    G = build_group(spec)
    perm = data.draw(st.permutations(range(G.order)))
    assume(perm != list(range(G.order)))
    assert _rejected(G.np_table[perm], G.generators)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([s for s in SMALL_SPECS if (o := build_group(s).order) > 2 and o % 2 == 0]),
       st.integers(0, 2 ** 32 - 1))
def test_latin_squares_are_accepted_exactly_when_they_are_groups(spec, seed):
    G = build_group(spec)
    L = _latin_swap(G.np_table, np.random.default_rng(seed))
    group = (np.array_equal(L[L, :], L[:, L])
             and _bfs_closure(L, [g for _, g in G.generators]) == list(range(G.order)))
    assert _rejected(L, G.generators) != group


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_catalog_specs(1024)))
def test_every_catalog_table_is_accepted(spec):
    G = build_group(spec)
    assert Group(G.table, G.generators).generators == G.generators
    bare = Group.from_json({"order": G.order, "table": G.table})
    assert bare.closure(range(1, G.order)) == list(range(G.order))


# -- center, element orders and normal subgroups against the old loops -------------
#
# The loops below are the ones the library ran before center, element_orders
# and normal_subgroups used the named generators and table gathers; they stay
# as oracles.


def _loop_center(G):
    """Elements whose row equals their column: commute with every element."""
    T = G.np_table
    return [int(i) for i in np.flatnonzero((T == T.T).all(axis=1))]


def _loop_element_orders(G):
    """One multiplication per power of each element, until it reaches 0."""
    out = []
    for a in range(G.order):
        k, x = 1, a
        while x != 0:
            x = G.mul(x, a)
            k += 1
        out.append(k)
    return out


def _loop_normal_subgroups(G):
    """Normal closures under conjugation by every element, then all joins."""
    closures = set()
    for x in range(G.order):
        current = set(G.closure({x}))
        grown = True
        while grown:
            grown = False
            extra = {G.conj(g, y) for g in range(G.order) for y in current} - current
            if extra:
                current = set(G.closure(current | extra))
                grown = True
        closures.add(tuple(sorted(current)))
    normals = closures | {(0,)}
    frontier = list(normals)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(normals):
                j = tuple(G.closure(set(a) | set(b)))
                if j not in normals:
                    normals.add(j)
                    fresh.append(j)
        frontier = fresh
    return sorted(normals, key=lambda t: (len(t), t))


def _s3():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    idx = {q: i for i, q in enumerate(perms)}
    table = [[idx[tuple(b[a[k]] for k in range(3))] for b in perms] for a in perms]
    return Group(table, [("r", 1), ("s", 3)])


def _oracle_groups(limit):
    """Every catalog spec up to `limit`, S3, and two group files without
    generators (every element is then named)."""
    groups = [(spec, build_group(spec)) for spec in _catalog_specs(limit)]
    groups.append(("S3", _s3()))
    for name, G in (("S3 file", _s3()), ("D:16*C:2 file", build_group("D:16*C:2"))):
        groups.append((name, Group.from_json({"order": G.order, "table": G.table})))
    return groups


def test_center_and_element_orders_agree_with_the_old_loops():
    for name, G in _oracle_groups(256):
        assert list(G.center().elements) == _loop_center(G), name
        assert G.element_orders() == _loop_element_orders(G), name


def test_is_normal_agrees_with_conjugation_by_every_element():
    for name, G in _oracle_groups(32):
        for H in {tuple(G.closure([x])) for x in range(G.order)}:
            want = all(G.conj(g, y) in H for g in range(G.order) for y in H)
            assert Subgroup(G, H).is_normal() == want, (name, H)


def test_conjugations_agree_with_the_scalar_conjugate():
    """Row i of Group.conjugations is x -> s^-1 x s for s = gens[i], the
    kept generators for a group file without generators."""
    from pgal.groups import is_multiplicative

    for name, G in _oracle_groups(64):
        C, T = G.conjugations(), G.np_table
        assert C.dtype == np.int16 and not C.flags.writeable and G.conjugations() is C, name
        assert C.shape == (len(G.gens), G.order), name
        for row, s in zip(C, G.gens):
            assert row.tolist() == [G.mul(G.mul(G.inv(s), x), s) for x in range(G.order)], name
            assert row[0] == 0 and np.bincount(row, minlength=G.order).all(), name
            assert is_multiplicative(row, T, T, G.gens), name


def test_a_file_without_generators_answers_as_the_catalog_group():
    """A group file without generators names all n - 1 elements; its loops
    run over the generators its validation walk kept, at most log2 n."""
    G = build_group("D:1024")
    F = Group.from_json({"order": G.order, "table": G.table})
    assert len(F.generators) == 1023 and len(F.gens) <= 10
    assert np.array_equal(F.center().elements, G.center().elements)
    assert np.array_equal(frattini_style_subgroup(F, 2).elements,
                          frattini_style_subgroup(G, 2).elements)
    assert ([tuple(H.elements.tolist()) for H in subgroups_of_index2(F)]
            == [tuple(H.elements.tolist()) for H in subgroups_of_index2(G)])
    assert ([tuple(H.elements.tolist()) for H in normal_subgroups(F)]
            == [tuple(H.elements.tolist()) for H in normal_subgroups(G)])
    (QF, pF), (QG, pG) = quotient(F, F.center()), quotient(G, G.center())
    assert np.array_equal(QF.np_table, QG.np_table) and np.array_equal(pF.images, pG.images)


def _subgroup_count_of_elementary_abelian(p, r):
    """The number of subspaces of F_p^r: the sum of the Gaussian binomials."""
    total = 0
    for k in range(r + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (r - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def test_normal_subgroups_agree_with_the_old_loop():
    # every subgroup of EA(2,5) and EA(2,6) is normal, 374 and 2825 of them;
    # the old loop joins every pair, too many closures for a test, so these
    # two are counted against the Gaussian binomials instead
    for name, G in _oracle_groups(64):
        if name in ("EA:p=2,r=5", "EA:p=2,r=6"):
            continue
        assert ([tuple(H.elements.tolist()) for H in normal_subgroups(G)]
                == _loop_normal_subgroups(G)), name


@pytest.mark.parametrize("r,count", [(5, 374), (6, 2825)])
def test_normal_subgroups_of_elementary_abelian_groups_are_all_subgroups(r, count, monkeypatch):
    assert _subgroup_count_of_elementary_abelian(2, r) == count
    G = build_group(f"EA:p=2,r={r}")
    normals = normal_subgroups(G)
    # Subgroup checked each one closed; the list holds no repeats
    assert len({tuple(H.elements.tolist()) for H in normals}) == len(normals) == count
    assert sorted(H.order for H in normals) == [H.order for H in normals]
    monkeypatch.setattr("pgal.groups.MAX_NORMALS", count - 1)
    assert normal_subgroups(G) is None
    monkeypatch.setattr("pgal.groups.MAX_NORMALS", count)
    assert len(normal_subgroups(G)) == count


# -- tables the library builds itself -------------------------------------------------
#
# Catalog groups, products, quotients, subgroups as groups, pullbacks and
# extensions are groups by construction and skip Group's exact check; the
# check still passes on each of them here.


def _assert_built(G, what):
    assert G.np_table.dtype == np.int16, what
    assert not G.np_table.flags.writeable, what
    G._validate()


def _central_subgroups_of_prime_order(G):
    orders = G.element_orders()
    seen, out = set(), []
    for z in G.center().elements:
        if z and all(orders[z] % q for q in range(2, orders[z])):
            H = subgroup_generated(G, [z])
            if tuple(H.elements.tolist()) not in seen:
                seen.add(tuple(H.elements.tolist()))
                out.append(H)
    return out


def test_catalog_groups_quotients_and_index2_subgroups_pass_the_exact_check():
    for spec in _catalog_specs(256):
        G = build_group(spec)
        _assert_built(G, spec)
        for N in _central_subgroups_of_prime_order(G):
            Q, proj = quotient(G, N)
            _assert_built(Q, (spec, N.elements))
            assert np.array_equal(proj.kernel().elements, N.elements)
        for H in subgroups_of_index2(G):
            _assert_built(H.as_group(), (spec, "index 2"))


def _single_gather_quotient_table(G, proj):
    """The quotient table as one fancy gather over the coset representatives,
    the expression the row-block gather replaced."""
    coset_of = np.asarray(proj.images, dtype=np.int16)
    reps = np.unique(coset_of, return_index=True)[1]  # least element of each coset
    return coset_of[G.np_table[np.ix_(reps, reps)]]


def test_quotient_tables_gathered_by_row_blocks_equal_the_single_gather():
    # the order-4096 products by their trivial subgroup span 64 row blocks
    for spec in _catalog_specs(256) + ["D:64*C:64", "Q:64*C:64", "SD:64*C:64", "M:64*C:64"]:
        G = build_group(spec)
        for N in [trivial_subgroup(G), G.center()] + _central_subgroups_of_prime_order(G):
            Q, proj = quotient(G, N)
            assert np.array_equal(Q.np_table, _single_gather_quotient_table(G, proj)), \
                (spec, N.elements[:4])
            # cosets numbered by their least elements in increasing order, as the sort gave
            least = G.np_table[:, N.elements].min(axis=1)
            assert np.array_equal(proj.images, np.unique(least, return_inverse=True)[1]), \
                (spec, N.elements[:4])


def test_pullbacks_pass_the_exact_check():
    for spec in _catalog_specs(32):
        G = build_group(spec)
        _, proj = quotient(G, G.center())
        P, p1, p2 = pullback(G, G, proj, proj)
        _assert_built(P, spec)
        assert P.order == G.order * G.center().order


@pytest.mark.parametrize("spec", ["D:64*C:64", "Q:64*C:64", "SD:64*C:64", "M:64*C:64"])
def test_order_4096_products_pass_the_exact_check(spec):
    G = build_group(spec)
    _assert_built(G, spec)
    assert G.np_table.max() == 4095


def test_the_split_extension_of_d2048_is_the_direct_product():
    from pgal.cohomology import Cocycle2, extension_of_cocycle

    D = build_group("D:2048")
    E = extension_of_cocycle(Cocycle2(D, 2, np.zeros((D.order, D.order), dtype=np.int64))).extension
    _assert_built(E, "extension")
    P = direct_product(D, build_group("C:2"))  # x z^c is 2 x + c in both
    assert np.array_equal(E.np_table, P.np_table)
    assert E.np_table[4095, 0] == 4095 and E.np_table.max() == 4095


def test_tables_from_outside_are_stored_as_int16_too():
    G = build_group("D:8")
    for H in (Group(G.table, G.generators), Group(G.np_table.astype(np.int64), G.generators),
              Group.from_json(G.to_json())):
        assert H.np_table.dtype == np.int16 and not H.np_table.flags.writeable
        assert H.table == G.table


@pytest.mark.parametrize("bad", [0.5, 0.0, 1.0, False, True, "0", None, [1]])
def test_entries_that_are_not_integers_are_refused(bad):
    # a cast would truncate 0.5 and read false as 0, giving the table of C2
    for table in ([[0, 1], [1, bad]], [[0, bad], [bad, 0]]):
        with pytest.raises(RelationInconsistent, match="table entries must be integers"):
            Group(table, [("a", 1)])
    for arr in (np.array([[0, 1], [1, 0]], dtype=float), np.array([[0, 1], [1, 0]], dtype=bool)):
        with pytest.raises(RelationInconsistent, match="table entries must be integers"):
            Group(arr, [("a", 1)])
    with pytest.raises(RelationInconsistent, match="generator indices must be integers"):
        Group([[0, 1], [1, 0]], [("a", bad)])  # int(i) would read 1.5, true or "1" as 1
    for ok in (np.array([[0, 1], [1, 0]], dtype=np.uint8), [[0, 1], [1, np.int64(0)]]):
        assert Group(ok, [("a", 1)]).table == [[0, 1], [1, 0]]
    # element lists from outside: a cast would read [0, 2.7] as the subgroup {0, 2}
    C2, C4 = build_group("C:2"), build_group("C:4")
    with pytest.raises(RelationInconsistent, match="subgroup elements must be integers"):
        Subgroup(C4, [0, bad])
    for make in (lambda: GroupHom(C4, C2, (0, bad, 0, 1)), lambda: _transport_on_c2([0, bad])):
        with pytest.raises(RelationInconsistent, match="images must be integers"):
            make()


def _transport_on_c2(images):
    from pgal.cohomology import Cocycle2

    C2 = build_group("C:2")
    return Cocycle2(C2, 2, [[0, 0], [0, 1]]).transport(images, C2)


@pytest.mark.parametrize("bad", [-1, 4096, 32768, 65536, 65537, 2 ** 63, 2 ** 70])
def test_out_of_range_entries_are_refused_before_the_cast(bad):
    # 65536 and 65537 would wrap to 0 and 1 in int16, giving the table of C2;
    # 2^63 and 2^70 do not fit int64 either
    table = [[0, 1], [1, bad]]
    makers = [lambda: Group(table, [("a", 1)]),
              lambda: Group.from_json({"order": 2, "table": table})]
    if bad < 2 ** 63:
        makers.append(lambda: Group(np.array(table, dtype=np.int64), [("a", 1)]))
    for make in makers:
        with pytest.raises(RelationInconsistent, match="table entries out of range"):
            make()
    C2, C4 = build_group("C:2"), build_group("C:4")
    with pytest.raises(RelationInconsistent, match=r"subgroup elements must lie in 0\.\.3"):
        Subgroup(C4, [0, bad])
    for make in (lambda: GroupHom(C2, C2, (0, bad)), lambda: _transport_on_c2([0, bad])):
        with pytest.raises(RelationInconsistent, match="images out of range"):
            make()
