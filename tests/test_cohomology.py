"""Cocycle extraction, extension building, H^2 counts, transfer and raise/lower."""

import itertools
import time

import numpy as np
import pytest

from pgal import cohomology
from pgal.catalog import build_group
from pgal.cohomology import (
    CoboundarySpace,
    Cocycle2,
    class_equal,
    cocycle_of_extension,
    cor_image_search,
    corestrict_tate,
    cyclic_step_cocycle,
    extension_of_cocycle,
    h2_enumerate,
    inflate,
    is_coboundary,
    is_cocycle_table,
    lift_order_diag,
    power_commutator_data,
    prop54_report,
    raise_lower,
    restrict,
    verify,
)
from pgal.errors import PreimageOrderMismatch, RelationInconsistent
from pgal.groups import (
    Group,
    GroupHom,
    Subgroup,
    is_isomorphic,
    quotient,
    subgroup_generated,
    subgroups_of_index2,
)


def _central_quotient_cocycle(spec, kernel_power):
    """Catalog group modulo a central cyclic subgroup, with its factor set."""
    E = build_group(spec)
    name, power = kernel_power
    k = E.power(E.gen(name), power)
    N = subgroup_generated(E, [k])
    Q, proj = quotient(E, N)
    return E, Q, proj, k, cocycle_of_extension(E, proj, k)


def test_c4_over_c2_factor_set():
    E, Q, proj, k, f = _central_quotient_cocycle("C:4", ("sigma", 2))
    assert Q.order == 2
    assert f.values.tolist() == [[0, 0], [0, 1]]


def test_split_extension_gives_coboundary_class():
    E = build_group("C:2*C:2")
    b = E.gen("sigma'")
    N = subgroup_generated(E, [b])
    Q, proj = quotient(E, N)
    f = cocycle_of_extension(E, proj, b)
    rep = verify(Q, 2, f.values)
    assert rep["is_cocycle"] and rep["is_coboundary"]


def test_q8_class_nontrivial_with_unit_commutator_datum():
    E, Q, proj, k, f = _central_quotient_cocycle("Q:8", ("sigma", 2))
    assert not verify(Q, 2, f.values)["is_coboundary"]
    ext = extension_of_cocycle(f)
    gens = [proj(E.gen("sigma")), proj(E.gen("tau"))]
    diag, off = power_commutator_data(ext, gens)
    assert off[(0, 1)] == 1


def test_extension_of_zero_cocycle_is_product():
    G = build_group("C:2*C:2")
    f = Cocycle2(G, 2, np.zeros((4, 4), dtype=int))
    ext = extension_of_cocycle(f)
    assert is_isomorphic(ext.extension, build_group("C:2*C:2*C:2"))


def test_extension_roundtrip_reproduces_values():
    E, Q, proj, k, f = _central_quotient_cocycle("C:4", ("sigma", 2))
    ext = extension_of_cocycle(f)
    f2 = cocycle_of_extension(ext.extension, ext.proj, ext.kernel_gen)
    assert np.array_equal(f2.values, f.values)
    assert is_isomorphic(ext.extension, build_group("C:4"))


@pytest.mark.parametrize("spec,kernel", [
    ("D:16", ("sigma", 4)), ("Q:16", ("sigma", 4)), ("SD:16", ("sigma", 4)),
    ("M:16", ("sigma", 4)), ("Q:32", ("sigma", 8)), ("G1:p=3", ("g3", 1)),
])
def test_extension_roundtrip_isomorphic_for_catalog_extensions(spec, kernel):
    E, Q, proj, k, f = _central_quotient_cocycle(spec, kernel)
    assert is_cocycle_table(Q, f.p, f.values)  # built with check=False
    rebuilt = extension_of_cocycle(f)
    f2 = cocycle_of_extension(rebuilt.extension, rebuilt.proj, rebuilt.kernel_gen)
    assert np.array_equal(f2.values, f.values)
    if E.order <= 32:
        assert is_isomorphic(rebuilt.extension, E)


def test_cocycle_json_roundtrip():
    E, Q, proj, k, f = _central_quotient_cocycle("D:8", ("sigma", 2))
    doc = f.to_json()
    g = Cocycle2(Q, doc["p"], doc["values"])
    assert np.array_equal(g.values, f.values)
    assert doc["group"]["order"] == Q.order


def _bilinear_cocycle(G, pairs, p=2):
    """f(x, y) = sum over (i, j) of x_i * y_j for exponent coordinates."""
    # coordinates for EA(2,2): index = 2*a + b
    n = G.order
    vals = np.zeros((n, n), dtype=int)
    for x in range(n):
        for y in range(n):
            xc = (x >> 1 & 1, x & 1)
            yc = (y >> 1 & 1, y & 1)
            vals[x, y] = sum(xc[i] * yc[j] for i, j in pairs) % p
    return Cocycle2(G, p, vals)


def test_massy_type_cocycle_gives_dihedral():
    G = build_group("EA:p=2,r=2")
    f = _bilinear_cocycle(G, [(1, 0)])
    ext = extension_of_cocycle(f)
    assert is_isomorphic(ext.extension, build_group("D:8"))


def test_verify_rejects_non_normalized():
    G = build_group("C:2")
    bad = [[1, 0], [0, 0]]
    rep = verify(G, 2, bad)
    assert not rep["is_cocycle"]


def test_verify_witness_is_exact():
    G = build_group("EA:p=2,r=2")
    rng = np.random.default_rng(7)
    g = [0] + list(rng.integers(0, 2, G.order - 1))
    vals = np.zeros((G.order, G.order), dtype=int)
    for x in range(G.order):
        for y in range(G.order):
            vals[x, y] = (g[x] + g[y] - g[G.mul(x, y)]) % 2
    rep = verify(G, 2, vals)
    assert rep["is_cocycle"] and rep["is_coboundary"]
    w = rep["witness"]
    for x in range(G.order):
        for y in range(G.order):
            assert (w[x] + w[y] - w[G.mul(x, y)]) % 2 == vals[x, y]


def test_the_tree_coboundaries_are_built_once_and_only_when_needed(monkeypatch):
    """delta(phi) and phi come from one path_counts per CoboundarySpace, and
    a cochain that vanishes off the tree after normalising needs neither."""
    calls = []
    real = cohomology.path_counts
    monkeypatch.setattr(cohomology, "path_counts", lambda tree: calls.append(1) or real(tree))
    G = build_group("D:8")
    cob = CoboundarySpace(G, 2)
    assert cob.witness(np.zeros((8, 8), dtype=np.int64)) == [0] * 8 and calls == []
    f = h2_enumerate(G, 2).representatives[1].values  # not a coboundary
    g = np.array([0, 1, 1, 0, 1, 0, 0, 1])
    bound = (g[:, None] + g[None, :] - g[G.np_table]) % 2
    for _ in range(3):
        assert cob.witness(f) is None and cob.witness(bound) is not None
    assert len(calls) == 1 and cob.dphi is cob.dphi and cob.phi is cob.phi


# -- H^2 enumeration ------------------------------------------------------------


def _brute_h2_count(G, p):
    """Independent oracle: enumerate all normalized 2-cochains directly."""
    n = G.order
    cells = [(x, y) for x in range(1, n) for y in range(1, n)]
    cocycles = []
    for bits in itertools.product(range(p), repeat=len(cells)):
        vals = np.zeros((n, n), dtype=int)
        for (x, y), v in zip(cells, bits):
            vals[x, y] = v
        ok = True
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if (vals[x, y] + vals[G.mul(x, y), z]
                            - vals[y, z] - vals[x, G.mul(y, z)]) % p:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            cocycles.append(bits)
    coboundaries = set()
    for gv in itertools.product(range(p), repeat=n - 1):
        g = [0] + list(gv)
        key = tuple((g[x] + g[y] - g[G.mul(x, y)]) % p for x, y in cells)
        coboundaries.add(key)
    return len(cocycles) // len(coboundaries)


def test_h2_c2_two_classes_vs_oracle():
    G = build_group("C:2")
    res = h2_enumerate(G, 2)
    assert res.class_count == 2
    assert res.class_count == _brute_h2_count(G, 2)


def test_h2_klein_eight_classes_vs_oracle():
    G = build_group("EA:p=2,r=2")
    res = h2_enumerate(G, 2)
    assert res.class_count == 8
    assert res.class_count == _brute_h2_count(G, 2)


def test_h2_modular_27_nine_classes():
    G = build_group("Mmod:p=3,n=3")
    res = h2_enumerate(G, 3)
    assert res.dimension == 2
    assert res.class_count == 9


def test_h2_representatives_are_inequivalent():
    G = build_group("EA:p=2,r=2")
    reps = h2_enumerate(G, 2).representatives
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not class_equal(reps[i], reps[j])


def test_h2_c4_two_classes():
    # extensions of C4 by mu_2: C8, C4 x C2 -> exactly 2 classes
    res = h2_enumerate(build_group("C:4"), 2)
    assert res.class_count == 2


# -- restriction / inflation -----------------------------------------------------


def test_restrict_zero_and_inflate_kills_kernel():
    G = build_group("D:8")
    f0 = Cocycle2(G, 2, np.zeros((8, 8), dtype=int))
    H = subgroups_of_index2(G)[0]
    assert not restrict(f0, H).values.any()
    E, Q, proj, k, f = _central_quotient_cocycle("D:8", ("sigma", 2))
    inf = inflate(f, proj)
    N = proj.kernel()
    assert not restrict(inf, N).values.any()


def test_restriction_of_q16_class_to_cyclic_is_c8_class():
    E, Q, proj, k, f = _central_quotient_cocycle("Q:16", ("sigma", 4))
    assert is_isomorphic(Q, build_group("D:8"))
    s_img = proj(E.gen("sigma"))
    H = subgroup_generated(Q, [s_img])
    resf = restrict(f, H)
    ext = extension_of_cocycle(resf)
    assert is_isomorphic(ext.extension, build_group("C:8"))
    # transported along an explicit isomorphism, the class equals the
    # factor set of the catalog tower C8 -> C4
    from pgal.groups import find_isomorphism

    E8, Q4, proj4, k4, f_c8 = _central_quotient_cocycle("C:8", ("sigma", 4))
    phi = find_isomorphism(resf.group, Q4)
    assert phi is not None
    moved = resf.transport(phi, Q4)
    assert class_equal(moved, f_c8)


# -- Tate corestriction ------------------------------------------------------------


def test_cor_of_zero_is_zero():
    G = build_group("D:8")
    H = subgroups_of_index2(G)[0]
    z = Cocycle2(H.as_group(), 2, np.zeros((4, 4), dtype=int))
    assert not corestrict_tate(z, H).values.any()


@pytest.mark.parametrize("spec", ["C:4", "EA:p=2,r=2", "D:8", "Q:8", "C:8",
                                  "C:4*C:2", "EA:p=2,r=3", "D:16", "Q:16",
                                  "SD:16", "M:16", "C:16"])
def test_cor_res_is_coboundary(spec):
    G = build_group(spec)
    reps = h2_enumerate(G, 2).representatives
    for H in subgroups_of_index2(G):
        for c in reps:
            f = corestrict_tate(restrict(c, H), H)
            assert is_coboundary(f)


def test_cor_class_independent_of_g_and_representative():
    for spec in ("C:4", "EA:p=2,r=2", "D:8", "Q:8", "C:8"):
        G = build_group(spec)
        for H in subgroups_of_index2(G):
            Hg = H.as_group()
            reps = h2_enumerate(Hg, 2).representatives
            outside = [g for g in range(G.order) if g not in H]
            for fbar in reps:
                base = corestrict_tate(fbar, H, outside[0])
                for g in outside[1:]:
                    assert class_equal(base, corestrict_tate(fbar, H, g))
                shift = _shift_by_coboundary(fbar, seed=3)
                assert class_equal(base, corestrict_tate(shift, H, outside[0]))


def _shift_by_coboundary(f, seed):
    G = f.group
    rng = np.random.default_rng(seed)
    g = [0] + list(rng.integers(0, f.p, G.order - 1))
    vals = f.values.copy()
    for x in range(G.order):
        for y in range(G.order):
            vals[x, y] = (vals[x, y] + g[x] + g[y] - g[G.mul(x, y)]) % f.p
    return Cocycle2(G, f.p, vals)


def test_corestricted_pair_construction_via_search():
    """Configurations (script-G, script-H, E4, g1) with the prescribed twist
    action satisfy cor(c2) = cor(c3) = c1."""
    configs = 0
    nontrivial = 0
    for spec in ("M:16", "D:8", "D:8*C:2", "Q:8*C:2", "D:16", "SD:16"):
        G = build_group(spec)
        for (E4, H, g1, sigma, tau) in _t52_configs(G):
            c1, c2, c3, Hq, g_img = _t52_classes(G, E4, H, g1, sigma, tau)
            configs += 1
            assert class_equal(corestrict_tate(c2, Hq, g_img), c1)
            assert class_equal(corestrict_tate(c3, Hq, g_img), c1)
            if not is_coboundary(c2) or not is_coboundary(c3):
                nontrivial += 1
    assert configs > 0
    assert nontrivial > 0


def _t52_configs(G, limit=4):
    """(E4, H, g1, sigma, tau): E4 normal Klein four inside an index-2
    centralizing subgroup, with g1 fixing sigma and sending tau to sigma*tau."""
    out = []
    invs = [x for x in range(1, G.order) if G.element_order(x) == 2]
    for a in invs:
        for b in invs:
            if b <= a or G.mul(a, b) not in invs:
                continue
            if G.mul(a, b) != G.mul(b, a):
                continue
            els = sorted({0, a, b, G.mul(a, b)})
            if len(els) != 4:
                continue
            E4 = Subgroup(G, els)
            if not E4.is_normal():
                continue
            cent = [x for x in range(G.order)
                    if all(G.mul(x, e) == G.mul(e, x) for e in els)]
            if len(cent) != G.order // 2 or any(e not in cent for e in els):
                continue
            H = Subgroup(G, cent)
            for g1 in range(G.order):
                if g1 in H:
                    continue
                ab = G.mul(a, b)
                for sigma, tau in ((a, b), (b, a), (ab, a), (ab, b), (a, ab), (b, ab)):
                    if G.conj(g1, sigma) == sigma and G.conj(g1, tau) == G.mul(sigma, tau):
                        out.append((E4, H, g1, sigma, tau))
                        break
                if len(out) >= limit:
                    return out
    return out


def _t52_classes(G, E4, H, g1, sigma, tau):
    GmodE4, projE4 = quotient(G, E4)
    himg = sorted({projE4(x) for x in H.elements})
    Hq = Subgroup(GmodE4, himg)
    g_img = projE4(g1)
    # c1: extension G/<sigma> --> G/E4 with kernel generated by the image of tau
    GmodS, projS = quotient(G, subgroup_generated(G, [sigma]))
    imgs1 = [None] * GmodS.order
    for x in range(G.order):
        z = projS(x)
        if imgs1[z] is None:
            imgs1[z] = projE4(x)
    pi1 = GroupHom(GmodS, GmodE4, tuple(imgs1))
    c1 = cocycle_of_extension(GmodS, pi1, projS(tau))
    c2 = _mid_quotient_class(G, H, Hq, projE4, killed=tau, survivor=sigma)
    c3 = _mid_quotient_class(G, H, Hq, projE4, killed=G.mul(sigma, tau), survivor=sigma)
    return c1, c2, c3, Hq, g_img


def _mid_quotient_class(G, H, Hq, projE4, killed, survivor):
    """Class of the extension H/<killed> --> H/E4, on Hq.as_group() indices."""
    Hfull = H.as_group()
    Q, proj = quotient(Hfull, subgroup_generated(Hfull, [H.local(killed)]))
    Hqg = Hq.as_group()
    imgs = [None] * Q.order
    for loc in range(Hfull.order):
        z = proj(loc)
        if imgs[z] is None:
            imgs[z] = Hq.local(projE4(H.elements[loc]))
    piQ = GroupHom(Q, Hqg, tuple(imgs))
    return cocycle_of_extension(Q, piQ, proj(H.local(survivor)))


# -- raise / lower ------------------------------------------------------------------


def test_raise_c2_base():
    G = build_group("C:2")
    f = Cocycle2(G, 2, np.zeros((2, 2), dtype=int))
    E = extension_of_cocycle(f)
    raised = raise_lower(E, "sigma", 2, "raise")
    assert is_isomorphic(raised.extension, build_group("C:4"))
    back = raise_lower(raised, "sigma", 2, "lower")
    assert np.array_equal(back.cocycle.values, f.values)


def test_raise_d8_gives_q8():
    E, Q, proj, k, f = _central_quotient_cocycle("D:8", ("sigma", 2))
    # base group Q = C2 x C2 with generators sigma, tau images
    ext = extension_of_cocycle(f)
    raised = raise_lower(ext, proj(build_group("D:8").gen("tau")) if False else _gen_image(E, proj, "tau"), 2, "raise")
    assert is_isomorphic(raised.extension, build_group("Q:8"))


def _gen_image(E, proj, name):
    return proj(E.gen(name))


def test_raise_d16_gives_q16_and_lower_inverts():
    E, Q, proj, k, f = _central_quotient_cocycle("D:16", ("sigma", 4))
    ext = extension_of_cocycle(f)
    t_img = _gen_image(E, proj, "tau")
    raised = raise_lower(ext, t_img, 2, "raise")
    assert is_isomorphic(raised.extension, build_group("Q:16"))
    back = raise_lower(raised, t_img, 2, "lower")
    assert np.array_equal(back.cocycle.values, ext.cocycle.values)


def test_raise_wrong_direction_errors():
    G = build_group("C:2")
    f = Cocycle2(G, 2, np.zeros((2, 2), dtype=int))
    E = extension_of_cocycle(f)
    with pytest.raises(PreimageOrderMismatch):
        raise_lower(E, "sigma", 2, "lower")


def test_cyclic_raise_identity_on_cyclic_tower():
    """c_{C8} = c_{C4xC2 ext} + inflated carry class over C4."""
    E, Q, proj, k, f8 = _central_quotient_cocycle("C:8", ("sigma", 4))
    split = Cocycle2(Q, 2, np.zeros((4, 4), dtype=int))
    Esplit = extension_of_cocycle(split)
    raised = raise_lower(Esplit, proj(E.gen("sigma")), 3, "raise")
    assert is_isomorphic(raised.extension, build_group("C:8"))
    assert class_equal(raised.cocycle, f8)


# -- diagonal lemma, exponent proposition, corestriction image search ----------------


def test_lift_order_diag_examples():
    G = build_group("C:2")
    split = Cocycle2(G, 2, np.zeros((2, 2), dtype=int))
    assert lift_order_diag(split, 1) == {"value": 0, "lifted_order": 2}
    E, Q, proj, k, f = _central_quotient_cocycle("C:4", ("sigma", 2))
    assert lift_order_diag(f, 1) == {"value": 1, "lifted_order": 4}
    E, Q, proj, k, fq = _central_quotient_cocycle("Q:8", ("sigma", 2))
    for z in range(1, Q.order):
        assert lift_order_diag(fq, z) == {"value": 1, "lifted_order": 4}


def test_prop54_inequality_and_part2():
    G = build_group("D:8")
    for H in subgroups_of_index2(G):
        Hg = H.as_group()
        g = min(x for x in range(G.order) if x not in H)
        for fbar in h2_enumerate(Hg, 2).representatives:
            rep = prop54_report(G, H, g, fbar)
            assert rep["ineq_holds"]
            if rep["part2_applicable"]:
                assert rep["part2_holds"]


def test_prop54_zero_cocycle_matches_split_exponent():
    G = build_group("D:8")
    H = subgroups_of_index2(G)[0]
    Hg = H.as_group()
    z = Cocycle2(Hg, 2, np.zeros((H.order, H.order), dtype=int))
    rep = prop54_report(G, H, min(x for x in range(G.order) if x not in H), z)
    from pgal.groups import direct_product
    split_exp = direct_product(build_group("C:2"), Hg).exponent()
    assert rep["expH1"] == split_exp


def test_a5_from_a_bare_table_keeps_its_dimensions():
    """A table that is not a p-group goes through a Sylow subgroup:
    H^2(A5, F_p) is F_2, 0, 0 at p = 2, 3, 5 (the Schur multiplier is C_2
    and A5 is perfect)."""
    def even(q):
        return sum(q[i] > q[j] for i in range(5) for j in range(i + 1, 5)) % 2 == 0
    perms = [q for q in itertools.permutations(range(5)) if even(q)]
    idx = {q: i for i, q in enumerate(perms)}
    table = [[idx[tuple(b[a[k]] for k in range(5))] for b in perms] for a in perms]
    A5 = Group.from_json({"order": 60, "table": table})
    assert A5.pc is None
    assert [h2_enumerate(A5, p).dimension for p in (2, 3, 5)] == [1, 0, 0]


def test_a_group_file_without_generators_is_checked_on_its_walk():
    """Group.from_json names every element of a file without generators; the
    cocycle identity is checked on the kept generators of the Cayley walk,
    not on all 511 names."""
    G = build_group("D:512")
    bare = Group.from_json({"order": G.order, "table": G.table})
    assert len(bare.generators) == 511 and len(bare.tree()[0]) == 2
    f = h2_enumerate(G, 2).representatives[-1].values
    broken = f.copy()
    broken[1, 2] ^= 1
    for values, want in ((f, (True, False)), (broken, (False, False))):
        start = time.perf_counter()
        got = verify(bare, 2, values)
        assert time.perf_counter() - start < 1.0
        assert got == verify(G, 2, values)
        assert (got["is_cocycle"], got["is_coboundary"]) == want


def test_error_paths():
    from pgal.errors import (
        BadIndexSubgroup,
        GInH,
        IdentityElement,
        KernelNotPrime,
        NotACocycle,
        PrimeMismatch,
        QuotientConditionFails,
        TargetMismatch,
        TooLarge,
    )

    G = build_group("D:8")
    H = subgroups_of_index2(G)[0]
    z = Cocycle2(H.as_group(), 2, np.zeros((4, 4), dtype=int))
    with pytest.raises(GInH):
        corestrict_tate(z, H, g=0)
    z3 = Cocycle2(H.as_group(), 3, np.zeros((4, 4), dtype=int))
    with pytest.raises(PrimeMismatch):
        corestrict_tate(z3, H)
    C8 = build_group("C:8")
    quarter = Subgroup(C8, [0, 4])
    zq = Cocycle2(quarter.as_group(), 2, np.zeros((2, 2), dtype=int))
    with pytest.raises(BadIndexSubgroup):
        corestrict_tate(zq, quarter)
    with pytest.raises(NotACocycle):
        Cocycle2(G, 2, np.ones((8, 8), dtype=int))
    # kernel checks in factor-set extraction
    V, proj = quotient(G, subgroup_generated(G, [G.power(G.gen("sigma"), 2)]))
    with pytest.raises(KernelNotPrime):
        cocycle_of_extension(G, proj, G.gen("tau"))
    Q8 = build_group("Q:8")
    Vq, projq = quotient(Q8, Q8.center())
    E4 = build_group("EA:p=2,r=2")
    proj4 = GroupHom(E4, build_group("C:2"), (0, 1, 0, 1))
    with pytest.raises(KernelNotPrime):
        cocycle_of_extension(E4, proj4, 1)  # kernel has order 2 but gen wrong
    # maps and subgroups that belong to another group
    with pytest.raises(TargetMismatch, match="must start at the extension group"):
        cocycle_of_extension(Q8, proj, G.gen("tau"))
    with pytest.raises(TargetMismatch, match="does not live in the cocycle's group"):
        restrict(Cocycle2(Q8, 2, np.zeros((8, 8), dtype=int)), H)
    with pytest.raises(TargetMismatch, match="does not carry the cocycle"):
        inflate(z, projq)
    # raise/lower misuse
    f = Cocycle2(build_group("C:2"), 2, np.zeros((2, 2), dtype=int))
    E = extension_of_cocycle(f)
    with pytest.raises(QuotientConditionFails):
        raise_lower(E, "sigma", 3, "raise")
    with pytest.raises(QuotientConditionFails):
        raise_lower(E, "sigma", 2, "sideways")
    with pytest.raises(IdentityElement):
        lift_order_diag(f, 0)
    # the corestriction-image search is one solve per subgroup, with no
    # order cap of its own: the zero class of D:32 is a hit
    D32 = build_group("D:32")
    H32, fbar = cor_image_search(D32, Cocycle2(D32, 2, np.zeros((32, 32), dtype=int)))
    assert is_coboundary(corestrict_tate(fbar, H32))
    with pytest.raises(PrimeMismatch):
        cor_image_search(D32, Cocycle2(D32, 3, np.zeros((32, 32), dtype=int)))
    # a target on another group is refused, not answered "not a corestriction"
    V4 = build_group("EA:p=2,r=2")
    for other in (build_group("EA:p=2,r=2"), build_group("C:4")):
        with pytest.raises(TargetMismatch, match="does not live on the group searched"):
            cor_image_search(V4, Cocycle2(other, 2, np.zeros((4, 4), dtype=int)))
    # every table answers: C:128 through its presentation, and a bare D:128
    # (refused by the spanning tree's caps before) through one read off its
    # table; C:1024 at p = 5 has H^2 = 0, from the catalog or as a bare table
    assert h2_enumerate(build_group("C:128"), 2).dimension == 1
    C1024 = build_group("C:1024")
    for G in (C1024, Group(C1024.np_table, C1024.generators)):
        res = h2_enumerate(G, 5)
        assert (res.dimension, res.class_count, res.complete) == (0, 1, True)
        assert not res.representatives[0].values.any()
    D128 = build_group("D:128")
    assert h2_enumerate(Group(D128.np_table, D128.generators), 2).dimension == 3
    # the extension is still built as a table, under the cap
    with pytest.raises(TooLarge, match="extension order 5120 exceeds cap 4096"):
        extension_of_cocycle(h2_enumerate(C1024, 5).representatives[0])


def test_values_that_are_not_integers_make_no_cocycle():
    from pgal.errors import NotACocycle

    # a cast would read each of these as the cocycle [[0, 0], [0, 1]] of C2
    C2 = build_group("C:2")
    for values in ([[0, 0], [0, 1.7]], [[0, 0], [0, True]], np.array([[0, 0], [0, 1.5]]),
                   [[0, 0], [0, "1"]]):
        with pytest.raises(NotACocycle):
            Cocycle2(C2, 2, values)
        assert verify(C2, 2, values) == {"is_cocycle": False, "is_coboundary": False,
                                         "witness": None}
    assert verify(C2, 2, [[0, 0], [0, np.int64(1)]])["is_cocycle"]
    assert Cocycle2(C2, 2, np.array([[0, 0], [0, 1]], dtype=np.uint8)).values.tolist() == [
        [0, 0], [0, 1]]


def test_values_beyond_64_bits_are_read_mod_p():
    # values are exponents of zeta: 2^70 + 1 is 1 mod 2, and 3^50 k + v is v mod 3
    rng = np.random.default_rng(11)
    for spec, p, lift in (("D:8", 2, lambda v, k: v * k * (2 ** 70 + 1)),
                          ("C:9", 3, lambda v, k: v + k * 3 ** 50)):
        G = build_group(spec)
        for f in h2_enumerate(G, p).representatives:
            signs = rng.choice([-1, 1], size=(G.order, G.order))
            small = (f.values * signs if p == 2 else f.values).tolist()
            big = [[lift(v, int(k)) for v, k in zip(row, krow)]
                   for row, krow in zip(small, signs.tolist())]
            assert max(abs(v) for row in big for v in row) > 2 ** 64 or not f.values.any()
            assert verify(G, p, big) == verify(G, p, small), spec
            assert np.array_equal(Cocycle2(G, p, big).values, f.values), spec
    # an unsigned array is reduced before the cast too, which would read 3^40 as 3^40 - 2^64
    C3 = build_group("C:3")
    wide = np.zeros((3, 3), dtype=np.uint64)
    wide[1, 1] = 3 ** 40
    assert not Cocycle2(C3, 3, wide).values.any()
    assert verify(C3, 3, wide) == verify(C3, 3, np.zeros((3, 3), dtype=np.int64))


def test_noncentral_kernel_rejected():
    """S3 over C2 has a prime kernel that is normal but not central."""
    from itertools import permutations

    from pgal.errors import KernelNotCentral
    from pgal.groups import Group

    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(q[p[k]] for k in range(3))] for q in perms] for p in perms]
    S3 = Group(table, [("r", 1), ("s", 3)])
    Q, proj = quotient(S3, subgroup_generated(S3, [1]))
    assert Q.order == 2
    with pytest.raises(KernelNotCentral):
        cocycle_of_extension(S3, proj, 1)


@pytest.mark.parametrize("spec", ["Q:32", "D:32", "SD:32", "M:32"])
def test_order_32_families_not_corestrictions(spec):
    E = build_group(spec)
    s = E.gen("sigma")
    k = E.power(s, 8)
    Q, proj = quotient(E, subgroup_generated(E, [k]))
    target = cocycle_of_extension(E, proj, k)
    assert cor_image_search(Q, target) is None


def test_cor_image_search_zero_has_witness():
    G = build_group("EA:p=2,r=2")
    z = Cocycle2(G, 2, np.zeros((4, 4), dtype=int))
    hit = cor_image_search(G, z)
    assert hit is not None
    H, fbar = hit
    assert is_coboundary(corestrict_tate(fbar, H))


def test_cor_image_search_finds_c4_class():
    # C8 over C4 is the corestriction of the C4-over-C2 class along C2 < C4?
    # regardless of provenance, search must decide membership consistently
    E, Q, proj, k, f = _central_quotient_cocycle("C:4", ("sigma", 2))
    hit = cor_image_search(Q, f)
    if hit is not None:
        H, fbar = hit
        assert class_equal(corestrict_tate(fbar, H), f)


def _loop_factor_set(E, proj, k):
    """The element-by-element factor set cocycle_of_extension used to compute."""
    F = proj.target
    powers, x = [], 0
    for _ in range(E.order // F.order):
        powers.append(x)
        x = E.mul(x, k)
    kpow = {e: j for j, e in enumerate(powers)}
    section = [min(x for x in range(E.order) if proj(x) == z) for z in range(F.order)]
    return [[kpow[E.mul(E.mul(section[a], section[b]), E.inv(section[F.mul(a, b)]))]
             for b in range(F.order)] for a in range(F.order)]


@pytest.mark.parametrize("spec,p", [("D:32", 2), ("Q:16*C:2", 2), ("C:27", 3),
                                    ("Mmod:p=3,n=3", 3), ("G1:p=3", 3)])
def test_factor_sets_match_the_element_loop(spec, p):
    res = h2_enumerate(build_group(spec), p)
    for rep in res.representatives[:4]:
        ext = extension_of_cocycle(rep)
        f = cocycle_of_extension(ext.extension, ext.proj, ext.kernel_gen)
        assert f.values.tolist() == _loop_factor_set(ext.extension, ext.proj, ext.kernel_gen)
        assert class_equal(f, rep)
    E, Q, proj, k, f = _central_quotient_cocycle("D:64", ("sigma", 16))
    assert f.values.tolist() == _loop_factor_set(E, proj, k)


def test_factor_set_errors_name_the_failure():
    from pgal.errors import KernelNotCentral, TargetMismatch
    from pgal.groups import Group

    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    idx = {p: i for i, p in enumerate(perms)}
    S3 = Group([[idx[tuple(q[p[k]] for k in range(3))] for q in perms] for p in perms],
               [("r", 1), ("s", 3)])
    _, proj = quotient(S3, subgroup_generated(S3, [1]))
    with pytest.raises(KernelNotCentral) as exc:
        cocycle_of_extension(S3, proj, 1)
    assert exc.value.detail == "kernel generator fails to commute with element 3"
    C4 = build_group("C:4")
    doubling = GroupHom(C4, C4, (0, 2, 0, 2))
    with pytest.raises(TargetMismatch):
        cocycle_of_extension(C4, doubling, 2)


def test_transport_refuses_a_map_that_is_not_a_bijection():
    C2, C4 = build_group("C:2"), build_group("C:4")
    zero = np.zeros((4, 4), dtype=np.int64)
    for f, images, target in ((Cocycle2(C4, 2, zero), (0, 1, 0, 1), C2),
                              (Cocycle2(C2, 2, zero[:2, :2]), (0, 2), C4)):
        with pytest.raises(RelationInconsistent, match="not a bijection"):
            f.transport(images, target)
    with pytest.raises(RelationInconsistent, match="not multiplicative"):
        Cocycle2(C4, 2, zero).transport((0, 3, 1, 2), C4)
