"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time budget is asserted here, nothing is
deferred to later calibration.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from pgal.autoreal import default_graph, gen_count_necessary, implies, reverse_known_false
from pgal.catalog import build_group
from pgal.cohomology import (
    Cocycle2,
    class_equal,
    cocycle_of_extension,
    cor_image_search,
    corestrict_tate,
    extension_of_cocycle,
    h2_enumerate,
    inflate,
    is_coboundary,
    prop54_report,
    raise_lower,
    restrict,
)
from pgal.fpmodules import (
    INFINITE,
    FpGModule,
    NormData,
    count_solutions,
    delta,
    p_binomial,
    solvable,
)
from pgal.groups import (
    GroupHom,
    is_isomorphic,
    quotient,
    subgroup_generated,
    subgroups_of_index2,
)
from pgal.kummer import norm_element, ring_one, sigma_minus_one, theta_operator
from pgal.obstructions import (
    DirectFactorInput,
    LedetInput,
    MassyInput,
    direct_factor,
    ledet_product,
    massy,
    obstruction_c4,
    obstruction_cp2,
    relate_raise_lower,
)
from pgal.symbols import (
    hilbert_local,
    ind,
    rat,
    relevant_places,
    splits_over_Q,
    symbol,
    trivial,
)

SECTION5_AND_7_SPECS = [
    "D:8", "D:16", "D:32", "D:64",
    "Q:8", "Q:16", "Q:32", "Q:64",
    "SD:16", "SD:32", "SD:64",
    "M:16", "M:32", "M:64",
    "G1:p=3", "G2:p=3", "Mmod:p=3,n=3", "C:4", "C:9",
]

_types_cache = []


def _all_2groups_up_to_16():
    """One group per isomorphism type of order 2, 4, 8, 16.

    Every order-16 2-group is a central extension of an order-8 group by
    mu_2, so sweeping the extension classes of the five order-8 types and
    deduplicating by table isomorphism enumerates all fourteen types.
    """
    if _types_cache:
        return list(_types_cache)
    types = [build_group("C:2"), build_group("C:4"), build_group("EA:p=2,r=2")]
    order8 = [build_group(s) for s in ("C:8", "C:4*C:2", "EA:p=2,r=3", "D:8", "Q:8")]
    types.extend(order8)
    sixteen = []
    for H8 in order8:
        for rep in h2_enumerate(H8, 2).representatives:
            E = extension_of_cocycle(rep).extension
            if not any(is_isomorphic(E, X) for X in sixteen):
                sixteen.append(E)
    assert len(sixteen) == 14
    types.extend(sixteen)
    _types_cache.extend(types)
    return list(types)


def test_criterion_01_catalog_integrity():
    start = time.time()
    for spec in SECTION5_AND_7_SPECS:
        G = build_group(spec)          # constructor runs the full checks <= 64
        assert G.order <= 64
        fam = spec.split(":")[0]
        if fam in ("D", "Q", "SD", "M"):
            s, t = G.gen("sigma"), G.gen("tau")
            m = G.order // 2
            assert G.element_order(s) == m
            if fam == "D":
                assert G.element_order(t) == 2
                assert G.mul(t, s) == G.mul(G.power(s, -1), t)
            elif fam == "SD":
                assert G.element_order(t) == 2
                assert G.mul(t, s) == G.mul(G.power(s, m // 2 - 1), t)
            elif fam == "Q":
                assert G.power(t, 2) == G.power(s, m // 2)
                assert G.mul(t, s) == G.mul(G.power(s, -1), t)
            else:
                assert G.element_order(t) == 2
                assert G.mul(t, s) == G.mul(G.power(s, m // 2 + 1), t)
            # the cyclic subgroup <sigma> has index 2
            assert subgroup_generated(G, [s]).index() == 2
        elif fam == "G1":
            g1, g2, g3 = G.gen("g1"), G.gen("g2"), G.gen("g3")
            assert G.mul(g1, g2) == G.mul(G.mul(g2, g1), g3)
            assert all(G.mul(g3, x) == G.mul(x, g3) for x in range(G.order))
        elif fam == "G2":
            g1, g2 = G.gen("g1"), G.gen("g2")
            assert G.mul(g1, g2) == G.mul(g2, G.power(g1, 4))
        elif fam == "Mmod":
            a, b = G.gen("alpha"), G.gen("beta")
            assert G.mul(b, a) == G.mul(G.power(a, 4), b)
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1: PASS - catalog integrity for {len(SECTION5_AND_7_SPECS)} "
          f"groups in {elapsed:.2f}s")


def _brute_h2_count(G, p):
    """Independent oracle: enumerate every normalized 2-cochain."""
    n = G.order
    cells = [(x, y) for x in range(1, n) for y in range(1, n)]
    n_cocycles = 0
    for bits in itertools.product(range(p), repeat=len(cells)):
        vals = np.zeros((n, n), dtype=int)
        for (x, y), v in zip(cells, bits):
            vals[x, y] = v
        ok = all(
            (vals[x, y] + vals[G.mul(x, y), z] - vals[y, z] - vals[x, G.mul(y, z)]) % p == 0
            for x in range(n) for y in range(n) for z in range(n))
        if ok:
            n_cocycles += 1
    cob = set()
    for gv in itertools.product(range(p), repeat=n - 1):
        g = [0] + list(gv)
        cob.add(tuple((g[x] + g[y] - g[G.mul(x, y)]) % p for x, y in cells))
    return n_cocycles // len(cob)


def test_criterion_02_h2_counts():
    start = time.time()
    C2 = build_group("C:2")
    assert h2_enumerate(C2, 2).class_count == 2 == _brute_h2_count(C2, 2)
    V4 = build_group("EA:p=2,r=2")
    assert h2_enumerate(V4, 2).class_count == 8 == _brute_h2_count(V4, 2)
    M27 = build_group("Mmod:p=3,n=3")
    assert h2_enumerate(M27, 3).class_count == 9
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 2: PASS - H^2 counts (2, 8, 9) in {elapsed:.2f}s")


def test_criterion_03_tate_corestriction_laws():
    start = time.time()
    total = 0
    groups = _all_2groups_up_to_16()
    for G in groups:
        reps = h2_enumerate(G, 2).representatives
        subs = subgroups_of_index2(G)
        for H in subs:
            for c in reps:
                f = corestrict_tate(restrict(c, H), H)
                assert is_coboundary(f)
                total += 1
        if G.order <= 8:
            for H in subs:
                Hg = H.as_group()
                hreps = h2_enumerate(Hg, 2).representatives
                outside = [g for g in range(G.order) if g not in H]
                for fbar in hreps:
                    base = corestrict_tate(fbar, H, outside[0])
                    for g in outside[1:]:
                        assert class_equal(base, corestrict_tate(fbar, H, g))
                    shifted = _coboundary_shift(fbar, seed=G.order + len(hreps))
                    assert class_equal(base, corestrict_tate(shifted, H, outside[0]))
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"ACCEPTANCE 3: PASS - cor(res(c)) coboundary on {total} instances over "
          f"all {len(groups)} types of order <= 16, independence checked, "
          f"in {elapsed:.2f}s")


def _coboundary_shift(f, seed):
    rng = random.Random(seed)
    G = f.group
    g = [0] + [rng.randrange(f.p) for _ in range(G.order - 1)]
    vals = f.values.copy()
    for x in range(G.order):
        for y in range(G.order):
            vals[x, y] = (vals[x, y] + g[x] + g[y] - g[G.mul(x, y)]) % f.p
    return Cocycle2(G, f.p, vals)


def test_criterion_04_prop55_not_corestrictions():
    start = time.time()
    for spec in ("Q:16", "D:16", "SD:16", "M:16"):
        E = build_group(spec)
        s = E.gen("sigma")
        N = subgroup_generated(E, [E.power(s, 4)])
        Q, proj = quotient(E, N)
        target = cocycle_of_extension(E, proj, E.power(s, 4))
        assert cor_image_search(Q, target) is None
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"ACCEPTANCE 4: PASS - Q16/D16/SD16/M16 classes are not corestrictions "
          f"({elapsed:.2f}s)")


def _class_invariants(f):
    """Exact invariants of the class of f in H^2(H, F_2), as bytes.

    f(x, y) - f(y, x) on commuting pairs and f(x, x) on involutions do not
    change when a coboundary g(x) + g(y) - g(xy) is added, so only cocycles
    with equal invariants need the class_equal test.
    """
    T, F = f.group.np_table, f.values
    return ((F - F.T) % 2)[T == T.T].tobytes() + np.diag(F)[np.diag(T) == 0].tobytes()


def test_criterion_05_prop54_exponent_laws():
    start = time.time()
    checked = 0
    part2 = 0
    for G in _all_2groups_up_to_16():
        reps = h2_enumerate(G, 2).representatives
        for H in subgroups_of_index2(G):
            g = min(x for x in range(G.order) if x not in H)
            seen: dict = {}
            for c in reps:
                fbar = restrict(c, H)
                bucket = seen.setdefault(_class_invariants(fbar), [])
                if any(class_equal(fbar, s) for s in bucket):
                    continue
                bucket.append(fbar)
                rep = prop54_report(G, H, g, fbar)
                assert rep["ineq_holds"]
                checked += 1
                if rep["part2_applicable"]:
                    assert rep["part2_holds"]
                    part2 += 1
    elapsed = time.time() - start
    assert part2 > 0
    print(f"ACCEPTANCE 5: PASS - exponent inequality on {checked} corestriction "
          f"instances, part (2) on {part2}, in {elapsed:.2f}s")


def test_criterion_06_hilbert_brauer_correctness():
    start = time.time()
    rng = random.Random(1234)
    for _ in range(200):
        a = Fraction(rng.randint(-10**4, 10**4) or 7, rng.randint(1, 99))
        b = Fraction(rng.randint(-10**4, 10**4) or 11, rng.randint(1, 99))
        prod = 1
        for place in relevant_places([a, b]):
            prod *= hilbert_local(a, b, place)
        assert prod == 1
    assert splits_over_Q(symbol(rat(2), rat(-1), 2))
    assert not splits_over_Q(symbol(rat(-1), rat(-1), 2))
    assert not splits_over_Q(symbol(rat(3), rat(-1), 2))
    verdicts = {a: splits_over_Q(obstruction_c4(rat(a))) for a in (2, 3, 5, 6, 7, 10)}
    assert verdicts == {2: True, 5: True, 10: True, 3: False, 6: False, 7: False}
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 6: PASS - Hilbert product formula and C4 criterion "
          f"({elapsed:.2f}s)")


def _catalog_pair_base(g1_spec, kernel_name, kernel_pow):
    E = build_group(g1_spec)
    k = E.power(E.gen(kernel_name), kernel_pow)
    N = subgroup_generated(E, [k])
    Q, proj = quotient(E, N)
    return E, Q, proj, cocycle_of_extension(E, proj, k)


def test_criterion_07_formula_engines():
    # massy(n=1, d11=1) == obstruction_cp2
    for p in (2, 3, 5):
        for a in (rat(2), rat(7), ind("a1")):
            assert massy(MassyInput(p, [a], {(1, 1): 1})) == obstruction_cp2(a, p)
    # ledet with one-generator factor N degenerates to the direct-factor shape
    for p in (2, 3):
        a = [ind("a1"), ind("a2")]
        led = ledet_product(LedetInput(p, None, None, a=a, b=[ind("b")],
                                       d={(1, 1): 1, (2, 1): p - 1}))
        dfa = direct_factor(DirectFactorInput(p, None, b=ind("b"), j=0,
                                              a=a, d=[1, p - 1]))
        assert led == dfa
    # relate_raise_lower mirrors the product of classes
    o = relate_raise_lower(symbol(rat(2), rat(-1), 2), symbol(rat(3), rat(-1), 2))
    assert splits_over_Q(o) == splits_over_Q(symbol(rat(6), rat(-1), 2))
    assert relate_raise_lower(obstruction_c4(ind("a")), trivial(2)) == obstruction_c4(ind("a"))

    # cocycle-level identity c_G2 = c_G1 + inf(c_cyclic) on catalog pairs <= 32
    pairs = [
        ("D:8", "Q:8", "tau", 2, ("sigma", 2)),
        ("D:16", "Q:16", "tau", 2, ("sigma", 4)),
        ("D:32", "Q:32", "tau", 2, ("sigma", 8)),
    ]
    for g1_spec, g2_spec, sigma1, n_exp, (kname, kpow) in pairs:
        E, Q, proj, c1 = _catalog_pair_base(g1_spec, kname, kpow)
        ext1 = extension_of_cocycle(c1)
        s1_img = proj(E.gen(sigma1))
        raised = raise_lower(ext1, s1_img, n_exp, "raise")
        assert is_isomorphic(raised.extension, build_group(g2_spec))
    # cyclic towers: split class + carry = cyclic class, including class equality
    for spec, m in (("C:4", 2), ("C:8", 4), ("C:16", 8), ("C:32", 16)):
        E, Q, proj, c_cyc = _catalog_pair_base(spec, "sigma", m)
        split = Cocycle2(Q, 2, np.zeros((m, m), dtype=int))
        raised = raise_lower(extension_of_cocycle(split), proj(E.gen("sigma")),
                             m.bit_length(), "raise")
        assert is_isomorphic(raised.extension, build_group(spec))
        assert class_equal(raised.cocycle, c_cyc)
    print("ACCEPTANCE 7: PASS - engine agreements and the raise/lower cocycle identity")


def test_criterion_08_group_ring_identities():
    start = time.time()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        lhs = sigma_minus_one(p).mul(theta_operator(p))
        assert lhs == norm_element(p).sub(ring_one(p).scale(p))
    for p in (2, 3, 5, 7, 11, 13):
        assert sigma_minus_one(p).pow(p - 1).mod(p) == norm_element(p).mod(p)
        assert sigma_minus_one(p).pow(p).mod(p).is_zero()
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 8: PASS - group-ring identities ({elapsed:.3f}s)")


def test_criterion_09_schultz_machinery():
    A = FpGModule(3, 1, {3: 1})
    assert [delta(A, i) for i in (1, 2, 3, 4)] == [1, 1, 1, 0]
    # solvable iff the top norm dimension is positive
    assert solvable(A, NormData.from_levels(3, 1, [2, 1], i_invariant=0))
    assert not solvable(A, NormData.from_levels(3, 1, [2, 0], i_invariant=0))
    for p in (2, 3, 5):
        for n in range(1, 11):
            for m in range(0, 11):
                assert p_binomial(n, m, p) == (
                    p_binomial(n - 1, m, p) + p ** (n - m) * p_binomial(n - 1, m - 1, p))
    nd_inf = NormData.from_levels(3, 1, [2, 2], i_invariant=0, base_quotient_finite=False)
    assert count_solutions(A, nd_inf) is INFINITE
    nd_fin = NormData.from_levels(3, 1, [2, 2], i_invariant=0)
    assert count_solutions(A, nd_fin) == 12
    rng = random.Random(99)
    for _ in range(40):
        p, n = rng.choice([(2, 1), (3, 1), (2, 2)])
        d = {rng.randint(1, p ** n): rng.randint(1, 2)}
        B = FpGModule(p, n, d)
        margin = delta(B, 1) + 1
        nd = NormData.from_levels(p, n, [margin] * (n + 1))
        assert solvable(B, nd)
        assert count_solutions(B, nd) >= 1
    print("ACCEPTANCE 9: PASS - delta/solvable/count and the p-binomial oracle")


def test_criterion_10_autoreal_database():
    res = implies("Q:8", "D:8")
    assert res["holds"] is True and res["path"]
    res2 = implies("C:4", "C:16")
    assert res2["holds"] is True and res2["path"]
    assert reverse_known_false("G2:p=3", "G1:p=3")
    assert reverse_known_false("G4:p=3", "G3:p=3")
    g = default_graph()
    for e in g.edges:
        assert gen_count_necessary(e.src, e.dst, graph=g)
    print("ACCEPTANCE 10: PASS - automatic-realization database checks")
