"""Obstruction engines against the stated formulas and their cross-checks."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgal.errors import BadFamily, BadVariant, PrimeMismatch, ZeroEntry
from pgal.obstructions import (
    DiagonalForm,
    DirectFactorInput,
    LedetInput,
    MassyInput,
    discriminant,
    direct_factor,
    double_cover_twist,
    frohlich_obstruction,
    g_family_obstruction,
    hasse_witt,
    ledet_product,
    massy,
    modular_obstruction,
    obstruction_c4,
    obstruction_cp2,
    relate_raise_lower,
)
from pgal.symbols import (
    SymbolProduct,
    ind,
    one,
    opaque_class,
    rat,
    splits_over_Q,
    symbol,
    trivial,
    zeta,
)
from test_symbols import SEMIPRIME_60, UNFACTORED, _entries, _products


def test_c4_obstruction_examples():
    assert splits_over_Q(obstruction_c4(rat(2)))
    assert obstruction_c4(one()).is_trivial_form()
    assert not splits_over_Q(obstruction_c4(rat(3)))


def test_c4_sum_of_two_squares_sweep():
    verdicts = {a: splits_over_Q(obstruction_c4(rat(a))) for a in (2, 3, 5, 6, 7, 10)}
    assert verdicts == {2: True, 3: False, 5: True, 6: False, 7: False, 10: True}


def test_cp2_obstruction():
    assert splits_over_Q(obstruction_cp2(rat(2), 2))
    s = obstruction_cp2(ind("a1"), 3)
    assert len(s.factors) == 1
    assert obstruction_cp2(one(), 3).is_trivial_form()


def test_massy_empty_and_substitution():
    data = MassyInput(2, [ind("a1"), ind("a2")])
    assert massy(data).is_trivial_form()
    data2 = MassyInput(2, [ind("a1"), ind("a2")], {(1, 2): 1})
    assert massy(data2) == symbol(ind("a1"), ind("a2"), 2)


def test_massy_diag_matches_cp2():
    for p in (2, 3, 5):
        for a in (rat(2), rat(7), ind("a")):
            m = massy(MassyInput(p, [a], {(1, 1): 1}))
            assert m == obstruction_cp2(a, p)


def test_direct_factor_examples():
    d0 = DirectFactorInput(3, "K,H,res", b=ind("b"))
    out = direct_factor(d0)
    assert out.opaque == (("K,H,res", 1),) and not out.factors
    d1 = DirectFactorInput(2, None, b=ind("a"), j=1)
    assert direct_factor(d1) == obstruction_c4(ind("a"))
    d2 = DirectFactorInput(3, "res", b=ind("b"), j=0, a=[ind("a1")], d=[2])
    out2 = direct_factor(d2)
    assert out2.opaque == (("res", 1),)
    assert out2.factors == symbol(ind("b"), ind("a1"), 3).pow(2).factors


def test_ledet_degenerates_to_direct_factor():
    # N = C_p with generator t: ledet with m x 1 data equals direct_factor with j=0
    a = [ind("a1"), ind("a2")]
    dd = {(1, 1): 1, (2, 1): 2}
    led = ledet_product(LedetInput(3, None, None, a=a, b=[ind("b")], d=dd))
    dfa = direct_factor(DirectFactorInput(3, None, b=ind("b"), j=0, a=a, d=[1, 2]))
    assert led == dfa


def test_ledet_trivial_and_single():
    led = ledet_product(LedetInput(3, "rN", "rH"))
    assert led.opaque == (("rH", 1), ("rN", 1))
    led2 = ledet_product(LedetInput(2, None, None, a=[rat(3)], b=[rat(5)], d={(1, 1): 1}))
    assert led2 == symbol(rat(5), rat(3), 2)


def test_relate_raise_lower():
    o1 = obstruction_c4(ind("a"))
    assert relate_raise_lower(o1, trivial(2)) == o1
    assert relate_raise_lower(o1, o1).is_trivial_form()
    o2 = relate_raise_lower(symbol(rat(2), rat(-1), 2), symbol(rat(3), rat(-1), 2))
    assert not splits_over_Q(o2)
    with pytest.raises(PrimeMismatch):
        relate_raise_lower(trivial(2), trivial(3))


def test_modular_variants():
    s = modular_obstruction("1z", 2, 4, rat(2), rat(3))
    assert splits_over_Q(s) == splits_over_Q(symbol(rat(3), rat(2), 2))
    z1 = modular_obstruction("z1", 2, 4, rat(7), rat(2))
    assert splits_over_Q(z1)    # (2, -1) splits
    m = modular_obstruction("M", 2, 4, ind("a1"), ind("a2"))
    assert m.opaque and len(m.factors) == 1
    zz = modular_obstruction("zz", 3, 3, ind("a1"), ind("a2"))
    assert zz == symbol(ind("a1"), ind("a2"), 3).mul(symbol(zeta(3), ind("a2"), 3))
    with pytest.raises(BadVariant):
        modular_obstruction("1z", 3, 2, rat(2), rat(3))
    with pytest.raises(BadVariant):
        modular_obstruction("nope", 3, 3, rat(2), rat(3))


def test_g_family_variants():
    from pgal.symbols import elem_neg

    g3 = g_family_obstruction("G3", 2, rat(2), rat(-1))
    assert splits_over_Q(g3)    # (-1, 2) splits
    g4 = g_family_obstruction("G4", 2, ind("a1"), ind("a2"))
    assert g4 == symbol(ind("a2"), elem_neg(ind("a1")), 2)
    g5o = g_family_obstruction("G5", 3, ind("a1"), ind("a2"))
    assert g5o.opaque
    g5z = g_family_obstruction("G5", 3, ind("a1"), ind("a2"), zeta_p2_in_k=True)
    assert not g5z.opaque and len(g5z.factors) == 1
    with pytest.raises(BadFamily):
        g_family_obstruction("G6", 3, rat(2), rat(3))


def test_g4_is_a2_minus_a1_for_p2():
    g4 = g_family_obstruction("G4", 2, rat(3), rat(5))
    assert g4 == symbol(rat(5), rat(-3), 2)


def test_hasse_witt_and_discriminant():
    assert hasse_witt(DiagonalForm([one(), one(), one()])).is_trivial_form()
    neg = hasse_witt(DiagonalForm([rat(-1), rat(-1)]))
    assert not splits_over_Q(neg)
    q = DiagonalForm([ind("a"), ind("b"), ind("c")])
    s = hasse_witt(q)
    expected = symbol(ind("a"), ind("b"), 2).mul(symbol(ind("a"), ind("c"), 2)).mul(
        symbol(ind("b"), ind("c"), 2))
    assert s == expected
    assert str(discriminant(q)) == "a*b*c"


def test_frohlich_self_twist_splits():
    q = DiagonalForm([rat(3), rat(5)])
    out = frohlich_obstruction(q, q, [])
    assert splits_over_Q(out)
    out2 = frohlich_obstruction(q, q, [(ind("a"), one())])
    assert splits_over_Q(out2) if not out2.factors else True
    assert frohlich_obstruction(q, q, [(rat(7), one())]) == out


def test_frohlich_example_negative_definite_twist():
    q = DiagonalForm([one(), one()])
    qe = DiagonalForm([rat(-1), rat(-1)])
    out = frohlich_obstruction(q, qe, [])
    assert not splits_over_Q(out)


def test_double_cover_twist():
    o = symbol(rat(3), rat(-1), 2)
    assert double_cover_twist(o, one()) == o
    t = double_cover_twist(trivial(2), rat(-1))
    assert not splits_over_Q(t)
    assert double_cover_twist(double_cover_twist(o, rat(7)), rat(7)) == o


def test_opaque_factor_substitution():
    """A concrete class may replace the opaque crossed-product factor."""
    concrete = obstruction_cp2(rat(2), 2)          # (2,-1), split
    m = modular_obstruction("M", 2, 4, rat(2), rat(3), crossed=concrete)
    assert not m.opaque
    assert splits_over_Q(m) == splits_over_Q(symbol(rat(3), rat(2), 2))
    g5 = g_family_obstruction("G5", 3, ind("a1"), ind("a2"),
                              cyc_factor=obstruction_cp2(ind("a1"), 3))
    assert not g5.opaque
    with pytest.raises(PrimeMismatch):
        modular_obstruction("M", 3, 3, rat(2), rat(3), crossed=concrete)


def test_massy_matches_extracted_extension_data():
    """Factor-set data read off catalog extensions feeds the product formula.

    For the quaternion extension over the Klein quotient the extracted data
    is d11 = d22 = d12 = 1, giving (a1,-1)(a2,-1)(a1,a2)."""
    from pgal.catalog import build_group
    from pgal.cohomology import cocycle_of_extension, extension_of_cocycle, power_commutator_data
    from pgal.groups import quotient, subgroup_generated

    E = build_group("Q:8")
    k = E.power(E.gen("sigma"), 2)
    Q, proj = quotient(E, subgroup_generated(E, [k]))
    ext = extension_of_cocycle(cocycle_of_extension(E, proj, k))
    gens = [proj(E.gen("sigma")), proj(E.gen("tau"))]
    diag, off = power_commutator_data(ext, gens)
    assert diag == [1, 1] and off == {(0, 1): 1}
    d = {(1, 1): diag[0], (2, 2): diag[1], (1, 2): off[(0, 1)]}
    a = [ind("a1"), ind("a2")]
    out = massy(MassyInput(2, a, d))
    expected = symbol(ind("a1"), rat(-1), 2).mul(symbol(ind("a2"), rat(-1), 2)).mul(
        symbol(ind("a1"), ind("a2"), 2))
    assert out == expected
    # dihedral data over the same quotient: only the commutator survives
    D = build_group("D:8")
    kd = D.power(D.gen("sigma"), 2)
    Qd, projd = quotient(D, subgroup_generated(D, [kd]))
    extd = extension_of_cocycle(cocycle_of_extension(D, projd, kd))
    diag_d, off_d = power_commutator_data(
        extd, [projd(D.gen("tau")), projd(D.mul(D.gen("sigma"), D.gen("tau")))])
    assert diag_d == [0, 0] and off_d == {(0, 1): 1}


def test_engine_outputs_are_normalize_fixed_points():
    from pgal.symbols import normalize

    outs = [
        obstruction_c4(rat(30)),
        obstruction_cp2(ind("a"), 3),
        massy(MassyInput(3, [ind("a1"), ind("a2")], {(1, 1): 2, (1, 2): 1})),
        direct_factor(DirectFactorInput(3, "res", b=rat(6), j=1, a=[ind("a1")], d=[2])),
        ledet_product(LedetInput(2, "rn", "rh", a=[rat(3)], b=[rat(5)], d={(1, 1): 1})),
        modular_obstruction("M", 3, 3, rat(2), rat(3)),
        g_family_obstruction("G5", 3, ind("a1"), ind("a2")),
        hasse_witt(DiagonalForm([rat(2), rat(3), rat(5)])),
        double_cover_twist(obstruction_c4(rat(7)), rat(-3)),
        frohlich_obstruction(DiagonalForm([rat(2)]), DiagonalForm([rat(3)]), []),
    ]
    for s in outs:
        assert normalize(s) == s


def test_frohlich_self_twist_always_split_randomized():
    import random

    rng = random.Random(21)
    pool = [2, 3, 5, 7, -1, -2, 15, 6]
    for _ in range(30):
        entries = [rat(rng.choice(pool)) for _ in range(rng.randint(1, 4))]
        q = DiagonalForm(entries)
        assert splits_over_Q(frohlich_obstruction(q, q, []))


def test_zero_entry_rejected():
    from fractions import Fraction

    from pgal.symbols import FieldElem

    with pytest.raises(ZeroEntry):
        obstruction_c4(FieldElem("rat", Fraction(0)))


def test_a_product_at_two_primes_is_refused_by_mul():
    for build in (lambda: relate_raise_lower(trivial(2), trivial(3)),
                  lambda: double_cover_twist(trivial(3), rat(5)),
                  lambda: trivial(2).mul(trivial(2), opaque_class("K", 3))):
        with pytest.raises(PrimeMismatch, match=r"^cannot multiply p=2 and p=3 symbols$"):
            build()


# -- each engine against its fold of binary muls ---------------------------------


def _same(P, Q):
    """Equal in every field and rendering; P keeps the detail of each of its
    atoms that factor cannot split, and equals the product rebuilt from its
    JSON, whose pairs come from expanding the factors again, not from mul."""
    from oracles import _unsplit

    assert set(P._unsplit) == {a for pair in P._pairs for a in pair if _unsplit(a, P.p)}
    R = SymbolProduct.from_json(P.to_json())
    for X in (Q, R):
        assert (P.p, P.factors, P.opaque, P._pairs, P._unsplit, str(P), P.to_json()) == (
            X.p, X.factors, X.opaque, X._pairs, X._unsplit, str(X), X.to_json())


def _holds_unfactored(x):
    return x.kind == "rat" and x.payload.numerator % UNFACTORED == 0


def _form(entry):
    """A diagonal form with at most one entry factor cannot split: the
    discriminant multiplies the entries, and the square of such an entry
    would go to rho, which spends a minute failing on it."""
    return st.lists(entry, min_size=1, max_size=4).filter(
        lambda es: sum(map(_holds_unfactored, es)) <= 1).map(DiagonalForm)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_each_engine_forms_the_product_its_fold_of_binary_muls_does(p, data):
    """Rational entries (negatives and fractions), indeterminates, roots of
    unity, entries factor cannot split and opaque sub-classes; and mul of
    several products is the fold of mul over them."""
    from oracles import (
        frohlich_by_folding,
        hasse_witt_by_folding,
        ledet_product_by_folding,
        massy_by_folding,
    )

    entry, product = _entries(p), _products(p).map(lambda x: x[0])
    P, Qs = data.draw(product), data.draw(st.lists(product, max_size=4))
    fold = P
    for Q in Qs:
        fold = fold.mul(Q)
    _same(P.mul(*Qs), fold)

    def exponents(rows, cols, diagonal):
        keys = st.tuples(st.integers(1, rows), st.integers(1, cols))
        if diagonal:
            keys = keys.map(sorted).map(tuple)
        return st.dictionaries(keys, st.integers(-3, 4), max_size=6)

    a = data.draw(st.lists(entry, min_size=1, max_size=4))
    massy_data = MassyInput(p, a, data.draw(exponents(len(a), len(a), True)))
    _same(massy(massy_data), massy_by_folding(massy_data))
    b = data.draw(st.lists(entry, min_size=1, max_size=3))
    sub = st.one_of(st.none(), st.sampled_from(["rN", "rH"]), product)
    ledet_data = LedetInput(p, data.draw(sub), data.draw(sub), a, b,
                            data.draw(exponents(len(a), len(b), False)))
    _same(ledet_product(ledet_data), ledet_product_by_folding(ledet_data))
    if p == 2:
        q, q_e = data.draw(_form(entry)), data.draw(_form(entry))
        spin = data.draw(st.lists(st.tuples(entry, entry), max_size=3))
        _same(hasse_witt(q), hasse_witt_by_folding(q))
        _same(frohlich_obstruction(q, q_e, spin), frohlich_by_folding(q, q_e, spin))


def test_the_engines_match_their_folds_where_factor_gives_up(monkeypatch):
    """At PGAL_FACTOR_BOUND=100 rho cannot split the 60-bit semiprime, nor
    the discriminant that multiplies two entries carrying UNFACTORED."""
    from oracles import (
        frohlich_by_folding,
        hasse_witt_by_folding,
        ledet_product_by_folding,
        massy_by_folding,
    )

    monkeypatch.setenv("PGAL_FACTOR_BOUND", "100")
    entries = [rat(UNFACTORED), rat(-3 * UNFACTORED), rat(SEMIPRIME_60),
               rat(Fraction(-SEMIPRIME_60, 7)), ind("a"), zeta(4)]
    q, q_e = DiagonalForm(entries[:4]), DiagonalForm(entries[2:])
    spin = [(entries[0], rat(5)), (entries[2], ind("b"))]
    P = frohlich_obstruction(q, q_e, spin)
    assert P._unsplit and not P.opaque
    _same(P, frohlich_by_folding(q, q_e, spin))
    _same(hasse_witt(q), hasse_witt_by_folding(q))
    for p in (2, 3, 5):
        massy_data = MassyInput(p, entries[:4], {(i, j): i + j for i in range(1, 5)
                                                 for j in range(i, 5)})
        _same(massy(massy_data), massy_by_folding(massy_data))
        data = LedetInput(p, "rN", massy(MassyInput(p, entries[4:], {(1, 2): 1})),
                          entries[:3], entries[3:], {(1, 1): 1, (2, 3): 2, (3, 2): p - 1})
        _same(ledet_product(data), ledet_product_by_folding(data))


# -- Massy's decision against the groups, place by place ---------------------------


@cache
def _massy_cases():
    """(spec, E, z, gens, d): every catalog 2-group E of order at most 32,
    alone or times C:2 or C:2*C:2 within that order, with each central z of
    order 2 such that E/<z> is elementary abelian of rank at most 4; gens
    lift the least basis of E/<z>, and d is Massy's data read off E."""
    from oracles import family_specs

    from pgal.catalog import build_group, spec_order
    from pgal.cohomology import cocycle_of_extension, extension_of_cocycle, power_commutator_data
    from pgal.groups import quotient, subgroup_generated

    groups = [s for s in family_specs(32) if spec_order(s) in (4, 8, 16, 32)]
    groups += [f"{s}*{c}" for s in groups for c in ("C:2", "C:2*C:2")
               if spec_order(s) * spec_order(c) <= 32]
    cases = []
    for spec in groups:
        E = build_group(spec)
        for z in E.center().elements.tolist():
            if E.element_order(z) != 2:
                continue
            Q, proj = quotient(E, subgroup_generated(E, [z]))
            if Q.exponent() > 2 or Q.order > 16:
                continue
            basis = []
            for x in range(1, Q.order):
                if x not in Q.closure(basis):
                    basis.append(x)
            ext = extension_of_cocycle(cocycle_of_extension(E, proj, z))
            diag, off = power_commutator_data(ext, basis)
            d = {(i + 1, i + 1): e for i, e in enumerate(diag)}
            d.update({(i + 1, j + 1): e for (i, j), e in off.items()})
            gens = [next(x for x in range(E.order) if proj(x) == y) for y in basis]
            cases.append((spec, E, z, gens, d))
    return cases


def test_the_massy_cases_cover_ranks_one_to_four_and_the_first_groups_checked():
    specs = {case[0] for case in _massy_cases()}
    assert {"D:8", "Q:8", "C:4*C:2", "G1:p=2", "D:8*C:2", "Q:8*C:2", "C:4*C:2*C:2",
            "EA:p=2,r=4*C:2"} <= specs
    assert {len(case[3]) for case in _massy_cases()} == {1, 2, 3, 4}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_massy_splits_exactly_when_no_place_fails_on_the_group_side(data):
    """By the Hasse principle for Br(Q), the problem is solvable over Q iff
    it is solvable at every place; oracles.hasse_by_groups decides that
    from E itself, with the place 2 left to the product formula."""
    from oracles import hasse_by_groups

    spec, E, z, gens, d = data.draw(st.sampled_from(_massy_cases()))
    a = data.draw(st.lists(st.integers(-10 ** 4, 10 ** 4).filter(bool),
                           min_size=len(gens), max_size=len(gens)))
    assert splits_over_Q(massy(MassyInput(2, [rat(x) for x in a], d))) == hasse_by_groups(
        E, z, gens, a), (spec, z, a)


def test_frohlich_twist_of_two_entries_sharing_a_cofactor_answers_at_once():
    """The discriminant -3 U^2 of <U, -3U> leaves the cofactor U^2 after
    trial division, on which rho spent about 40 s failing; a square adds
    nothing mod 2, so the twist is (-3, -5), with no 3 U^2 atom."""
    import time

    q = DiagonalForm([rat(UNFACTORED), rat(-3 * UNFACTORED)])
    start = time.perf_counter()
    P = frohlich_obstruction(q, DiagonalForm([rat(5)]), [])
    assert time.perf_counter() - start < 0.5
    assert rat(3 * UNFACTORED ** 2) not in {a for pair in P._pairs for a in pair}
    assert P == hasse_witt(q).mul(symbol(rat(-3), rat(-5), 2))
