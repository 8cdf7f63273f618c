"""Symbol normalization, Hilbert symbols, splitting, corestriction formulas."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgal.errors import (
    NonRationalEntry,
    OpaqueFactorPresent,
    SquareA,
    ZeroAlpha,
    ZeroEntry,
)
from pgal.symbols import (
    SymbolProduct,
    elem_mul,
    hilbert_local,
    ind,
    normalize,
    one,
    opaque_class,
    projection_corestriction,
    quad_corestriction,
    rat,
    relevant_places,
    splits_over_Q,
    symbol,
    trivial,
    zeta,
)


# the product of the two largest primes below 2^30
SEMIPRIME_60 = 1073741789 * 1073741783
# above psi_13 and passes every Miller-Rabin base, so factor raises on it
UNFACTORED = 13268176258719549543847943


def test_symbol_with_unit_entry_is_trivial():
    assert symbol(ind("a"), one(), 5).is_trivial_form()


def test_quaternion_symbol_and_p2_zeta_rendering():
    # zeta_2 renders as -1, and (2,-1) = (2, 1-2) is the split class
    s = symbol(rat(2), zeta(2), 2)
    assert s.is_trivial_form()
    t = symbol(rat(3), zeta(2), 2)
    assert str(t) == "(-1,3)"


def test_a_minus_a_trivial():
    from pgal.symbols import elem_neg

    for p in (2, 3, 5):
        assert symbol(ind("a"), elem_neg(ind("a")), p).is_trivial_form()
    assert symbol(rat(3), rat(-3), 2).is_trivial_form()
    assert symbol(rat(Fraction(2, 5)), rat(Fraction(-2, 5)), 2).is_trivial_form()


def test_one_minus_a_trivial():
    assert symbol(rat(4), rat(-3), 2).is_trivial_form()
    assert symbol(rat(-3), rat(4), 2).is_trivial_form()


def test_two_torsion():
    s = symbol(ind("a"), ind("b"), 2)
    assert s.mul(s).is_trivial_form()


def test_bilinearity_merge():
    s = symbol(ind("a"), ind("b"), 3).mul(symbol(ind("a"), ind("c"), 3))
    assert len(s.factors) == 1
    l, r = s.factors[0]
    assert str(l) == "a" and str(r) == "b*c"


def test_square_factor_reduction():
    s = symbol(rat(4), ind("b"), 2)
    t = symbol(rat(4 * 3), ind("b"), 2)
    assert s.is_trivial_form()
    assert t == symbol(ind("b"), rat(3), 2)
    assert str(t) == "(b,3)"


def test_normalize_idempotent_and_order_insensitive():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.randint(1, 4)
        facs = []
        for _ in range(k):
            a = rng.choice([rat(rng.choice([-1, 2, 3, 5, -6, 7, 10])), ind("a"), ind("b")])
            b = rng.choice([rat(rng.choice([-1, 2, 3, 5, -6, 7, 10])), ind("c")])
            facs.append((a, b))
        p = rng.choice([2, 3])
        P = SymbolProduct(p, tuple(facs), ())
        n1 = normalize(P)
        n2 = normalize(n1)
        assert n1 == n2
        shuffled = list(facs)
        rng.shuffle(shuffled)
        assert normalize(SymbolProduct(p, tuple(shuffled), ())) == n1


def _entries(p):
    """Rationals, indeterminates, roots of unity of order p, p^2, 4 and 6,
    products of two of them, and +-UNFACTORED times a rational, which factor
    cannot split.  UNFACTORED^2 is left out: it would go to rho, which
    spends a minute failing on it."""
    rats = st.tuples(st.sampled_from([-1, 2, -2, 3, 5, -6, 7, 10, 12, -15, 49]),
                     st.sampled_from([1, 3, 4, 5])).map(lambda nd: rat(Fraction(*nd)))
    zetas = st.sampled_from([p, p * p, 4, 6]).flatmap(
        lambda n: st.integers(1, n - 1).map(lambda e: zeta(n, e)))
    atoms = st.one_of(rats, st.sampled_from(["a", "b"]).map(ind), zetas)
    unsplit = st.tuples(st.sampled_from([UNFACTORED, -UNFACTORED]), rats).map(
        lambda ux: elem_mul(rat(ux[0]), ux[1]))
    return st.one_of(atoms, st.tuples(atoms, atoms).map(lambda xy: elem_mul(*xy)), unsplit)


def _raw_doc(p, factors, opaque):
    return {"p": p,
            "factors": [{"left": l.to_json(), "right": r.to_json(), "exp": 1} for l, r in factors],
            "opaque": [{"name": n, "exp": e} for n, e in opaque]}


def _products(p):
    """(product, its raw factors, its raw opaque classes), built by symbol,
    opaque_class, mul, pow and from_json."""
    entry = _entries(p)
    leaves = st.one_of(
        st.tuples(entry, entry).map(lambda ab: (symbol(*ab, p), [ab], [])),
        st.tuples(st.sampled_from(["X", "Y"]), st.integers(-3, 3)).map(
            lambda ne: (opaque_class(ne[0], p, ne[1]), [], [ne])))

    def times(x, y):
        return x[0].mul(y[0]), x[1] + y[1], x[2] + y[2]

    def power(x, e):
        # the raw factors repeated e mod p times, as a class is p-torsion:
        # folding e into the right entries would hide identities, since
        # (3, -2) = 1 at p = 3 by (a, 1-a) = 1, yet (3, 4) is not seen as 1
        return x[0].pow(e), x[1] * (e % p), [(n, k * e) for n, k in x[2]]

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda xy: times(*xy)),
            st.tuples(children, st.integers(-3, 4)).map(lambda xe: power(*xe)),
            children.map(lambda x: (SymbolProduct.from_json(_raw_doc(p, x[1], x[2])), x[1], x[2])))
    return st.recursive(leaves, extend, max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(st.just(p), _products(p))))
def test_a_product_is_the_canonical_form_of_its_raw_factors(case):
    """Whatever built it, a product equals the expansion of its raw factors,
    regrouped and expanded again until nothing changes; and it is a fixed
    point of normalize, of multiplying by 1 and of a JSON round trip."""
    from oracles import normalize_by_reexpansion

    p, (P, factors, opaque) = case
    assert (P.factors, P.opaque) == normalize_by_reexpansion(p, factors, opaque)
    assert normalize(P) == P
    assert P.mul(trivial(p)) == P
    Q = SymbolProduct.from_json(P.to_json())
    assert Q == P and Q._pairs == P._pairs  # equal products carry equal pairs


def test_mul_pow_and_splitting_never_factor(monkeypatch, capsys):
    """Each entry is factored when its symbol is formed, and only then: an
    obstruct hw request with n entries forms n(n-1)/2 symbols of two entries."""
    from pgal import arith, symbols
    from pgal.cli import main

    calls = []

    def counting(n):
        calls.append(n)
        return arith.factor(n)

    monkeypatch.setattr(symbols, "factor", counting)
    P = symbol(rat(6), rat(-35), 2).mul(symbol(rat(Fraction(10, 7)), rat(3), 2))
    Q = symbol(ind("a"), rat(12), 3).mul(opaque_class("K", 3))
    assert sorted(calls) == [3, 6, 12, 35, 70]  # each rational entry once; 10/7 as 70
    P.mul(P.pow(3)).pow(-1)
    Q.pow(2).mul(Q).pow(5)
    assert splits_over_Q(P) is False and splits_over_Q(P.mul(P)) is True
    assert len(calls) == 5
    for entries in ("6,-10", "2,3,-5", "6,-35,10/7,13", "-1,2,3,5,7"):
        n = entries.count(",") + 1
        calls.clear()
        assert main(["obstruct", "hw", f"--q={entries}", "--json"]) == 0
        capsys.readouterr()
        assert len(calls) <= n * (n - 1), entries


def test_odd_p_antisymmetry():
    s = symbol(rat(5), rat(3), 3)
    t = symbol(rat(3), rat(5), 3)
    assert s.mul(t).is_trivial_form()


def test_opaque_factors_merge_and_block_evaluation():
    s = opaque_class("K,H,res", 3).mul(opaque_class("K,H,res", 3))
    assert s.opaque == (("K,H,res", 2),)
    t = opaque_class("X", 2)
    with pytest.raises(OpaqueFactorPresent):
        splits_over_Q(t)


# -- Hilbert symbols ---------------------------------------------------------------


def test_hilbert_examples():
    assert hilbert_local(2, -1, 2) == 1
    assert hilbert_local(2, -1, "inf") == 1
    assert hilbert_local(-1, -1, "inf") == -1
    assert hilbert_local(-1, -1, 2) == -1
    assert hilbert_local(3, -1, 3) == -1


def test_hilbert_symmetry():
    rng = random.Random(5)
    for _ in range(100):
        a = rng.randint(-30, 30) or 1
        b = rng.randint(-30, 30) or 1
        for place in relevant_places([Fraction(a), Fraction(b)]):
            assert hilbert_local(a, b, place) == hilbert_local(b, a, place)


def test_hilbert_product_formula():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-10**4, 10**4) or 3, rng.randint(1, 50))
        b = Fraction(rng.randint(-10**4, 10**4) or 5, rng.randint(1, 50))
        prod = 1
        for place in relevant_places([a, b]):
            prod *= hilbert_local(a, b, place)
        assert prod == 1


def test_standard_relations_split_everywhere():
    rng = random.Random(9)
    for _ in range(50):
        a = Fraction(rng.randint(2, 500), rng.randint(1, 30))
        for pair in ((a, -a), (a, 1 - a) if a != 1 else (a, -a)):
            x, y = pair
            if y == 0:
                continue
            for place in relevant_places([x, y]):
                assert hilbert_local(x, y, place) == 1


# -- splitting over Q ----------------------------------------------------------------


def test_splits_examples():
    assert splits_over_Q(trivial(2))
    assert splits_over_Q(symbol(rat(2), rat(-1), 2))
    assert not splits_over_Q(symbol(rat(-1), rat(-1), 2))
    assert not splits_over_Q(symbol(rat(3), rat(-1), 2))
    prod = symbol(rat(2), rat(-1), 2).mul(symbol(rat(3), rat(-1), 2))
    assert not splits_over_Q(prod)


def test_splits_rejects_indeterminates_and_odd_p():
    with pytest.raises(NonRationalEntry):
        splits_over_Q(symbol(ind("a"), rat(2), 2))
    from pgal.errors import PrimeMismatch
    with pytest.raises(PrimeMismatch):
        splits_over_Q(symbol(rat(2), rat(3), 3))


def test_normalize_preserves_splitting():
    rng = random.Random(13)
    pool = [-1, 2, 3, 5, -6, 7, 10, 15, -30]
    for _ in range(200):
        k = rng.randint(1, 4)
        facs = tuple((rat(rng.choice(pool)), rat(rng.choice(pool))) for _ in range(k))
        P = SymbolProduct(2, facs, ())
        places = relevant_places([f.payload for pair in facs for f in pair])
        raw = all(
            _local_product(facs, pl) == 1 for pl in places)
        assert splits_over_Q(normalize(P)) == raw


_ENTRY = st.one_of(st.sampled_from([-1, 2, 3, -3, 5, 6]).map(Fraction),
                   st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6).filter(bool),
                             st.integers(1, 10 ** 6)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_ENTRY, _ENTRY), min_size=1, max_size=4))
def test_splitting_reads_the_stored_atoms_as_the_raw_places(pairs):
    """At p = 2 a product of rational symbols splits over Q exactly when the
    Hilbert symbols of its raw entries multiply to 1 at every place of
    relevant_places: the places splits_over_Q reads off the stored atoms
    decide as the places of the raw entries do."""
    P = SymbolProduct(2, tuple((rat(a), rat(b)) for a, b in pairs), ())
    places = relevant_places([q for pair in pairs for q in pair])
    raw = all(math.prod(hilbert_local(a, b, place) for a, b in pairs) == 1 for place in places)
    assert splits_over_Q(P) == raw


def _local_product(facs, place):
    prod = 1
    for a, b in facs:
        prod *= hilbert_local(a.payload, b.payload, place)
    return prod


def test_zero_entry_rejected():
    with pytest.raises(ZeroEntry):
        rat(0)


# -- corestriction formulas -----------------------------------------------------------


def test_projection_formula():
    assert projection_corestriction(one(), ind("b"), 3).is_trivial_form()
    s = projection_corestriction(ind("a2"), ind("a1"), 3)
    assert len(s.factors) == 1
    t = projection_corestriction(rat(-1), rat(-1), 2)
    assert not splits_over_Q(t)


def test_quad_corestriction_case1():
    # a=2, alpha0 = 1+sqrt2, alpha1 = 3: (3, 1-2) = (3,-1)
    s = quad_corestriction(2, 1, 1, 3, 0)
    assert not splits_over_Q(s)
    expected = symbol(rat(3), rat(-1), 2)
    assert s == expected


def test_quad_corestriction_trivial_units():
    s = quad_corestriction(2, 1, 0, 1, 0)
    assert splits_over_Q(s)


def test_quad_corestriction_case2():
    s = quad_corestriction(5, 1, 1, 2, 2)
    expected = symbol(rat(-2), rat(-4), 2)
    assert s == expected


def test_quad_corestriction_case3_is_wellformed():
    s = quad_corestriction(3, 1, 1, 1, 2)
    # just a Brauer class over Q; must evaluate without error
    splits_over_Q(s)


def test_quad_corestriction_case_overlap_agreement():
    """When both the b=0 and the proportionality case apply, the classes agree."""
    rng = random.Random(3)
    for _ in range(50):
        a = rng.choice([2, 3, 5, 7, -1, -2])
        a0 = rng.randint(1, 9)
        a1 = rng.randint(1, 9)
        # b0 = b1 = 0: case (1) fires; case (2) condition also holds
        s1 = quad_corestriction(a, a0, 0, a1, 0)
        s2 = symbol(rat(-a0 * a1), rat(a0 * a0), 2)  # case (2) formula, i=0
        assert splits_over_Q(s1) == splits_over_Q(s2)


def test_quad_corestriction_errors():
    with pytest.raises(SquareA):
        quad_corestriction(4, 1, 1, 1, 0)
    with pytest.raises(ZeroAlpha):
        quad_corestriction(2, 0, 0, 1, 0)


def test_symbol_json_roundtrip():
    s = symbol(rat(2), rat(-1), 2).mul(opaque_class("K,H,res", 2))
    doc = s.to_json()
    t = SymbolProduct.from_json(doc)
    assert t == s
    u = symbol(ind("a1"), zeta(3), 3)
    assert SymbolProduct.from_json(u.to_json()) == u


# -- primality ------------------------------------------------------------------

PSI_12 = 318665857834031151167461  # strong pseudoprime to every prime base up to 37
PSI_13 = 3317044064679887385961981  # ... and to base 41 as well


def test_primality_is_exact_below_psi13():
    from pgal.arith import factor, is_prime

    a, b = 399165290221, 798330580441
    assert a * b == PSI_12
    assert not is_prime(PSI_12)
    assert factor(PSI_12) == {a: 1, b: 1}
    assert is_prime(b) and is_prime(PSI_13 - 168)  # the largest prime below PSI_13
    # (a^2 b, 2) = (b, 2), which splits since b = 1 mod 8
    assert b % 8 == 1
    assert splits_over_Q(symbol(rat(a * a * b), rat(2), 2))


def test_the_trial_primes_are_the_primes_below_2_to_the_10():
    from oracles import trial_primes_by_division
    from pgal import arith

    assert arith._TRIAL_PRIMES == trial_primes_by_division()
    assert len(arith._TRIAL_PRIMES) == 172
    assert [arith._primes_below(n) for n in (2, 3, 4, 5, 11)] == [
        (), (2,), (2, 3), (2, 3), (2, 3, 5, 7)]


def test_a_number_past_psi13_that_passes_every_base_is_an_error():
    from pgal.arith import is_prime
    from pgal.errors import FactorizationFailed

    for n in (PSI_13, 2 ** 89 - 1):
        with pytest.raises(FactorizationFailed):
            is_prime(n)
    for n in (PSI_13 + 2, (2 ** 89 - 1) * (2 ** 61 - 1), 2 ** 100):
        assert not is_prime(n)


def test_an_entry_that_cannot_be_factored_is_one_atom_that_keeps_its_class():
    from pgal.arith import factor
    from pgal.errors import FactorizationFailed

    P = UNFACTORED
    with pytest.raises(FactorizationFailed):
        factor(P)
    for b in (rat(3), rat(-1), rat(Fraction(5, 7))):
        minus = symbol(rat(-P), b, 2)
        assert minus == symbol(rat(-1), b, 2).mul(symbol(rat(P), b, 2))
        assert minus != symbol(rat(P), b, 2)
        assert normalize(minus) == minus
        with pytest.raises(FactorizationFailed, match="cannot certify"):
            splits_over_Q(minus)
    assert str(symbol(rat(-P), rat(3), 2)) == f"(-1,3)(3,{P})"
    assert str(symbol(rat(-P), rat(3), 3)) == f"({-P},3;z3)"


def test_a_cofactor_that_is_a_pth_power_is_dropped_before_factoring():
    from pgal.arith import without_power_cofactor

    U = UNFACTORED
    assert without_power_cofactor(12 * U ** 2, 2) == 12
    assert without_power_cofactor(7 * U ** 3, 3) == 7
    assert without_power_cofactor(U ** 2, 2) == 1
    for n, k in ((12 * U ** 2, 3), (7 * U ** 3, 2), (3 * U, 2), (2 * SEMIPRIME_60, 2), (45, 2)):
        assert without_power_cofactor(n, k) == n
    # 2^10 * 3^2: trial division leaves no cofactor
    assert without_power_cofactor(9216, 2) == 9216
    # the square's class is the class of what is left, with no atom for U
    assert symbol(rat(-3 * U ** 2), rat(5), 2) == symbol(rat(-3), rat(5), 2)
    assert str(symbol(rat(Fraction(U ** 3, 2)), rat(5), 3)) == str(symbol(rat(Fraction(1, 2)), rat(5), 3))


def test_factor_results_are_memoised_in_a_bounded_cache(monkeypatch):
    """The memo is keyed on the cofactor left by trial division and the
    bound, and keeps failures as well as factorisations."""
    from pgal.arith import _cofactor_primes, factor
    from pgal.errors import FactorizationFailed

    monkeypatch.delenv("PGAL_FACTOR_BOUND", raising=False)
    big = 2 ** 61 - 1
    n = 2 ** 4 * 3 * big
    first = factor(n)
    first[2] = 99
    del first[3]
    before = _cofactor_primes.cache_info()
    assert before.maxsize is not None and before.maxsize <= 1024
    assert factor(-n) == {2: 4, 3: 1, big: 1}
    assert factor(5 * big) == {5: 1, big: 1}  # another integer, the same cofactor
    after = _cofactor_primes.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
    monkeypatch.setenv("PGAL_FACTOR_BOUND", "1000")
    assert factor(n) == {2: 4, 3: 1, big: 1}
    assert _cofactor_primes.cache_info().misses == after.misses + 1
    _cofactor_primes.cache_clear()
    for bad in (0, PSI_13, 2 * PSI_13):
        with pytest.raises(FactorizationFailed, match="cannot" if bad else "cannot factor 0"):
            factor(bad)
    info = _cofactor_primes.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_a_failed_factorisation_runs_rho_once_per_request(monkeypatch, capsys):
    """N, a product of two 50-bit primes, defeats rho at bound 100.  The
    request factors N once, when its symbol is formed, and splits_over_Q
    reads the stored atom, so rho runs on N once."""
    from pgal import arith
    from pgal.cli import main
    from pgal.errors import FactorizationFailed

    monkeypatch.setenv("PGAL_FACTOR_BOUND", "100")
    arith._cofactor_primes.cache_clear()
    calls, real = [], arith._brent_rho
    monkeypatch.setattr(arith, "_brent_rho",
                        lambda m, max_steps: calls.append(m) or real(m, max_steps))
    N = 844424930132057 * 1266637395197957
    assert main(["symbol", "eval", "--p", "2", "--expr", f"({N},3)", "--json"]) == 0
    assert f"(3,{N})" in capsys.readouterr().out
    assert calls == [N]
    # the failure is memoised: factor raises its detail again without rho,
    # and the decision raises the detail its stored atom keeps
    with pytest.raises(FactorizationFailed, match=f"could not split composite {N}"):
        arith.factor(-N)
    P = symbol(rat(N), rat(3), 2)
    with pytest.raises(FactorizationFailed, match=f"could not split composite {N}"):
        splits_over_Q(P)
    assert calls == [N]


def test_an_obstruct_hw_request_runs_rho_once_on_an_entry_it_cannot_factor(monkeypatch, capsys):
    """Each entry enters n - 1 of the symbols of obstruct hw; the failure
    memo lets rho run on the 60-bit semiprime once at bound 100."""
    from pgal import arith
    from pgal.cli import main

    monkeypatch.setenv("PGAL_FACTOR_BOUND", "100")
    arith._cofactor_primes.cache_clear()
    calls, real = [], arith._brent_rho
    monkeypatch.setattr(arith, "_brent_rho",
                        lambda m, max_steps: calls.append(m) or real(m, max_steps))
    N = SEMIPRIME_60
    assert main(["obstruct", "hw", f"--q={N},2,3", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["splits_over_Q"] is None
    assert out["canonical"] == f"(2,3)(2,{N})(3,{N})"
    assert calls == [N]


def test_an_atom_factor_could_not_split_stands_alone(monkeypatch):
    """Merging such atoms would make a right entry that expands to one atom,
    so a product rebuilt from its factors would carry other pairs."""
    from pgal import arith
    from pgal.errors import FactorizationFailed

    monkeypatch.setenv("PGAL_FACTOR_BOUND", "100")
    N, M = SEMIPRIME_60, 844424930132057 * 1266637395197957
    for p in (2, 3):
        P = symbol(rat(2), rat(N), p).mul(symbol(rat(2), rat(M), p))
        Q = SymbolProduct.from_json(P.to_json())
        assert [str(r) for _, r in P.factors] == [str(N), str(M)]
        assert Q == P and Q._pairs == P._pairs
        inverse = symbol(rat(2), rat(N), p).pow(-1)
        assert P.mul(inverse) == Q.mul(inverse) == symbol(rat(2), rat(M), p)
        # a power repeats the factor rather than raising N to it
        assert P.pow(2) == SymbolProduct.from_json(P.pow(2).to_json())
        assert P.pow(p).is_trivial_form()
    assert [str(r) for _, r in P.pow(2).factors] == [str(N), str(N), str(M), str(M)]
    # 2N fails as a whole; its detail names the cofactor rho could not split
    arith._cofactor_primes.cache_clear()
    with pytest.raises(FactorizationFailed, match=f"could not split composite {N}$"):
        splits_over_Q(symbol(rat(2 * N), rat(3), 2))


@pytest.mark.parametrize("argv", [
    ["obstruct", "c4", f"--a=-{2 * SEMIPRIME_60}/3", "--json"],
    ["obstruct", "twist", f"--df={6 * SEMIPRIME_60}", "--plus=(5,-3)(7,11)", "--json"],
    # the second symbol with the entry finds its cofactor in factor's memo
    ["obstruct", "twist", f"--df=-{SEMIPRIME_60}", f"--plus=(-{SEMIPRIME_60},5)", "--json"],
    # 5N and N are different integers with the same cofactor
    ["obstruct", "twist", f"--df={SEMIPRIME_60}/5", f"--plus=({SEMIPRIME_60},-1)", "--json"],
])
def test_a_request_carrying_a_60_bit_semiprime_runs_rho_once(monkeypatch, capsys, argv):
    from pgal import arith
    from pgal.cli import main

    monkeypatch.delenv("PGAL_FACTOR_BOUND", raising=False)
    arith._cofactor_primes.cache_clear()
    calls, real = [], arith._brent_rho
    monkeypatch.setattr(arith, "_brent_rho",
                        lambda m, max_steps: calls.append(m) or real(m, max_steps))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["splits_over_Q"] in (True, False)
    assert calls == [SEMIPRIME_60]


def test_factor_tests_each_cofactor_for_primality_once(monkeypatch):
    from pgal import arith

    calls, real = [], arith.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    monkeypatch.delenv("PGAL_FACTOR_BOUND", raising=False)
    big, small = 2 ** 61 - 1, 10 ** 9 + 7
    # an empty memo, so that an earlier factor() cannot hide the calls
    arith._cofactor_primes.cache_clear()
    assert dict(arith._factor(big * small, arith.factor_bound())) == {
        big: 1, small: 1}
    assert sorted(calls) == sorted([big * small, big, small])


def test_a_cofactor_below_the_square_of_the_stopping_prime_is_not_tested(monkeypatch):
    from pgal import arith

    calls, real = [], arith.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    monkeypatch.delenv("PGAL_FACTOR_BOUND", raising=False)
    # trial division stops at 13, since 13^2 > 13: every prime below 13 was tried
    arith._cofactor_primes.cache_clear()
    assert arith._factor(7 * 11 * 13, arith.factor_bound()) == (
        (7, 1), (11, 1), (13, 1))
    # after the last trial prime, 1031 < 1021^2 is prime too
    assert arith._factor(1021 * 1031, 2 ** 11) == ((1021, 1), (1031, 1))
    assert calls == []
    # a stop at d > bound proves nothing: 143 = 11 * 13 goes to is_prime and rho
    assert arith._factor(11 * 13, 7) == ((11, 1), (13, 1))
    assert calls[0] == 143


def _wheel_factor(n, bound):
    """The one-candidate-at-a-time wheel loop and rho stack that
    arith._factor ran before its chunked scan."""
    from pgal import arith
    from pgal.errors import FactorizationFailed

    if n == 0:
        raise FactorizationFailed("cannot factor 0")
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d, w, wheel = 7, 0, (4, 2, 4, 2, 4, 6, 2, 6)
    while d * d <= n and d <= bound:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += wheel[w]
        w = (w + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if arith.is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        g = arith._brent_rho(m, max_steps=4 * bound)
        if not g or g in (1, m):
            raise FactorizationFailed(f"could not split composite {m}")
        stack.append(g)
        stack.append(m // g)
    return tuple(out.items())


def test_chunked_trial_division_agrees_with_the_wheel_loop():
    import itertools

    from pgal import arith
    from pgal.errors import FactorizationFailed

    def outcome(f, n, bound):
        """The factorisation as a mapping: the wheel loop lists a cofactor's
        primes in the order rho finds them, and factor sorts them."""
        try:
            return dict(f(n, bound))
        except FactorizationFailed:
            return "failed"

    rng = random.Random(3)
    # primes at the edges of the 30 * 2048 chunks, and cofactors past the bound
    primes = [7, 11, 61417, 61441, 61463, 122887, 999983, 1000003, 3543999409]
    pairs = [(n, bound) for n in range(3000) for bound in (2, 10, 1000)]
    pairs += [(a * b * c, bound) for a, b in itertools.combinations_with_replacement(primes, 2)
              for c in (1, 61441) for bound in (1000, 61441)]
    pairs += [(641166890476304368486, 10 ** 6), (2767596882740967806569819, 10 ** 6)]
    pairs += [(rng.getrandbits(rng.randrange(30, 74)), rng.choice([10 ** 5, 10 ** 6]))
              for _ in range(12)]
    pairs += [(PSI_13, 10 ** 6), (0, 10 ** 6)]
    for n, bound in pairs:
        want = outcome(_wheel_factor, n, bound)
        assert outcome(arith._factor, n, bound) == want, (n, bound)


# primes below 2^10, just above it, at the old scan's chunk edges and near
# 10^6; a product takes at most one of the 30-40-bit primes, since rho spends
# seconds on a product of two of them that it cannot split
_FACTOR_POOL = [2, 3, 5, 7, 31, 97, 509, 1009, 1021, 1031, 1033, 61417, 61441, 61463,
                999983, 1000003]
_LARGE_PRIMES = [1073741827, 8589934609, 68719476767, 1099511627791]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FACTOR_POOL), max_size=4),
       st.lists(st.sampled_from(_LARGE_PRIMES), max_size=1),
       st.sampled_from([2, 10, 1000, 1024, 1031, 61441, 10 ** 6]))
def test_trial_division_below_2_10_and_rho_agree_with_the_wheel_loop(small, large, bound):
    """Trial division stops at min(bound, 2^10) and rho splits off the primes
    the wheel loop found above that: the same factorisation, or both fail."""
    from pgal import arith
    from pgal.errors import FactorizationFailed

    primes = small + large
    n = math.prod(primes)
    try:
        want = dict(_wheel_factor(n, bound))
    except FactorizationFailed:
        want = "failed"
    try:
        got = arith._factor(n, bound)
    except FactorizationFailed:
        assert want == "failed", (n, bound)
        return
    assert dict(got) == want, (n, bound)
    assert [q for q, _ in got] == sorted(set(primes))


def test_factor_lists_its_primes_in_increasing_order(monkeypatch):
    from pgal.arith import factor

    monkeypatch.delenv("PGAL_FACTOR_BOUND", raising=False)
    # rho splits the cofactor here into its primes in decreasing order
    n = 1099511627791 * 61441 * 1000003 * 1031 * 7 ** 2
    for m in (n, -n, 2 ** 61 - 1, (2 ** 61 - 1) * (10 ** 9 + 7) * 3):
        primes = list(factor(m))
        assert primes == sorted(primes)
    assert factor(n) == {7: 2, 1031: 1, 61441: 1, 1000003: 1, 1099511627791: 1}
