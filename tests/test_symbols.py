"""Symbol normalization, Hilbert symbols, splitting, corestriction formulas."""

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


# above PSI_13 and passes every base, so factor raises on it
UNFACTORED = 13268176258719549543847943


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
    assert str(symbol(rat(-P), rat(3), 2)) == f"(-1,3)(3,{P})"
    assert str(symbol(rat(-P), rat(3), 3)) == f"({-P},3;z3)"


def test_factor_results_are_memoised_in_a_bounded_cache(monkeypatch):
    from pgal.arith import _factor_cached, factor
    from pgal.errors import FactorizationFailed

    monkeypatch.delenv("PGAL_FACTOR_BOUND", raising=False)
    n = 2 ** 4 * 3 * 1000003
    first = factor(n)
    first[2] = 99
    del first[3]
    before = _factor_cached.cache_info()
    assert before.maxsize is not None and before.maxsize <= 1024
    assert factor(-n) == {2: 4, 3: 1, 1000003: 1}
    after = _factor_cached.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    monkeypatch.setenv("PGAL_FACTOR_BOUND", "1000")
    assert factor(n) == {2: 4, 3: 1, 1000003: 1}
    assert _factor_cached.cache_info().misses == after.misses + 1
    size = _factor_cached.cache_info().currsize
    for bad in (0, PSI_13, PSI_13):
        with pytest.raises(FactorizationFailed):
            factor(bad)
    assert _factor_cached.cache_info().currsize == size


def test_a_failed_factorisation_runs_rho_once_per_request(monkeypatch, capsys):
    """N, a product of two 50-bit primes, defeats rho at bound 100.  The
    request meets it in normalize and in relevant_places; failures are
    memoised apart from the results cache, so rho runs on N once."""
    from pgal import arith
    from pgal.cli import main
    from pgal.errors import FactorizationFailed

    monkeypatch.setenv("PGAL_FACTOR_BOUND", "100")
    monkeypatch.setattr(arith, "_FAILED", {})
    calls, real = [], arith._brent_rho
    monkeypatch.setattr(arith, "_brent_rho",
                        lambda m, max_steps: calls.append(m) or real(m, max_steps))
    N = 844424930132057 * 1266637395197957
    assert main(["symbol", "eval", "--p", "2", "--expr", f"({N},3)", "--json"]) == 0
    assert f"(3,{N})" in capsys.readouterr().out
    assert calls == [N]
    with pytest.raises(FactorizationFailed, match=f"could not split composite {N}"):
        arith.factor(-N)
    assert calls == [N]
    for bound in range(2, 302):  # the memo is bounded
        monkeypatch.setenv("PGAL_FACTOR_BOUND", str(bound))
        with pytest.raises(FactorizationFailed):
            arith.factor(0)
    assert len(arith._FAILED) == arith._FAILED_MAX == 256


def test_factor_tests_each_cofactor_for_primality_once(monkeypatch):
    from pgal import arith

    calls, real = [], arith.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    monkeypatch.delenv("PGAL_FACTOR_BOUND", raising=False)
    big, small = 2 ** 61 - 1, 10 ** 9 + 7
    # the uncached function and an empty cofactor memo, so that an earlier
    # factor() cannot hide the calls
    arith._split.cache_clear()
    assert dict(arith._factor_cached.__wrapped__(big * small, arith.factor_bound())) == {
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
    arith._split.cache_clear()
    # trial division stops at 13, since 13^2 > 13: every prime below 13 was tried
    assert arith._factor_cached.__wrapped__(7 * 11 * 13, arith.factor_bound()) == (
        (7, 1), (11, 1), (13, 1))
    # after the last trial prime, 1031 < 1021^2 is prime too
    assert arith._factor_cached.__wrapped__(1021 * 1031, 2 ** 11) == ((1021, 1), (1031, 1))
    assert calls == []
    # a stop at d > bound proves nothing: 143 = 11 * 13 goes to _split
    assert arith._factor_cached.__wrapped__(11 * 13, 7) == ((11, 1), (13, 1))
    assert calls[0] == 143


def _wheel_factor(n, bound):
    """The one-candidate-at-a-time wheel loop and rho stack that
    arith._factor_cached ran before its chunked scan and cofactor memo."""
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
        arith._split.cache_clear()
        want = outcome(_wheel_factor, n, bound)
        assert outcome(arith._factor_cached.__wrapped__, n, bound) == want, (n, bound)
    assert arith._split.cache_info().maxsize == 256


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
        got = arith._factor_cached.__wrapped__(n, bound)
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
