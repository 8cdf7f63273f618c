"""Each number rule has one owner: arith.valuation divides a prime out of an
integer, arith.read_prime checks every p a caller gives, and errors.read_int
reads every single caller integer.

valuation and its callers are checked against the loops they replaced
(tests/oracles.py): valuation itself for |n| <= 10^5 at every prime up to
97, the 2-adic split of is_prime and is_prime against a sieve for
n <= 10^5, _prime_divisors over every group order up to MAX_ORDER (its
only inputs), the Sylow subgroups' orders on the catalog groups, and
_split_off on random Fractions.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    family_specs,
    prime_divisors_by_trial,
    split_off_by_division,
    two_adic_split,
)
from pgal.arith import FactorizationFailed, _primes_below, is_prime, read_prime, valuation
from pgal.catalog import build_group
from pgal.errors import MAX_ORDER, BadParams, KernelNotPrime
from pgal.groups import _prime_divisors, sylow_subgroup
from pgal.symbols import _split_off, hilbert_local

LIMIT = 10 ** 5
SMALL_PRIMES = _primes_below(98)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_valuation_divides_p_out_as_the_loop_did(p):
    for n in range(1, LIMIT + 1):
        want = split_off_by_division(Fraction(n), p)
        assert valuation(n, p) == want, (n, p)
        assert valuation(-n, p) == (want[0], -want[1]), (-n, p)


def test_the_two_adic_split_and_is_prime_agree_with_the_loop_and_a_sieve():
    primes = set(_primes_below(LIMIT + 1))
    for n in range(1, LIMIT + 1):
        assert valuation(n, 2) == two_adic_split(n), n
        assert is_prime(n) == (n in primes), n


def test_prime_divisors_of_every_group_order():
    for n in range(1, MAX_ORDER + 1):
        assert _prime_divisors(n) == prime_divisors_by_trial(n), n


def test_sylow_subgroups_have_the_full_prime_power_order():
    for spec in family_specs(64) + ["D:8*C:3", "C:2*C:6", "EA:p=2,r=2*C:9"]:
        G = build_group(spec)
        for p in prime_divisors_by_trial(G.order):
            v, _ = split_off_by_division(Fraction(G.order), p)
            assert sylow_subgroup(G, p).order == p ** v, (spec, p)


def test_split_off_and_hilbert_symbols_on_random_fractions():
    rng = random.Random(35)
    for _ in range(3000):
        num = rng.choice([1, -1]) * rng.randrange(1, 10 ** rng.randint(1, 12))
        q = Fraction(num, rng.randrange(1, 10 ** rng.randint(1, 12)))
        l = rng.choice(SMALL_PRIMES)
        assert _split_off(q, l) == split_off_by_division(q, l), (q, l)
        # a prime power factor is split off exactly
        k = rng.randint(-5, 5)
        v, u = split_off_by_division(q, l)
        assert _split_off(q * Fraction(l) ** k, l) == (v + k, u), (q, l, k)
    assert hilbert_local(Fraction(18, 7), -3, 3) == hilbert_local(2 * 7, -3, 3)


def test_read_prime_reads_an_integer_and_tests_it_once():
    assert read_prime(97) == 97 and type(read_prime(np.int16(3))) is int
    for bad in (1, 0, -2, 4, 2.0, "2", None, True):
        with pytest.raises(BadParams) as exc:
            read_prime(bad)
        assert exc.value.detail == f"p must be prime, got p={bad}"
    with pytest.raises(KernelNotPrime) as exc:
        read_prime(6, KernelNotPrime, "kernel has order 6")
    assert exc.value.detail == "kernel has order 6"
    # a prime past the deterministic Miller-Rabin bound is not certified
    with pytest.raises(FactorizationFailed, match="cannot certify"):
        read_prime(2 ** 89 - 1)
