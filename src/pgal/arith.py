"""Exact integer arithmetic: primality, a caller's prime, factorization, valuations, Legendre.

Factorization is trial division by the primes below min(bound, 2^10)
followed by Brent's variant of Pollard rho, which finds a prime q in about
sqrt(q) steps and gets 4 * bound of them per attempt; the bound is
configurable (PGAL_FACTOR_BOUND).  Primes come in increasing order.  A
failure to split a composite within the budget raises FactorizationFailed;
we never return a wrong factorization.
Primality is Miller-Rabin, deterministic below MILLER_RABIN_BOUND; above it
a number that passes every base raises FactorizationFailed as well.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from itertools import compress
from typing import TYPE_CHECKING

from .errors import BadParams, FactorizationFailed, is_integer, read_int

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_TRIAL_BOUND = 10 ** 6

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
# psi_13, the least strong pseudoprime to every prime base up to 41
# (Sorenson & Webster, Math. Comp. 86, 2017)
MILLER_RABIN_BOUND = 3317044064679887385961981


def factor_bound() -> int:
    """Current factoring bound: trial division stops at min(bound, 2^10) and
    rho gets 4 * bound steps per attempt.  PGAL_FACTOR_BOUND overrides the
    default."""
    raw = os.environ.get("PGAL_FACTOR_BOUND")
    if raw is None:
        return DEFAULT_TRIAL_BOUND
    try:
        return max(2, int(raw))
    except ValueError:
        return DEFAULT_TRIAL_BOUND


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 41, deterministic below
    MILLER_RABIN_BOUND.  A composite is always reported composite; an n at or
    above the bound that passes every base raises FactorizationFailed."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    r, d = valuation(n - 1, 2)
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MILLER_RABIN_BOUND:
        raise FactorizationFailed(
            f"cannot certify {n} prime: Miller-Rabin with the prime bases up to 41 "
            f"is proven only below {MILLER_RABIN_BOUND}")
    return True


def read_prime(p, error=BadParams, detail: str | None = None) -> int:
    """The one check of a p a caller gives: p as an int if it is a prime integer by
    errors.is_integer's rule, else error(detail or "p must be prime, got p=...")."""
    detail = detail or f"p must be prime, got p={p}"
    p = read_int(p, error, detail)
    if not is_prime(p):
        raise error(detail)
    return p


def valuation(n: int, p: int) -> tuple[int, int]:
    """(v, n // p^v) for n != 0 and p >= 2, v the largest with p^v | n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _brent_rho(n: int, max_steps: int) -> int:
    """One Brent-rho attempt; returns a nontrivial factor or 0 on failure."""
    import random

    if n % 2 == 0:
        return 2
    rng = random.Random(0xC0FFEE ^ n)
    for _ in range(16):
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        steps = 0
        x = ys = y
        while g == 1 and steps < max_steps:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
            steps += r
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return 0


def factor(n: int) -> dict[int, int]:
    """Factor |n| into primes, returned as {prime: exponent}.

    The primes come in increasing order.  Raises FactorizationFailed if a
    cofactor survives trial division and the rho budget of the configured
    bound.  Every call gets a fresh dict.
    """
    return dict(_factor(abs(n), factor_bound()))


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n >= 2, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for d in range(2, math.isqrt(n - 1) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, n, d)))
    return tuple(compress(range(n), sieve))


# the primes below 2^10, which trial division tries; rho splits off the rest
_TRIAL_PRIMES = _primes_below(1 << 10)


def _factor(n: int, bound: int) -> tuple[tuple[int, int], ...]:
    """The factorisation of n >= 0 as (prime, exponent) pairs in increasing
    order: _trial_division, then _cofactor_primes on what it leaves."""
    if n == 0:
        raise FactorizationFailed("cannot factor 0")
    out, n = _trial_division(n, bound)
    if n > 1:
        found = _cofactor_primes(n, bound)
        if isinstance(found, str):
            raise FactorizationFailed(found)
        out.update(found)
    return tuple(sorted(out.items()))


def _trial_division(n: int, bound: int) -> tuple[dict[int, int], int]:
    """The small primes of n >= 1 and the cofactor left, 1 when there is none.

    2, 3 and 5 are divided out, then each prime d < 2^10 with d <= bound
    while d^2 <= n, n the cofactor so far.  What is left is prime when it is
    below d^2 for the last d reached, since every prime below d was tried,
    and then counts among the primes."""
    out: dict[int, int] = {}
    for d in _TRIAL_PRIMES:
        if d > 5 and (d > bound or d * d > n):
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    if n > 1 and d * d > n:
        out[n], n = 1, 1
    return out, n


def _is_power(m: int, k: int) -> bool:
    """m >= 2 is r^k for an integer r >= 2, by Newton's method for the root."""
    if m.bit_length() <= k:  # r >= 2 needs m >= 2^k
        return False
    r = 1 << -(-m.bit_length() // k)  # above the root
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r ** k == m
        r = s


def without_power_cofactor(n: int, k: int) -> int:
    """n >= 1, or its trial-division part when the cofactor trial division
    leaves is a perfect k-th power.  That cofactor adds only multiples of k
    to the exponents, so factor of the result agrees with factor(n) mod k;
    and rho never runs on a square (at k = 2) that it could not split, such
    as the product of two entries that share a cofactor."""
    _, m = _trial_division(n, factor_bound())
    return n // m if m > 1 and _is_power(m, k) else n


@lru_cache(maxsize=1024)
def _cofactor_primes(m: int, bound: int) -> tuple[tuple[int, int], ...] | str:
    """The factorisation of a cofactor m > 1 that survived trial division,
    by is_prime and Brent rho, or the detail of the failure that ended it.
    The one memo of factoring: keyed on the cofactor, it also serves entries
    that share one (df, df/2 and their twists), and keeps failures."""
    out: dict[int, int] = {}
    stack = [m]
    while stack:
        m = stack.pop()
        try:
            prime = is_prime(m)
        except FactorizationFailed as exc:  # past psi_13, it passes every base
            return exc.detail
        if prime:
            out[m] = out.get(m, 0) + 1
            continue
        g = _brent_rho(m, max_steps=4 * bound)
        if not g or g in (1, m):
            return f"could not split composite {m}"
        stack.append(g)
        stack.append(m // g)
    return tuple(sorted(out.items()))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def is_square(q: Fraction | int) -> bool:
    """q is the square of a rational, for q an integer (errors.is_integer)
    or a Fraction; anything else, a float or a bool too, is BadParams."""
    from fractions import Fraction

    if not (is_integer(q) or isinstance(q, Fraction)):
        raise BadParams(f"q must be an integer or a Fraction, got q={q!r}")
    q = Fraction(int(q)) if is_integer(q) else q
    if q <= 0:
        return q == 0
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator
