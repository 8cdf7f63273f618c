"""Exact integer arithmetic helpers: primality, factorization, Legendre symbols.

Factorization is trial division up to a configurable bound followed by
Brent's variant of Pollard rho.  A failure to split a composite within the
budget raises FactorizationFailed; we never return a wrong factorization.
Primality is Miller-Rabin, deterministic below MILLER_RABIN_BOUND; above it
a number that passes every base raises FactorizationFailed as well.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction
from functools import lru_cache

from .errors import FactorizationFailed

DEFAULT_TRIAL_BOUND = 10 ** 6

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
# psi_13, the least strong pseudoprime to every prime base up to 41
# (Sorenson & Webster, Math. Comp. 86, 2017)
MILLER_RABIN_BOUND = 3317044064679887385961981


def factor_bound() -> int:
    """Current trial-division bound; PGAL_FACTOR_BOUND overrides the default."""
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
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
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


def _brent_rho(n: int, max_steps: int) -> int:
    """One Brent-rho attempt; returns a nontrivial factor or 0 on failure."""
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

    Raises FactorizationFailed if a cofactor survives trial division to the
    configured bound and the rho budget.  Results are memoised in a bounded
    cache keyed on |n| and the bound; every call gets a fresh dict.
    """
    return dict(_factor_cached(abs(n), factor_bound()))


_WHEEL = (0, 4, 6, 10, 12, 16, 22, 24)  # 7 + these are the residues prime to 30
_CHUNK = 30 * 2048


@lru_cache(maxsize=1024)
def _factor_cached(n: int, bound: int) -> tuple[tuple[int, int], ...]:
    """The factorisation of n >= 0 as (prime, exponent) pairs, in the order
    found; a tuple, so no caller can change a cached result."""
    if n == 0:
        raise FactorizationFailed("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # trial division by the d >= 7 prime to 30 with d^2 <= n and d <= bound,
    # n the cofactor so far: one comprehension per residue class and chunk,
    # then the chunk's divisors in increasing order (a composite one finds
    # its primes divided out already).  The limit is read again after each
    # chunk; a divisor d past the current root can only be n itself, a
    # prime, which leaves the same factorisation as a cofactor would
    lo, limit = 7, min(bound, math.isqrt(n))
    while lo <= limit:
        end = min(lo + _CHUNK, limit + 1)
        hits = []
        for r in _WHEEL:
            hits += [d for d in range(lo + r, end, 30) if not n % d]
        for d in sorted(hits):
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
        lo += _CHUNK
        limit = min(bound, math.isqrt(n))
    if n > 1:
        # every prime of the cofactor exceeds every prime found above
        out.update(_split(n, bound))
    return tuple(out.items())


@lru_cache(maxsize=256)
def _split(m: int, bound: int) -> tuple[tuple[int, int], ...]:
    """The factorisation of a cofactor m > 1 that survived trial division,
    by is_prime and Brent rho.  Memoised on its own, since the numbers one
    request factors often share it (df, df/2 and their twists)."""
    out: dict[int, int] = {}
    stack = [m]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        g = _brent_rho(m, max_steps=4 * bound)
        if not g or g in (1, m):
            raise FactorizationFailed(f"could not split composite {m}")
        stack.append(g)
        stack.append(m // g)
    return tuple(out.items())


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def is_square(q: Fraction | int) -> bool:
    q = Fraction(q)
    if q <= 0:
        return q == 0
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator
