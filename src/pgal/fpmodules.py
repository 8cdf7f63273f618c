"""Modules over F_p[Z/p^n Z] as summand-length multisets, and the
solvability / solution-counting machinery for module-kernel embedding
problems, including exact p-binomial coefficients.
"""

from __future__ import annotations

from .arith import read_prime
from .errors import (
    BadIndex,
    BadParams,
    Mismatch,
    NotSolvable,
    check_digits,
    check_order,
    read_int,
)
from .records import Record


class Infinite:
    """Sentinel for an infinite solution count."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinite"


INFINITE = Infinite()


def _read_pn(p, n) -> tuple[int, int]:
    """p and n as ints: BadParams unless p is a prime integer and n an
    integer >= 0, and OrderTooLarge for p^n past MAX_ORDER, checked before
    p^n is formed or a p of order past the cap is tested for primality."""
    p = read_int(p, BadParams, f"p must be prime, got p={p}")
    n = read_int(n, BadParams, f"n must be an integer >= 0, got n={n}", 0)
    check_order(p, n)
    return read_prime(p), n


class FpGModule(Record):
    """Direct sum of d_i copies of F_p[G]/(sigma-1)^i, G cyclic of order p^n
    (at most MAX_ORDER, else OrderTooLarge)."""

    _fields = ("p", "n", "d")

    def __init__(self, p: int, n: int, d: dict | None = None):
        self.p, self.n = p, n = _read_pn(p, n)
        top = p ** n
        clean = {}
        for i, m in (d or {}).items():
            i, m = (read_int(x, BadIndex, "summand lengths and multiplicities must be integers")
                    for x in (i, m))
            if m < 0 or not 1 <= i <= top:
                raise BadIndex(f"summand length {i} outside 1..{top} or negative multiplicity")
            if m:
                clean[i] = clean.get(i, 0) + m
        self.d = clean

    def lengths(self) -> list:
        return [i for i in sorted(self.d) for _ in range(self.d[i])]

    def is_zero(self) -> bool:
        return not self.d


def delta(A: FpGModule, i: int) -> int:
    """Tail count Delta(A_{i}) = sum of d_j over j >= i."""
    top = A.p ** A.n
    if not 1 <= i <= top + 1:
        raise BadIndex(f"index {i} outside 1..{top + 1}")
    return sum(m for j, m in A.d.items() if j >= i)


def p_binomial(n: int, m: int, p: int) -> int:
    """Gaussian binomial at q = p; zero when m < 0 or m > n, exact integer
    otherwise, in min(m, n - m) steps, as [n, m] = [n, n - m]."""
    if m < 0 or m > n:
        return 0
    m = min(m, n - m)
    num = 1
    den = 1
    for t in range(m):
        num *= p ** (n - t) - 1
        den *= p ** (t + 1) - 1
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("p-binomial did not divide exactly")
    return q


class NormData(Record):
    """Norm-group dimensions D_{i} plus the level invariant i(K/k).

    dims maps i in 1..p^n to a non-negative integer and must be constant on
    the blocks p^(s-1) < i <= p^s (the value only depends on ceil(log_p i),
    with ceil(log_p 1) = 0).  i_invariant is None for -infinity, else an
    integer in 0..n-1.  base_quotient_finite records whether k*/K*^p is
    finite.
    """

    _fields = ("p", "n", "dims", "i_invariant", "base_quotient_finite")

    def __init__(self, p: int, n: int, dims: dict, i_invariant: int | None = None,
                 base_quotient_finite: bool = True):
        self.p, self.n = p, n = _read_pn(p, n)
        self.i_invariant, self.base_quotient_finite = i_invariant, base_quotient_finite
        top = p ** n
        detail = "norm dimension indices and values must be integers"
        dims = {read_int(i, Mismatch, detail): read_int(v, Mismatch, detail)
                for i, v in dims.items()}
        for i in range(1, top + 1):
            if i not in dims:
                raise Mismatch(f"missing norm dimension for i={i}")
            if dims[i] < 0:
                raise Mismatch("norm dimensions must be non-negative")
        for i in range(2, top + 1):
            if _level(i, self.p) == _level(i - 1, self.p) and dims[i] != dims[i - 1]:
                raise Mismatch(
                    f"dims must be constant on ceil(log_p) blocks; differ at {i - 1},{i}")
        self.dims = dims
        if i_invariant is not None:
            read_int(i_invariant, Mismatch, f"i invariant must be None or in 0..{n - 1}", 0, n)

    @classmethod
    def from_levels(cls, p: int, n: int, levels, i_invariant=None,
                    base_quotient_finite=True) -> "NormData":
        """Build from one dimension per level 0..n (the ceil-log blocks)."""
        p, n = _read_pn(p, n)
        levels = list(levels)  # NormData reads each as a dimension
        if len(levels) != n + 1:
            raise Mismatch(f"need {n + 1} level dimensions, got {len(levels)}")
        dims = {i: levels[_level(i, p)] for i in range(1, p ** n + 1)}
        return cls(p, n, dims, i_invariant, base_quotient_finite)


def _level(i: int, p: int) -> int:
    """ceil(log_p i), computed exactly: the least s with p^s >= i."""
    s, v = 0, 1
    while v < i:
        v *= p
        s += 1
    return s


def deltas(A: FpGModule) -> list:
    """[0, Delta(A_{1}), ..., Delta(A_{p^n + 1})], by one suffix sum."""
    top = A.p ** A.n
    out = [0] * (top + 2)
    for j, m in A.d.items():
        out[j] += m
    for i in range(top, 0, -1):
        out[i] += out[i + 1]
    return out


def solvable(A: FpGModule, nd: NormData) -> bool:
    """Delta(A_{i}) <= D_{i} for every i in 1..p^n."""
    if (A.p, A.n) != (nd.p, nd.n):
        raise Mismatch("module and norm data have different (p, n)")
    tail = deltas(A)
    return all(tail[i] <= nd.dims[i] for i in range(1, len(tail) - 1))


def count_solutions(A: FpGModule, nd: NormData):
    """Number of solutions, or INFINITE when the base quotient is infinite.

    Evaluates the counting product, with the sum over j < i in the exponent
    carried from one i to the next; the indicator at i = p^(i(K/k)) + 1 is
    taken as false when the invariant is -infinity.  A count of more than
    MAX_DIGITS decimal digits is BadParams: each p-binomial [n, m] lies
    between p^(m(n-m)) and 4 p^(m(n-m)), so the count is at least p^E, E the
    sum of those exponents and of the powers of p, and a p^E past the limit
    is refused before any factor is formed.
    """
    if not solvable(A, nd):
        raise NotSolvable("the embedding problem is not solvable")
    if not nd.base_quotient_finite:
        return INFINITE
    p = A.p
    top = p ** A.n
    marker = None if nd.i_invariant is None else p ** nd.i_invariant + 1
    tail = deltas(A)
    factors, E = [], 0
    carried = 0  # sum over j < i of D_j - Delta(A_j)
    for i in range(1, top + 1):
        ind = 1 if marker == i else 0
        topval = nd.dims[i] - tail[i + 1] - ind
        botval = tail[i] - tail[i + 1]
        if not 0 <= botval <= topval:
            # a zero factor; it comes first where carried = 0 below would
            # give a negative power, as that forces D = Delta at the marker
            return 0
        # at i = top the indicator of j = marker < i enters the exponent too
        ind_j = 1 if (i == top and marker is not None and marker < i) else 0
        power = A.d.get(i, 0) * (carried - ind_j)
        factors.append((topval, botval, power))
        E += botval * (topval - botval) + power
        carried += nd.dims[i] - tail[i]
    check_digits(p, E, "the solution count")
    total = 1
    for topval, botval, power in factors:
        total *= p_binomial(topval, botval, p) * p ** power
    check_digits(total, 1, "the solution count")
    return total


def ei_solvability(p: int, norm_condition: bool) -> list:
    """Solvability of E_2..E_p: all equivalent to the norm condition."""
    return [bool(norm_condition)] * (p - 1)


def mss_quotient(j: int, p: int, n: int) -> FpGModule:
    """The ring quotient M_j = F_p[G]/(sigma-1)^j as a module: one length-j summand."""
    check_order(p, n)
    if not 1 <= j <= p ** n:
        raise BadIndex(f"need 1 <= j <= p^n, got j={j}")
    return FpGModule(p, n, {j: 1})
