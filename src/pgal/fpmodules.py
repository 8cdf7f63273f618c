"""Modules over F_p[Z/p^n Z] as summand-length multisets, and the
solvability / solution-counting machinery for module-kernel embedding
problems, including exact p-binomial coefficients.
"""

from __future__ import annotations

from .errors import BadIndex, Mismatch, NotSolvable, check_order
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


class FpGModule(Record):
    """Direct sum of d_i copies of F_p[G]/(sigma-1)^i, G cyclic of order p^n
    (at most MAX_ORDER, else OrderTooLarge)."""

    _fields = ("p", "n", "d")

    def __init__(self, p: int, n: int, d: dict | None = None):
        self.p, self.n = p, n
        check_order(p, n)  # before p^n is formed
        top = p ** n
        clean = {}
        for i, m in (d or {}).items():
            i, m = int(i), int(m)
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
    """Gaussian binomial at q = p; zero when m < 0 or m > n, exact integer otherwise."""
    if m < 0 or m > n:
        return 0
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
        self.p, self.n, self.i_invariant = p, n, i_invariant
        self.base_quotient_finite = base_quotient_finite
        check_order(p, n)  # before p^n is formed
        top = p ** n
        dims = {int(i): int(v) for i, v in dims.items()}
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
        if self.i_invariant is not None and not 0 <= self.i_invariant <= self.n - 1:
            raise Mismatch(f"i invariant must be None or in 0..{self.n - 1}")

    @classmethod
    def from_levels(cls, p: int, n: int, levels, i_invariant=None,
                    base_quotient_finite=True) -> "NormData":
        """Build from one dimension per level 0..n (the ceil-log blocks)."""
        levels = [int(v) for v in levels]
        if len(levels) != n + 1:
            raise Mismatch(f"need {n + 1} level dimensions, got {len(levels)}")
        check_order(p, n)
        dims = {i: levels[_level(i, p)] for i in range(1, p ** n + 1)}
        return cls(p, n, dims, i_invariant, base_quotient_finite)


def _level(i: int, p: int) -> int:
    """ceil(log_p i), computed exactly: the least s with p^s >= i."""
    s, v = 0, 1
    while v < i:
        v *= p
        s += 1
    return s


def _deltas(A: FpGModule) -> list:
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
    deltas = _deltas(A)
    return all(deltas[i] <= nd.dims[i] for i in range(1, len(deltas) - 1))


def count_solutions(A: FpGModule, nd: NormData):
    """Number of solutions, or INFINITE when the base quotient is infinite.

    Evaluates the counting product, with the sum over j < i in the exponent
    carried from one i to the next; the indicator at i = p^(i(K/k)) + 1 is
    taken as false when the invariant is -infinity.
    """
    if not solvable(A, nd):
        raise NotSolvable("the embedding problem is not solvable")
    if not nd.base_quotient_finite:
        return INFINITE
    p = A.p
    top = p ** A.n
    marker = None if nd.i_invariant is None else p ** nd.i_invariant + 1
    deltas = _deltas(A)
    total = 1
    carried = 0  # sum over j < i of D_j - Delta(A_j)
    for i in range(1, top + 1):
        d_i = A.d.get(i, 0)
        ind = 1 if marker == i else 0
        topval = nd.dims[i] - deltas[i + 1] - ind
        botval = deltas[i] - deltas[i + 1]
        total *= p_binomial(topval, botval, p)
        # at i = top the indicator of j = marker < i enters the exponent too
        ind_j = 1 if (i == top and marker is not None and marker < i) else 0
        total *= p ** (d_i * (carried - ind_j))
        carried += nd.dims[i] - deltas[i]
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
