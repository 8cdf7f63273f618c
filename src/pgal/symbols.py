"""Formal p-cyclic algebra symbols with exact splitting decisions over Q for p = 2.

A symbol product is a list of factors (a, b; zeta) plus opaque named classes,
built in canonical form: its entries are expanded once into atom pairs by
exact symbol identities only (bilinearity, p-torsion, (a,-a) = (a,1-a) = 1,
antisymmetry for odd p, p-th power reduction of rational entries and of roots
of unity), and the pairs are kept.  Equal canonical forms always mean equal
Brauer classes; the converse is decided for p = 2 by Hilbert symbols.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .arith import (
    FactorizationFailed,
    factor,
    is_square,
    legendre,
    read_prime,
    valuation,
    without_power_cofactor,
)
from .errors import (
    BadParams,
    NonRationalEntry,
    OpaqueFactorPresent,
    PrimeMismatch,
    SquareA,
    ZeroAlpha,
    ZeroEntry,
    is_integer,
    read_int,
)
from .records import FrozenRecord


def read_exponent(e, name: str = "e") -> int:
    """An exponent a caller gives, as an int; BadParams naming it unless an integer."""
    return read_int(e, BadParams, f"{name} must be an integer, got {name}={e}")


def read_rational(q, name: str = "q") -> Fraction:
    """A rational a caller gives: an integer (errors.is_integer), a Fraction,
    or a string that Fraction parses exactly, such as "3/4".  A float is
    refused, since its binary fraction is not the decimal the caller wrote,
    and so is a bool; BadParams naming it, ZeroEntry for a zero denominator."""
    if isinstance(q, Fraction):
        return q
    if is_integer(q):
        return Fraction(int(q))
    if isinstance(q, str):
        try:
            return Fraction(q)
        except ZeroDivisionError:
            raise ZeroEntry(f"{name}={q!r} has a zero denominator") from None
        except ValueError:
            pass
    raise BadParams(f"{name} must be an integer, a Fraction or a string, got {name}={q!r}")


# -- field elements ------------------------------------------------------------


class FieldElem(FrozenRecord):
    """Exact rational, named indeterminate, root of unity, or a product of those.

    kind is one of "rat", "ind", "zeta", "prod":
      rat  -> payload is a nonzero Fraction
      ind  -> payload is the name string
      zeta -> payload is (root_order, exponent), a primitive root_order-th
              root raised to exponent
      prod -> payload is a tuple of (FieldElem, int exponent) pairs
    A zero rational is refused here, so no symbol entry is ever 0.
    """

    _fields = ("kind", "payload")

    def __init__(self, kind: str, payload):
        if kind == "rat" and payload == 0:
            raise ZeroEntry("0 is not allowed in symbols")
        self._set(kind=kind, payload=payload)

    def key(self):
        if self.kind == "rat":
            return ("rat", self.payload.numerator, self.payload.denominator)
        if self.kind == "ind":
            return ("ind", self.payload)
        if self.kind == "zeta":
            return ("zeta",) + self.payload
        return ("prod", tuple((b.key(), e) for b, e in self.payload))

    def is_one(self) -> bool:
        return self.kind == "rat" and self.payload == 1

    def is_rational(self) -> bool:
        return self.kind == "rat"

    def __str__(self):
        if self.kind == "rat":
            q = self.payload
            return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        if self.kind == "ind":
            return self.payload
        if self.kind == "zeta":
            n, e = self.payload
            return f"z{n}" if e == 1 else f"z{n}^{e}"
        parts = []
        for b, e in self.payload:
            s = str(b)
            if b.kind == "prod" or (b.kind == "rat" and b.payload < 0):
                s = f"({s})"
            parts.append(s if e == 1 else f"{s}^{e}")
        return "*".join(parts)

    def to_json(self):
        if self.kind == "rat":
            q = self.payload
            return {"rat": f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)}
        if self.kind == "ind":
            return {"ind": self.payload}
        if self.kind == "zeta":
            return {"zeta": {"p": self.payload[0], "e": self.payload[1]}}
        return {"prod": [{"base": b.to_json(), "exp": e} for b, e in self.payload]}

    @classmethod
    def from_json(cls, doc) -> "FieldElem":
        if "rat" in doc:
            return rat(doc["rat"])
        if "ind" in doc:
            return ind(doc["ind"])
        if "zeta" in doc:
            return zeta(doc["zeta"]["p"], doc["zeta"].get("e", 1))
        if "prod" in doc:
            out = one()
            for item in doc["prod"]:
                out = elem_mul(out, elem_pow(cls.from_json(item["base"]), item["exp"]))
            return out
        raise NonRationalEntry(f"bad field element document {doc!r}")


def rat(q) -> FieldElem:
    """The rational q, as read_rational reads it."""
    return FieldElem("rat", read_rational(q))


def ind(name: str) -> FieldElem:
    return FieldElem("ind", str(name))


def one() -> FieldElem:
    return FieldElem("rat", Fraction(1))


def zeta(order: int, e: int = 1) -> FieldElem:
    """zeta_order^e, reduced: order 1 or exponent 0 gives 1, order 2 gives -1."""
    order = read_int(order, BadParams, f"order must be an integer >= 1, got order={order}", 1)
    e = read_exponent(e) % order
    g = gcd(order, e) if e else order
    order, e = order // g, e // g
    if order == 1:
        return one()
    if order == 2:
        return rat(-1)
    return FieldElem("zeta", (order, e))


def elem_canon(x: FieldElem) -> FieldElem:
    """Flatten and merge products; collapse rationals and zeta powers."""
    if x.kind != "prod":
        if x.kind == "zeta":
            return zeta(*x.payload)
        return x
    q = Fraction(1)
    zetas: dict[int, int] = {}
    others: dict = {}
    stack = [(x, 1)]
    while stack:
        elem, e = stack.pop()
        if e == 0:
            continue
        if elem.kind == "prod":
            for b, be in elem.payload:
                stack.append((b, be * e))
        elif elem.kind == "rat":
            q *= elem.payload ** e
        elif elem.kind == "zeta":
            n, k = elem.payload
            zetas[n] = zetas.get(n, 0) + k * e
        else:
            key = elem.key()
            cur = others.get(key, (elem, 0))
            others[key] = (elem, cur[1] + e)
    factors: list[tuple[FieldElem, int]] = []
    for n in sorted(zetas):
        z = zeta(n, zetas[n] % n)
        if z.kind == "zeta":
            factors.append((z, 1))
        elif z.kind == "rat":
            q *= z.payload
    for key in sorted(others):
        elem, e = others[key]
        if e:
            factors.append((elem, e))
    if not factors:
        return FieldElem("rat", q)
    if q != 1:
        factors.insert(0, (FieldElem("rat", q), 1))
    if len(factors) == 1 and factors[0][1] == 1:
        return factors[0][0]
    return FieldElem("prod", tuple(factors))


def elem_mul(*xs: FieldElem) -> FieldElem:
    return elem_canon(FieldElem("prod", tuple((x, 1) for x in xs)))


def elem_pow(x: FieldElem, e: int) -> FieldElem:
    return elem_canon(FieldElem("prod", ((x, read_exponent(e)),)))


def elem_neg(x: FieldElem) -> FieldElem:
    return elem_mul(rat(-1), x)


# -- symbol products -----------------------------------------------------------


class SymbolProduct(FrozenRecord):
    """Formal product of p-cyclic algebra classes (a, b; zeta)^e.

    It keeps the atom pairs its raw factors expand to (_expand) and the
    failure of each entry factor could not split, so nothing factors again."""

    _fields = ("p", "factors", "opaque")

    # factors: (FieldElem, FieldElem) pairs, exponent folded; opaque: (name, exponent mod p) pairs
    def __init__(self, p: int, factors: tuple, opaque: tuple):
        p, unsplit = read_prime(p), {}
        opaque = [(name, read_exponent(e, "exp")) for name, e in opaque]
        _regroup(self, p, _expand(factors, p, unsplit), opaque, unsplit)

    def is_trivial_form(self) -> bool:
        return not self.factors and not self.opaque

    def mul(self, *others: "SymbolProduct") -> "SymbolProduct":
        """self times others: every prime checked first, then one regrouping."""
        for other in others:
            if self.p != other.p:
                raise PrimeMismatch(f"cannot multiply p={self.p} and p={other.p} symbols")
        factors = (self, *others)
        return _regroup(SymbolProduct.__new__(SymbolProduct), self.p,
                        [item for P in factors for item in P._pairs.items()],
                        [item for P in factors for item in P.opaque],
                        {atom: d for P in factors for atom, d in P._unsplit.items()})

    def pow(self, e: int) -> "SymbolProduct":
        e = read_exponent(e)
        return _regroup(SymbolProduct.__new__(SymbolProduct), self.p,
                        [(pair, k * e) for pair, k in self._pairs.items()],
                        [(name, k * e) for name, k in self.opaque], self._unsplit)

    def __str__(self):
        if self.is_trivial_form():
            return "1"
        parts = []
        for name, e in self.opaque:
            parts.append(f"[{name}]" + (f"^{e}" if e != 1 else ""))
        for l, r in self.factors:
            if self.p == 2:
                parts.append(f"({l},{r})")
            else:
                parts.append(f"({l},{r};z{self.p})")
        return "".join(parts)

    def to_json(self):
        return {
            "p": self.p,
            "factors": [{"left": l.to_json(), "right": r.to_json(), "exp": 1}
                        for l, r in self.factors],
            "opaque": [{"name": n, "exp": e} for n, e in self.opaque],
        }

    @classmethod
    def from_json(cls, doc) -> "SymbolProduct":
        p = doc["p"]
        fs = []
        for f in doc.get("factors", []):
            fs.append((FieldElem.from_json(f["left"]),
                       elem_pow(FieldElem.from_json(f["right"]), f.get("exp", 1))))
        op = tuple((o["name"], o["exp"]) for o in doc.get("opaque", []))
        return cls(p, tuple(fs), op)


def trivial(p: int) -> SymbolProduct:
    return SymbolProduct(p, (), ())


def symbol(a: FieldElem, b: FieldElem, p: int) -> SymbolProduct:
    """The class of the p-cyclic algebra (a, b; zeta_p)."""
    return SymbolProduct(p, ((a, b),), ())


def opaque_class(name: str, p: int, exp: int = 1) -> SymbolProduct:
    return SymbolProduct(p, (), ((str(name), exp),))


def _atoms(x: FieldElem, p: int, unsplit: dict):
    """Multiplicative atoms (prime, indeterminate, zeta base) with exponents mod p.

    A cofactor that trial division leaves and that is a p-th power adds
    nothing mod p and is not factored (arith.without_power_cofactor).  An
    entry factor cannot split is one atom, unreduced, and unsplit maps it
    to the detail of its FactorizationFailed.  zeta_n^e, n = p^k m
    with p prime to m, is zeta_{p^k}^(e/m mod p^k) times a p-th power, so its
    atom is zeta_{p^k} (-1 when p^k = 2), and none when k = 0."""
    x = elem_canon(x)
    if x.kind == "rat":
        out = []
        q = x.payload
        if q < 0 and p == 2:
            out.append((rat(-1), 1))
            q = -q
        try:
            n = without_power_cofactor(abs(q.numerator * q.denominator ** (p - 1)), p)
            for prime, e in sorted(factor(n).items()):
                if e % p:
                    out.append((rat(prime), e % p))
        except FactorizationFailed as exc:
            unsplit[rat(q)] = exc.detail
            out.append((rat(q), 1))
        return out
    if x.kind == "ind":
        return [(x, 1)]
    if x.kind == "zeta":
        n, e = x.payload
        pk = gcd(n, p ** n.bit_length())  # the p-part of n
        e = e * pow(n // pk, -1, pk) % p  # 0 when pk = 1
        return [(zeta(pk, 1), e)] if e else []
    out = []
    for b, e in x.payload:
        for atom, ae in _atoms(b, p, unsplit):
            out.append((atom, (ae * e) % p))
    return out


def _one_minus_rule(a: FieldElem, b: FieldElem) -> bool:
    """(a, 1-a) = 1, checked on rational entries in both orientations."""
    if a.is_rational() and b.is_rational():
        return b.payload == 1 - a.payload or a.payload == 1 - b.payload
    return False


def _expand(factors, p: int, unsplit: dict) -> list:
    """The atom pairs of raw factors (l, r), each entry factored once, as
    ((left atom, right atom), exponent) items; unsplit gains the atoms of
    entries factor could not split.

    Factors are expanded bilinearly, and the exact identities (a,-a) =
    (a,1-a) = 1, (x,x) = (x,-1), p-torsion and odd-p antisymmetry are
    applied to the atom pairs, so that a pair's left atom has the smaller key.
    """
    pairs = []
    for l, r in factors:
        l, r = elem_canon(l), elem_canon(r)
        if l.is_one() or r.is_one() or _one_minus_rule(l, r):
            continue
        rights = _atoms(r, p, unsplit)
        for la0, le in _atoms(l, p, unsplit):
            for ra0, re in rights:
                la, ra = la0, ra0
                e = (le * re) % p
                if not e:
                    continue
                if la.key() == ra.key():
                    if p != 2:
                        continue                      # (x, x) = 1 for odd p
                    if not (la.is_rational() and la.payload == -1):
                        ra = rat(-1)                  # (x, x) = (x, -1) at p = 2
                if _one_minus_rule(la, ra):
                    continue
                if ra.key() < la.key():
                    la, ra = ra, la
                    if p != 2:
                        e = -e
                pairs.append(((la, ra), e))
    return pairs


def _sum_mod(items, p: int) -> dict:
    """{key: the sum of its exponents mod p} over (key, exponent) items, nonzero sums only."""
    out: dict = {}
    for key, e in items:
        out[key] = out.get(key, 0) + e
    return {key: e % p for key, e in out.items() if e % p}


def _regroup(P: SymbolProduct, p: int, pairs, opaque, unsplit: dict) -> SymbolProduct:
    """Set P's fields from (atom pair, exponent) and (opaque name, exponent)
    items summed mod p: it keeps the pairs, and factors groups them by left
    atom, so that expanding factors gives the pairs back.  Hence an atom
    factor could not split, which it could not split in a product either,
    merges into a right entry only as its one rational atom besides -1,
    with exponent 1; else its pair is repeated once per unit of exponent."""
    pairs = _sum_mod(pairs, p)
    groups: dict = {}
    for la, ra in sorted(pairs, key=lambda pair: (pair[0].key(), pair[1].key())):
        groups.setdefault(la, []).append((ra, pairs[la, ra]))
    factors = []
    for la, rights in groups.items():
        rats = [e for ra, e in rights if ra.is_rational() and ra.payload != -1]
        apart = [] if rats == [1] else [ra for ra, _ in rights if ra in unsplit]
        r = elem_canon(FieldElem("prod", tuple((ra, e) for ra, e in rights if ra not in apart)))
        if not r.is_one():
            factors.append((la, r))
        factors.extend((la, ra) for ra, e in rights if ra in apart for _ in range(e))
    P._set(p=p, factors=tuple(factors), opaque=tuple(sorted(_sum_mod(opaque, p).items())),
           _pairs=pairs, _unsplit={a: unsplit[a] for pair in pairs for a in pair if a in unsplit})
    return P


def normalize(P: SymbolProduct) -> SymbolProduct:
    """P itself, since every SymbolProduct is built in canonical form; the
    name stays for perfbench/spans.py, which wraps it."""
    return P


# -- Hilbert symbols and splitting over Q ---------------------------------------


def _split_off(q: Fraction, l: int) -> tuple[int, int]:
    """(v, u) with q = l^v a/b, l prime to a and b, and u = ab.

    u stands for the unit a/b: the two differ by the square b^2, so no
    Hilbert symbol tells them apart."""
    (v_num, num), (v_den, den) = valuation(q.numerator, l), valuation(q.denominator, l)
    return v_num - v_den, num * den


def hilbert_local(a, b, place) -> int:
    """Local Hilbert symbol (a, b)_place over Q; place is a prime, or 'inf',
    'infinity' or the integer 0 for the real place; a and b as read_rational
    reads them."""
    a, b = read_rational(a, "a"), read_rational(b, "b")
    if a == 0 or b == 0:
        raise ZeroEntry("Hilbert symbol entries must be nonzero")
    if place in ("inf", "infinity") or is_integer(place) and place == 0:
        return -1 if (a < 0 and b < 0) else 1
    l = read_prime(place, BadParams, f"place must be a prime, 0 or 'inf', got place={place}")
    if l == 2:
        va, ua = _split_off(a, 2)
        vb, ub = _split_off(b, 2)
        eps = ((ua - 1) // 2) * ((ub - 1) // 2)
        omega_a = (ua * ua - 1) // 8
        omega_b = (ub * ub - 1) // 8
        s = eps + va * omega_b + vb * omega_a
        return -1 if s % 2 else 1
    va, ua = _split_off(a, l)
    vb, ub = _split_off(b, l)
    s = va * vb * ((l - 1) // 2)
    sym = (-1) ** (s % 2)
    if vb % 2:
        sym *= legendre(ua, l)
    if va % 2:
        sym *= legendre(ub, l)
    return sym


def relevant_places(entries) -> list:
    """infinity, 2, and all odd primes dividing any entry's numerator or denominator.

    It factors the raw entries it is given.  splits_over_Q reads the atoms
    a product stores instead: their odd primes are among those of the raw
    entries it was built from, and at any other odd prime both entries of
    each stored symbol are units, so that symbol is 1 there.  The entries
    are read by read_rational."""
    places = {2}
    for q in entries:
        q = read_rational(q, "entry")
        facs = factor(q.numerator * q.denominator)
        places.update(pr for pr in facs if pr != 2)
    return ["inf"] + sorted(places)


def splits_over_Q(P: SymbolProduct) -> bool:
    """True iff the class is trivial in Br(Q); p = 2, rational entries only.

    The places are infinity, 2 and the odd primes among the stored atoms,
    read without factoring again.  relevant_places of the raw entries may
    add primes; at those, both entries of each stored symbol are units, so
    every symbol here is 1."""
    if P.p != 2:
        raise PrimeMismatch("splitting decision implemented for p = 2 only")
    if P.opaque:
        raise OpaqueFactorPresent("opaque factors block evaluation")
    rats = []
    for l, r in P.factors:
        if not (l.is_rational() and r.is_rational()):
            raise NonRationalEntry(f"non-rational entry in ({l},{r})")
        rats.append((l.payload, r.payload))
    # the places: infinity, 2 and the odd prime atoms of the stored pairs
    places = {2}
    for atom in sorted({atom for pair in P._pairs for atom in pair}, key=FieldElem.key):
        if atom in P._unsplit:
            raise FactorizationFailed(P._unsplit[atom])
        places.add(abs(atom.payload.numerator))
    places.discard(1)
    for place in ["inf"] + sorted(places):
        total = 1
        for a, b in rats:
            total *= hilbert_local(a, b, place)
        if total != 1:
            return False
    return True


# -- corestriction formulas -----------------------------------------------------


def projection_corestriction(norm_of_delta: FieldElem, b: FieldElem, p: int) -> SymbolProduct:
    """cor(delta, b; zeta) = (N(delta), b; zeta); the norm is supplied by the caller."""
    return symbol(norm_of_delta, b, p)


def quad_corestriction(a, a0, b0, a1, b1) -> SymbolProduct:
    """Corestriction of (a0+b0*sqrt(a), a1+b1*sqrt(a)) from k(sqrt a) down to k.

    Case order: a vanishing b entry first, then proportional entries, then
    the generic two-factor formula.  The entries are read by read_rational.
    """
    a, a0, b0, a1, b1 = map(read_rational, (a, a0, b0, a1, b1), ("a", "a0", "b0", "a1", "b1"))
    if is_square(a):
        raise SquareA(f"{a} is a square; the quadratic extension is split")
    if (a0, b0) == (0, 0) or (a1, b1) == (0, 0):
        raise ZeroAlpha("alpha entries must be nonzero")
    pairs = [(a0, b0), (a1, b1)]

    def norm(i):
        ai, bi = pairs[i]
        return ai * ai - a * bi * bi

    for i in (0, 1):
        if pairs[1 - i][1] == 0:
            left = pairs[1 - i][0]
            return _quat(left, norm(i))
    if a1 * b0 - a0 * b1 == 0:
        return _quat(-a0 * a1, norm(0))
    f1 = _quat(norm(0), b0 * (a1 * b0 - a0 * b1))
    f2 = _quat(norm(1), b1 * (a0 * b1 - a1 * b0))
    return f1.mul(f2)


def _quat(x: Fraction, y: Fraction) -> SymbolProduct:
    if x == 0 or y == 0:
        raise ZeroEntry("degenerate corestriction input yields a zero entry")
    return symbol(rat(x), rat(y), 2)
