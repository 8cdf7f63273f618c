"""Symbolic solution expressions for solvable embedding problems.

Solutions are certificates, not field elements: the exponent algebra in the
integral group ring Z[C_n] is verified exactly, and radicands are emitted
as formal words in named witnesses.  Root extraction in number fields is
out of scope.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import read_prime
from .errors import BadI, BadTheorem, MissingWitness, read_int
from .records import FrozenRecord
from .symbols import FieldElem


class GroupRingElem(FrozenRecord):
    """Element sum c_i sigma^i of Z[C_n], coefficients as plain integers."""

    _fields = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple):
        n = read_int(n, BadI, f"n must be an integer >= 1, got n={n}", 1)
        if len(coeffs) != n:
            raise BadI(f"need {n} coefficients, got {len(coeffs)}")
        self._set(n=n, coeffs=tuple(read_int(c, BadI, f"coefficients must be integers, got {c}")
                                    for c in coeffs))

    def add(self, other: "GroupRingElem") -> "GroupRingElem":
        return GroupRingElem(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def sub(self, other: "GroupRingElem") -> "GroupRingElem":
        return GroupRingElem(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def mul(self, other: "GroupRingElem") -> "GroupRingElem":
        out = [0] * self.n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[(i + j) % self.n] += a * b
        return GroupRingElem(self.n, tuple(out))

    def scale(self, k: int) -> "GroupRingElem":
        return GroupRingElem(self.n, tuple(k * c for c in self.coeffs))

    def pow(self, e: int) -> "GroupRingElem":
        out = ring_one(self.n)
        for _ in range(read_int(e, BadI, f"e must be an integer >= 0, got e={e}", 0)):
            out = out.mul(self)
        return out

    def mod(self, p: int) -> "GroupRingElem":
        return GroupRingElem(self.n, tuple(c % p for c in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                s = "s" if i == 1 else f"s^{i}"
                parts.append(s if c == 1 else f"{c}*{s}")
        return " + ".join(parts) if parts else "0"


def ring_one(n: int) -> GroupRingElem:
    return GroupRingElem(n, tuple(1 if i == 0 else 0 for i in range(n)))


def sigma_minus_one(n: int) -> GroupRingElem:
    return GroupRingElem(n, tuple(-1 if i == 0 else (1 if i == 1 else 0) for i in range(n)))


def norm_element(n: int) -> GroupRingElem:
    return GroupRingElem(n, (1,) * n)


def theta_operator(p: int) -> GroupRingElem:
    """Exponent vector (p-1, p-2, ..., 1, 0) of omega^(p-1) sigma(omega)^(p-2) ...

    Satisfies (sigma - 1) * theta = N - p in Z[C_p].
    """
    p = read_prime(p)
    return GroupRingElem(p, tuple(p - 1 - i for i in range(p)))


# -- solution expressions --------------------------------------------------------


class Atom(FrozenRecord):
    """base^exponent inside a radicand; the exponent is a group-ring element,
    an exact fraction (for nested roots), or implicitly 1."""

    _fields = ("base", "ring_exp", "frac_exp")
    _defaults = {"ring_exp": None, "frac_exp": None}

    def __str__(self):
        if self.ring_exp is not None:
            return f"{self.base}^({self.ring_exp})"
        if self.frac_exp is not None and self.frac_exp != 1:
            return f"{self.base}^({self.frac_exp})"
        return self.base

    def to_json(self):
        out: dict = {"base": self.base}
        if self.ring_exp is not None:
            out["exp"] = {"ring": {"n": self.ring_exp.n, "coeffs": list(self.ring_exp.coeffs)}}
        elif self.frac_exp is not None:
            out["exp"] = {"frac": str(self.frac_exp)}
        return out


class Layer(FrozenRecord):
    _fields = ("radicand", "degree")  # radicand: a tuple of Atom

    def __str__(self):
        word = "*".join(str(a) for a in self.radicand) or "1"
        return f"root[{self.degree}]({word})"

    def to_json(self):
        return {"radicand": [a.to_json() for a in self.radicand], "degree": self.degree}


class SolutionExpr(FrozenRecord):
    """Kummer tower; free_scalar (if set) multiplies the first layer's radicand."""

    _fields = ("layers", "free_scalar", "condition")
    _defaults = {"free_scalar": None, "condition": ""}

    def __str__(self):
        body = ", ".join(str(l) for l in self.layers)
        prefix = f"{self.free_scalar}*" if self.free_scalar else ""
        return f"K({prefix}{body})  [{self.condition}]" if self.condition else f"K({prefix}{body})"

    def to_json(self):
        return {
            "layers": [l.to_json() for l in self.layers],
            "free_scalar": self.free_scalar,
            "condition": self.condition,
        }


class SolutionFamily(FrozenRecord):
    _fields = ("base", "scalar")
    _defaults = {"scalar": "f"}


def solution_family(base: SolutionExpr) -> SolutionFamily:
    """All solutions from one: multiply the top radicand by a free scalar.

    Applying this twice collapses, since f * f' is again a free scalar.
    """
    if not base.layers:
        raise BadTheorem("expression has no layers")
    if base.free_scalar:
        return SolutionFamily(base, base.free_scalar)
    return SolutionFamily(
        SolutionExpr(base.layers, "f", base.condition), "f")


_THEOREMS = ("T4_1", "T4_2", "T4_3", "T4_4", "T4_5")


def theorem_name(theorem: str) -> str:
    """T4_4 for each of the spellings 4.4, 4_4, t4.4 and T4_4."""
    th = theorem.replace(".", "_").upper()
    return th if th.startswith("T") else "T" + th


def witness_key(theorem: str) -> str:
    """The symbol a construction needs a witness for: "x" for T4_4, "y" for
    T4_5, else "omega" (minac_swallow_solution's T4_12 too)."""
    return {"T4_4": "x", "T4_5": "y"}.get(theorem_name(theorem), "omega")


def build_solution(theorem: str, p: int, witness: dict) -> SolutionExpr:
    """The quoted radicand for one of the explicit solution constructions.

    witness maps the construction's required symbol, witness_key(theorem),
    to the caller's chosen name.
    """
    th = theorem_name(theorem)
    if th not in _THEOREMS:
        raise BadTheorem(f"theorem must be one of {_THEOREMS}, got {theorem!r}")
    if (key := witness_key(th)) not in witness:
        raise MissingWitness(f"construction needs a witness named {key!r}")
    p = read_prime(p)
    w, theta = str(witness[key]), theta_operator(p)
    if th in ("T4_1", "T4_3"):
        return SolutionExpr((Layer((Atom(w, theta),), p),), "f", f"N({w})=a2")
    if th == "T4_2":
        return SolutionExpr(
            (Layer((Atom("a1", frac_exp=Fraction(-1, p)), Atom(w, theta)), p),),
            "f", f"N({w})=a2*zeta")
    if th == "T4_4":
        # omega = a2^(1/p) * (x^(p-1) s2(x^(p-2)) ... s2^(p-2)(x))^(-1), printed
        # with the exponents inside the Galois action; the group-ring exponent
        # is the same theta vector
        return SolutionExpr(
            (Layer((Atom("a2", frac_exp=Fraction(1, p)), Atom(w, theta.scale(-1))), p),),
            "f", f"N({w})=a1*zeta")
    return SolutionExpr(
        (Layer((Atom("a1", frac_exp=Fraction(1, p * p)), Atom(w, theta)), p),),
        "f", f"N({w})=zeta_p2^(-1)*a2")


def minac_swallow_solution(p: int, i: int, omega: str = "omega") -> SolutionExpr:
    """Tower solving E_i: radicands omega^((sigma-1)^(p-i)), ..., omega^((sigma-1)^(p-2)).

    For i > 2 the first layer carries the free scalar f; for i = 2 the tower
    is the single layer omega^((sigma-1)^(p-2)).  Exponents are reduced mod p
    (p-th powers of omega do not change the extension).  As j < p - 1,
    (sigma-1)^j is sum_k (-1)^(j-k) C(j, k) sigma^k with no wrap-around, so
    each layer costs O(p) steps mod p, each coefficient from the one before.
    """
    p = read_prime(p)
    i = read_int(i, BadI, f"need 2 <= i <= p, got i={i}", 2, p + 1)
    layers = []
    for j in range(p - i, p - 1):
        coeffs, c = [0] * p, (-1) ** j % p
        for k in range(j + 1):  # C(j, k+1) = C(j, k) (j - k) / (k + 1), and the sign turns
            coeffs[k], c = c, -c * (j - k) * pow(k + 1, -1, p) % p
        layers.append(Layer((Atom(omega, GroupRingElem(p, tuple(coeffs))),), p))
    if i == 2:
        return SolutionExpr((layers[0],), None, f"N({omega})=b")
    return SolutionExpr(tuple(layers), "f", f"N({omega})=b")


def verify_witness_t410(relation_holds: bool, c: FieldElem, p: int) -> bool:
    """Certificate check: the twisted-norm element is a nontrivial p-th root of 1."""
    p = read_prime(p)
    if not relation_holds:
        return False
    if c.kind == "rat":
        if c.payload == 1:
            return False
        return p == 2 and c.payload == -1
    if c.kind == "zeta":
        order = c.payload[0]
        return order == p
    return False
