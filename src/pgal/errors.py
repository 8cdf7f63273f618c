"""Exception hierarchy: every domain error carries a stable machine-readable code.

MAX_ORDER, the cap on group orders that the size errors name, MAX_DIGITS, the
cap on the integers pgal prints, their checks, is_integer and read_int live
here too, so a spec or a module can be refused without importing numpy.
"""

import sys

MAX_ORDER = 4096  # the largest group order pgal builds a table for
MAX_DIGITS = 4300  # Python's default limit on printing an int in decimal


def check_order(p: int, e: int = 1) -> None:
    """Raise OrderTooLarge unless the order p^e is at most MAX_ORDER.

    A huge p^e is never formed: the detail shows the order in decimal, or
    as p^e when that has more than 4096 bits.
    """
    if p < 2 or e < MAX_ORDER.bit_length() and p ** e <= MAX_ORDER:
        return
    order = f"{p}^{e}" if e > 1 and e * p.bit_length() > 4096 else p ** e
    raise OrderTooLarge(f"order {order} exceeds cap {MAX_ORDER}")


def check_digits(p: int, e: int, what: str) -> None:
    """Raise BadParams unless p^e (p, e >= 0) has at most MAX_DIGITS decimal
    digits.  p^e >= 2^(e (b - 1)), b the bit length of p, so a huge p^e is
    refused before it is formed, and one below about 2^28600 is formed and
    compared."""
    limit = 10 ** MAX_DIGITS
    if e * (p.bit_length() - 1) >= limit.bit_length() or p ** e >= limit:
        raise BadParams(f"{what} has more than {MAX_DIGITS} decimal digits")


def is_integer(x) -> bool:
    """x is an int or a numpy integer, never a bool: the rule by which
    groups.read_integers reads a caller's integers, for one value and
    without importing numpy (no numpy integer exists before numpy loads)."""
    np = sys.modules.get("numpy")
    return type(x) is int or np is not None and isinstance(x, np.integer)


def read_int(x, error, detail: str, low: int | None = None, high: int | None = None,
             out_of_range: str | None = None) -> int:
    """x as an int if is_integer(x), never cast, else error(detail); outside
    low..high-1 error(out_of_range or detail).  groups.read_integers' twin."""
    if not is_integer(x):
        raise error(detail)
    if low is not None and x < low or high is not None and x >= high:
        raise error(out_of_range or detail)
    return int(x)


class PgalError(Exception):
    """Base class for all domain errors; `code`, a subclass's name, is stable."""

    code = "Error"

    def __init_subclass__(cls):
        cls.code = cls.__name__

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(detail or self.code)


# group construction / inspection

class UnknownFamily(PgalError):
    pass


class OrderTooLarge(PgalError):
    pass


class RelationInconsistent(PgalError):
    pass


class TargetMismatch(PgalError):
    pass


class NotNormal(PgalError):
    pass


class NotPGroup(PgalError):
    pass


class BadM(PgalError):
    pass


# cohomology

class KernelNotCentral(PgalError):
    pass


class KernelNotPrime(PgalError):
    pass


class NotACocycle(PgalError):
    pass


class TooLarge(PgalError):
    pass


class BadIndexSubgroup(PgalError):
    pass


class GInH(PgalError):
    pass


class PreimageOrderMismatch(PgalError):
    pass


class QuotientConditionFails(PgalError):
    pass


class IdentityElement(PgalError):
    pass


# symbols

class ZeroEntry(PgalError):
    pass


class NonRationalEntry(PgalError):
    pass


class OpaqueFactorPresent(PgalError):
    pass


class FactorizationFailed(PgalError):
    pass


class ZeroAlpha(PgalError):
    pass


class SquareA(PgalError):
    pass


class PrimeMismatch(PgalError):
    pass


# obstruction engines

class BadVariant(PgalError):
    pass


class BadFamily(PgalError):
    pass


# kummer solutions

class MissingWitness(PgalError):
    pass


class BadTheorem(PgalError):
    pass


class BadI(PgalError):
    pass


# module machinery

class BadIndex(PgalError):
    pass


class Mismatch(PgalError):
    pass


class NotSolvable(PgalError):
    pass


# realization database

class UnknownSpec(PgalError):
    pass


class BadParams(PgalError):
    pass
