"""Exception hierarchy: every domain error carries a stable machine-readable code.

MAX_ORDER, the cap on group orders that the size errors name, lives here too,
so a spec can be refused without importing numpy.
"""

MAX_ORDER = 4096  # the largest group order pgal builds a table for


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
