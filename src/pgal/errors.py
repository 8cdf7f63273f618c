"""Exception hierarchy: every domain error carries a stable machine-readable code."""


class PgalError(Exception):
    """Base class for all domain errors; `code` is stable across releases."""

    code = "Error"

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(detail or self.code)


# group construction / inspection

class UnknownFamily(PgalError):
    code = "UnknownFamily"


class OrderTooLarge(PgalError):
    code = "OrderTooLarge"


class RelationInconsistent(PgalError):
    code = "RelationInconsistent"


class TargetMismatch(PgalError):
    code = "TargetMismatch"


class NotNormal(PgalError):
    code = "NotNormal"


class NotPGroup(PgalError):
    code = "NotPGroup"


class BadM(PgalError):
    code = "BadM"


# cohomology

class KernelNotCentral(PgalError):
    code = "KernelNotCentral"


class KernelNotPrime(PgalError):
    code = "KernelNotPrime"


class NotACocycle(PgalError):
    code = "NotACocycle"


class TooLarge(PgalError):
    code = "TooLarge"


class BadIndexSubgroup(PgalError):
    code = "BadIndexSubgroup"


class GInH(PgalError):
    code = "GInH"


class PreimageOrderMismatch(PgalError):
    code = "PreimageOrderMismatch"


class QuotientConditionFails(PgalError):
    code = "QuotientConditionFails"


class IdentityElement(PgalError):
    code = "IdentityElement"


# symbols

class ZeroEntry(PgalError):
    code = "ZeroEntry"


class NonRationalEntry(PgalError):
    code = "NonRationalEntry"


class OpaqueFactorPresent(PgalError):
    code = "OpaqueFactorPresent"


class FactorizationFailed(PgalError):
    code = "FactorizationFailed"


class ZeroAlpha(PgalError):
    code = "ZeroAlpha"


class SquareA(PgalError):
    code = "SquareA"


class PrimeMismatch(PgalError):
    code = "PrimeMismatch"


# obstruction engines

class BadVariant(PgalError):
    code = "BadVariant"


class BadFamily(PgalError):
    code = "BadFamily"


# kummer solutions

class MissingWitness(PgalError):
    code = "MissingWitness"


class BadTheorem(PgalError):
    code = "BadTheorem"


class BadI(PgalError):
    code = "BadI"


# module machinery

class BadIndex(PgalError):
    code = "BadIndex"


class Mismatch(PgalError):
    code = "Mismatch"


class NotSolvable(PgalError):
    code = "NotSolvable"


# realization database

class UnknownSpec(PgalError):
    code = "UnknownSpec"


class BadParams(PgalError):
    code = "BadParams"
