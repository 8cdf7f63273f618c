"""Every integer a caller hands the library goes through one reader: an
array through groups.read_integers, a single integer through
errors.read_int (the same rule, for one value and without numpy), and
every p through arith.read_prime, in the group and cohomology API and in
the numpy-free symbols, obstructions, kummer, fpmodules and
autoreal.multiplicity_bound alike.

One row per entry point: the call, a valid value, the error code, the
detail for a value that is not an integer (a float, a bool, a string, None,
a list where an integer belongs, an unknown generator name) and the detail
for one out of range (-1, the first index past the end, 2^70).  A bad value
raises exactly that PgalError and nothing else; a valid one answers the
same given as a Python int, a numpy int, or an int16 or int64 array.
"""

from collections.abc import Sequence

import numpy as np
import pytest

from pgal.catalog import build_group
from pgal.cohomology import (
    CoboundarySpace,
    Cocycle2,
    corestrict,
    corestrict_tate,
    cocycle_of_extension,
    cyclic_step_cocycle,
    extension_of_cocycle,
    h2_enumerate,
    is_cocycle_table,
    lift_order_diag,
    power_commutator_data,
    raise_lower,
    verify,
)
from pgal.autoreal import multiplicity_bound
from pgal.errors import PgalError, is_integer
from pgal.fpmodules import FpGModule, NormData
from pgal.groups import (
    INTEGER_TYPES,
    DualActionData,
    Group,
    GroupHom,
    Subgroup,
    central_step,
    dual_action_predicate,
    frattini_style_subgroup,
    max_elem_abelian_quotient,
    quotient,
    subgroup_generated,
    subgroups_of_index2,
    sylow_subgroup,
)
from pgal.kummer import (
    GroupRingElem,
    build_solution,
    minac_swallow_solution,
    sigma_minus_one,
    theta_operator,
    verify_witness_t410,
)
from pgal.obstructions import (
    DirectFactorInput,
    LedetInput,
    MassyInput,
    direct_factor,
    g_family_obstruction,
    ledet_product,
    massy,
    modular_obstruction,
    obstruction_cp2,
)
from pgal.symbols import (
    SymbolProduct,
    elem_pow,
    hilbert_local,
    opaque_class,
    rat,
    symbol,
    trivial,
    zeta,
)

C2, C4, D8 = build_group("C:2"), build_group("C:4"), build_group("D:8")
C2_TABLE = [[0, 1], [1, 0]]
H = subgroups_of_index2(D8)[0]
FBAR = h2_enumerate(H.as_group(), 2).representatives[1]
E4 = extension_of_cocycle(Cocycle2(C4, 2, np.zeros((4, 4), dtype=np.int64)))  # C4 x C2
ZERO8 = np.zeros((8, 8), dtype=np.int64)
NOT_INTEGERS = [1.5, True, "1", None, [1]]
BIG = 2 ** 70


class Row:
    """An entry point: call(shape(v)) puts the value v where the entry
    point reads an integer, and answers for v = valid.  A value that is not
    an integer (or names no generator) raises code with the detail `typed`;
    -1, the values in low, past_end and 2^70 raise it with `ranged`."""

    def __init__(self, call, shape, valid, code, typed, ranged=None, past_end=None,
                 names=False, low=()):
        self.call, self.shape, self.valid, self.code = call, shape, valid, code
        self.typed, self.ranged = typed, ranged or typed
        self.bad = [(v, typed) for v in NOT_INTEGERS + ["nope"] * names]
        self.bad += [(v, self.ranged) for v in (-1, *low, past_end, BIG)]


def _scalar(v):
    return v


# index sites: past_end is the order they index
ROWS = {
    "Group table entry": Row(lambda t: Group(t, [("a", 1)]), lambda v: [[0, 1], [1, v]], 0,
                             "RelationInconsistent", "table entries must be integers",
                             "table entries out of range", past_end=2),
    "Group generator index": Row(lambda i: Group(C2_TABLE, [("a", i)]), _scalar, 1,
                                 "RelationInconsistent", "generator indices must be integers",
                                 "generator indices must lie in 0..1", past_end=2),
    "Subgroup element": Row(lambda els: Subgroup(D8, els), lambda v: [0, v], 2,
                            "RelationInconsistent", "subgroup elements must be integers",
                            "subgroup elements must lie in 0..7", past_end=8),
    "GroupHom image": Row(lambda im: GroupHom(C4, C2, im), lambda v: [0, v, 0, 1], 1,
                          "RelationInconsistent", "images must be integers",
                          "images out of range", past_end=2),
    "Cocycle2.transport image": Row(lambda im: Cocycle2(C2, 2, [[0, 0], [0, 1]]).transport(im, C2),
                                    lambda v: [0, v], 1, "RelationInconsistent",
                                    "images must be integers", "images out of range", past_end=2),
    "corestrict transversal": Row(lambda R: corestrict(FBAR, H, R),
                                  lambda v: [0, v], int(np.argmin(H.pos >= 0)), "BadIndexSubgroup",
                                  "transversal elements must be integers in 0..7",
                                  "transversal elements must lie in 0..7", past_end=8),
    "corestrict_tate g": Row(lambda g: corestrict_tate(FBAR, H, g), _scalar,
                             int(np.argmin(H.pos >= 0)), "BadIndexSubgroup",
                             "g must be an integer in 0..7", past_end=8),
    "cocycle_of_extension kernel_gen": Row(
        lambda k: cocycle_of_extension(E4.extension, E4.proj, k), _scalar, 4, "BadParams",
        "kernel_gen must be an integer in 0..7", past_end=8),
    "raise_lower sigma1": Row(lambda s: raise_lower(E4, s, 3, "raise"), _scalar, 1, "BadParams",
                              "sigma1 must be a generator name or an integer in 0..3",
                              past_end=4, names=True),
    "power_commutator_data gens": Row(lambda g: power_commutator_data(E4, g), lambda v: [v], 1,
                                      "BadParams",
                                      "gens must be a generator name or an integer in 0..3",
                                      past_end=4, names=True),
    "lift_order_diag z": Row(lambda z: lift_order_diag(Cocycle2(D8, 2, ZERO8), z), _scalar, 1,
                             "BadParams", "z must be an integer in 0..7", past_end=8),
    "Group.closure seed": Row(D8.closure, lambda v: [v], 1, "BadParams",
                              "seed elements must be integers in 0..7", past_end=8),
    "subgroup_generated seed": Row(lambda s: subgroup_generated(D8, s), lambda v: [v], 1,
                                   "BadParams", "seed elements must be integers in 0..7",
                                   past_end=8),
    "cyclic_step_cocycle n_exp": Row(lambda e: cyclic_step_cocycle(2, e), _scalar, 3, "BadParams",
                                     "n_exp must be an integer in 1..13", past_end=14, low=(0,)),
    "raise_lower n_exp": Row(lambda e: raise_lower(E4, "sigma", e, "raise"), _scalar, 3,
                             "BadParams", "n_exp must be an integer in 1..13", past_end=14,
                             low=(0,)),
}

ROWS["corestrict_tate g"].bad.remove((None, "g must be an integer in 0..7"))  # the default g


# p = 2^62 + 135, the least prime above 2^62, and 2^63 - 25, the largest
# below 2^63: int64 cannot hold 2p - 2 at either, the sum of two values mod p
PAST_62 = (2 ** 62 + 135, 2 ** 63 - 25)


def _prime_row(call):
    """p must be a prime integer below 2^62."""
    row = Row(call, _scalar, 2, "BadParams", "")
    row.bad = [(v, f"p must be prime, got p={v}")
               for v in [*NOT_INTEGERS, 2.0, 3.0, "2", -1, 0, 1, 4]]
    row.bad += [(v, f"p must be a prime below 2^62, got p={v}")
                for v in (*PAST_62, 2 ** 89 - 1, BIG, -BIG)]
    return row


ROWS.update({
    "h2_enumerate p": _prime_row(lambda p: h2_enumerate(D8, p)),
    "verify p": _prime_row(lambda p: verify(D8, p, ZERO8)),
    "Cocycle2 p": _prime_row(lambda p: Cocycle2(D8, p, ZERO8)),
    "Cocycle2 p, check=False": _prime_row(lambda p: Cocycle2(D8, p, ZERO8, check=False)),
    "CoboundarySpace p": _prime_row(lambda p: CoboundarySpace(D8, p)),
    "cyclic_step_cocycle p": _prime_row(lambda p: cyclic_step_cocycle(p, 2)),
})
# the cocycle identity is sound mod any p, so a composite one is no refusal
ROWS["is_cocycle_table p"] = Row(lambda p: is_cocycle_table(D8, p, ZERO8), _scalar, 4,
                                 "BadParams", "")
ROWS["is_cocycle_table p"].bad = [(v, f"p must be an integer in 2..2^62, got p={v}")
                                  for v in [*NOT_INTEGERS, 2.0, "2", -1, 0, 1, 2 ** 62 + 1,
                                            *PAST_62, BIG, -BIG]]
# the group layer reads each p once at entry, with no size bound: 1 used to
# loop forever in sylow_subgroup's valuation, -2 in frattini_style_subgroup's
# powers, 0 to divide by zero, 4 and 2.0 to answer, 2.5 to fail in numpy
for name, call in (("central_step p", lambda p: central_step(D8, np.arange(8), p)),
                   ("frattini_style_subgroup p", lambda p: frattini_style_subgroup(D8, p)),
                   ("sylow_subgroup p", lambda p: sylow_subgroup(D8, p)),
                   ("max_elem_abelian_quotient p", lambda p: max_elem_abelian_quotient(D8, p))):
    ROWS[name] = Row(call, _scalar, 2, "BadParams", "")
    ROWS[name].bad = [(v, f"p must be prime, got p={v}")
                      for v in (1, 0, -2, 4, 2.0, 2.5, "2", True, None)]
# cocycle values are exponents of zeta, read mod p: -1, 2 and 2^70 are values
ROWS["CoboundarySpace.witness values"] = Row(CoboundarySpace(C2, 2).witness,
                                             lambda v: [[0, 0], [0, v]], 2, "NotACocycle",
                                             "cocycle values must be integers")
ROWS["Cocycle2 values"] = Row(lambda vals: Cocycle2(C2, 2, vals), lambda v: [[0, 0], [0, v]], 1,
                              "NotACocycle", "table violates normalization or the cocycle identity")
for name in ("CoboundarySpace.witness values", "Cocycle2 values"):
    ROWS[name].bad = [(v, ROWS[name].typed) for v in NOT_INTEGERS]
# an integer, at any size, or a table of another shape is no n x n table of values
ROWS["CoboundarySpace.witness shape"] = Row(CoboundarySpace(D8, 2).witness, _scalar,
                                            ZERO8.tolist(), "NotACocycle", "")
ROWS["CoboundarySpace.witness shape"].bad = [(v, "cocycle values must be a table of shape 8 x 8")
                                             for v in (5, BIG, [[0]])]

# a non-integer element is refused, while an integer that is no member keeps
# its KeyError (test_membership_and_local_read_only_integers)
ROWS["Subgroup.local element"] = Row(H.local, _scalar, 2, "BadParams",
                                     "element must be an integer")
ROWS["DualActionData orders"] = Row(lambda o: DualActionData(o, {"r": ((3,),)}, {"r": 1}),
                                    lambda v: (v,), 8, "RelationInconsistent", "")
ROWS["DualActionData orders"].bad = (
    [(v, "cyclic factor orders must be integers") for v in NOT_INTEGERS]
    + [(v, "cyclic factor orders must be positive") for v in (0, -1)]
    + [(v, "cyclic factor orders must lie in 1..2^63-1") for v in (BIG, -BIG)])
ROWS["DualActionData cyclo value"] = Row(lambda u: DualActionData((8,), {"r": ((3,),)}, {"r": u}),
                                         _scalar, 3, "RelationInconsistent",
                                         "cyclo value for r must be an integer")
# action matrix entries, like cyclo values, are read mod the exponent of A
ROWS["DualActionData action entry"] = Row(
    lambda M: DualActionData((8,), {"r": M}, {"r": 1}), lambda v: ((v,),), 3,
    "RelationInconsistent", "action matrix for r must have integer entries")
ROWS["dual_action_predicate m"] = Row(
    lambda m: dual_action_predicate(DualActionData((8,), {"r": ((3,),)}, {"r": 1}), m), _scalar,
    3, "BadM", "m must be an integer")
# the numpy-free modules read one integer at a time with errors.read_int
FPG = "summand lengths and multiplicities must be integers"
NORM = "norm dimension indices and values must be integers"
ROWS.update({
    "FpGModule length": Row(lambda d: FpGModule(2, 2, d), lambda v: {v: 1}, 3, "BadIndex", FPG),
    "FpGModule multiplicity": Row(lambda d: FpGModule(2, 2, d), lambda v: {2: v}, 2, "BadIndex",
                                  FPG),
    "NormData index": Row(lambda d: NormData(2, 1, d), lambda v: {v: 1, 1: 1}, 2, "Mismatch", NORM),
    "NormData dim": Row(lambda d: NormData(2, 1, d), lambda v: {1: v, 2: v}, 1, "Mismatch", NORM),
    "NormData.from_levels level": Row(lambda lv: NormData.from_levels(2, 1, lv),
                                      lambda v: [v, v], 1, "Mismatch", NORM),
})
KEY_ROWS = ("FpGModule length", "NormData index")  # a list is no dict key
for name in ("Subgroup.local element", "DualActionData cyclo value", "FpGModule length",
             "FpGModule multiplicity", "NormData index", "NormData dim",
             "NormData.from_levels level", "DualActionData action entry",
             "dual_action_predicate m"):
    row = ROWS[name]
    row.bad = [(v, row.typed) for v in NOT_INTEGERS
               if not (name in KEY_ROWS and isinstance(v, list))]
ROWS["dual_action_predicate m"].bad.append((3.0, "m must be an integer"))

# p must be a prime integer and n an integer >= 0, read before p^n is formed
DIMS3 = {1: 1, 2: 1, 3: 1}
for name, call in (("FpGModule p", lambda p: FpGModule(p, 1, {1: 1})),
                   ("NormData p", lambda p: NormData(p, 1, DIMS3)),
                   ("NormData.from_levels p", lambda p: NormData.from_levels(p, 1, [1, 1]))):
    ROWS[name] = Row(call, _scalar, 3, "BadParams", "")
    ROWS[name].bad = [(v, f"p must be prime, got p={v}")
                      for v in [*NOT_INTEGERS, 3.0, "3", -1, 0, 1, 4]]
for name, call in (("FpGModule n", lambda n: FpGModule(3, n, {1: 1})),
                   ("NormData n", lambda n: NormData(3, n, DIMS3)),
                   ("NormData.from_levels n", lambda n: NormData.from_levels(3, n, [1, 1]))):
    ROWS[name] = Row(call, _scalar, 1, "BadParams", "")
    ROWS[name].bad = [(v, f"n must be an integer >= 0, got n={v}")
                      for v in [*NOT_INTEGERS, 1.0, -1, -BIG]]
ROWS["NormData i_invariant"] = Row(lambda i: NormData(3, 1, DIMS3, i), _scalar, 0, "Mismatch",
                                   "i invariant must be None or in 0..0", past_end=1)
ROWS["NormData i_invariant"].bad.remove((None, "i invariant must be None or in 0..0"))  # -inf
ROWS["NormData i_invariant"].bad.append((0.0, "i invariant must be None or in 0..0"))

# element arguments, each read once at entry: -1 used to wrap to the last
# element (D16.mul(-1, -1) was 0) and True to be read as 1; the exponent of
# Group.power is any integer
D16 = build_group("D:16")
Q16, PROJ16 = quotient(D16, subgroup_generated(D16, [D16.power(D16.gen("sigma"), 4)]))
F16 = h2_enumerate(Q16, 2).representatives[2]
for name, call, arg, n in (
        ("Group.mul a", lambda v: D16.mul(v, 3), "a", 16),
        ("Group.mul b", lambda v: D16.mul(3, v), "b", 16),
        ("Group.inv a", D16.inv, "a", 16),
        ("Group.power a", lambda v: D16.power(v, 2), "a", 16),
        ("Group.conj g", lambda v: D16.conj(v, 3), "g", 16),
        ("Group.conj x", lambda v: D16.conj(3, v), "x", 16),
        ("Group.commutator a", lambda v: D16.commutator(v, 3), "a", 16),
        ("Group.commutator b", lambda v: D16.commutator(3, v), "b", 16),
        ("Group.element_order a", D16.element_order, "a", 16),
        ("GroupHom x", PROJ16, "x", 16),
        ("Cocycle2 x", lambda v: F16(v, 5), "x", 8),
        ("Cocycle2 y", lambda v: F16(5, v), "y", 8)):
    ROWS[name] = Row(call, _scalar, 5, "BadParams", f"{arg} must be an integer in 0..{n - 1}",
                     past_end=n)



# the numpy-free engines: each p is read by arith.read_prime, which knows no
# 64-bit bound, and each other integer by errors.read_int, naming it
def _free_prime_row(call):
    row = Row(call, _scalar, 3, "BadParams", "")
    row.bad = [(v, f"p must be prime, got p={v}")
               for v in [*NOT_INTEGERS, 3.0, "3", -1, -3, 0, 1, 4, 9, BIG, -BIG]]
    return row


def _named_row(call, valid, code, detail, ranged=(), ranged_detail=None):
    """detail.format(v) for each value that is not an integer (the valid one
    as a float too), ranged_detail or that for the values in ranged."""
    row = Row(call, _scalar, valid, code, "")
    row.bad = [(v, detail.format(v)) for v in [*NOT_INTEGERS, float(valid)]]
    row.bad += [(v, (ranged_detail or detail).format(v)) for v in ranged]
    return row


D_OF = "d{0} must be an integer, got d{0}={{}}"
ROWS.update({
    "symbol p": _free_prime_row(lambda p: symbol(rat(5), rat(3), p)),
    "trivial p": _free_prime_row(trivial),
    "opaque_class p": _free_prime_row(lambda p: opaque_class("x", p)),
    "SymbolProduct.from_json p": _free_prime_row(
        lambda p: SymbolProduct.from_json({"p": p, "factors": [], "opaque": []})),
    "obstruction_cp2 p": _free_prime_row(lambda p: obstruction_cp2(rat(5), p)),
    "MassyInput p": _free_prime_row(lambda p: massy(MassyInput(p, [rat(3), rat(5)], {(1, 2): 1}))),
    "DirectFactorInput p": _free_prime_row(
        lambda p: direct_factor(DirectFactorInput(p, "r", rat(2), 1))),
    "LedetInput p": _free_prime_row(
        lambda p: ledet_product(LedetInput(p, "n", "h", [rat(3)], [rat(5)], {(1, 1): 1}))),
    "modular_obstruction p": _free_prime_row(
        lambda p: modular_obstruction("z1", p, 3, rat(2), rat(3))),
    "g_family_obstruction p": _free_prime_row(
        lambda p: g_family_obstruction("G4", p, rat(2), rat(3))),
    "theta_operator p": _free_prime_row(theta_operator),
    "build_solution p": _free_prime_row(lambda p: build_solution("4.1", p, {"omega": "w"})),
    "minac_swallow_solution p": _free_prime_row(lambda p: minac_swallow_solution(p, 2)),
    "verify_witness_t410 p": _free_prime_row(lambda p: verify_witness_t410(True, zeta(3), p)),
    "multiplicity_bound p": _free_prime_row(lambda p: multiplicity_bound(p, 2, 3)),
    "Group.power k": _named_row(lambda k: D16.power(1, k), 3, "BadParams",
                                "k must be an integer, got k={}"),
    "zeta order": _named_row(zeta, 4, "BadParams", "order must be an integer >= 1, got order={}",
                             ranged=(0, -1)),
    "zeta e": _named_row(lambda e: zeta(4, e), 1, "BadParams", "e must be an integer, got e={}"),
    "elem_pow e": _named_row(lambda e: elem_pow(rat(2), e), 3, "BadParams",
                             "e must be an integer, got e={}"),
    "SymbolProduct.pow e": _named_row(lambda e: symbol(rat(2), rat(3), 3).pow(e), 2, "BadParams",
                                      "e must be an integer, got e={}"),
    "opaque_class exp": _named_row(lambda e: opaque_class("x", 3, e), 2, "BadParams",
                                   "exp must be an integer, got exp={}"),
    "MassyInput d": _named_row(lambda d: massy(MassyInput(3, [rat(3), rat(5)], {(1, 2): d})), 1,
                               "BadParams", D_OF.format(12)),
    "DirectFactorInput j": _named_row(lambda j: direct_factor(DirectFactorInput(3, "r", rat(2), j)),
                                      1, "BadParams", "j must be an integer, got j={}"),
    "DirectFactorInput d": _named_row(
        lambda d: direct_factor(DirectFactorInput(3, "r", rat(2), 0, [rat(5)], [d])), 1,
        "BadParams", D_OF.format(1)),
    "LedetInput d": _named_row(
        lambda d: ledet_product(LedetInput(3, "n", "h", [rat(3)], [rat(5)], {(1, 1): d})), 1,
        "BadParams", D_OF.format(11)),
    "modular_obstruction n": _named_row(
        lambda n: modular_obstruction("1z", 3, n, rat(2), rat(3)), 3, "BadVariant",
        "n must be an integer, got n={}", ranged=(2, 0, -1),
        ranged_detail="modular families need n >= 3"),
    "GroupRingElem n": _named_row(lambda n: GroupRingElem(n, (1, 0)), 2, "BadI",
                                  "n must be an integer >= 1, got n={}", ranged=(0, -1)),
    "GroupRingElem coefficient": _named_row(lambda c: GroupRingElem(2, (c, 0)), 1, "BadI",
                                            "coefficients must be integers, got {}"),
    "GroupRingElem.pow e": _named_row(lambda e: sigma_minus_one(3).pow(e), 2, "BadI",
                                      "e must be an integer >= 0, got e={}", ranged=(-1,)),
    "minac_swallow_solution i": _named_row(lambda i: minac_swallow_solution(5, i), 3, "BadI",
                                           "need 2 <= i <= p, got i={}", ranged=(1, 6, -1, BIG)),
    "multiplicity_bound n": _named_row(lambda n: multiplicity_bound(3, n, 2), 2, "BadParams",
                                       "n must be an integer, got n={}", ranged=(0, -1),
                                       ranged_detail="need n >= 1 and k >= 0"),
    "multiplicity_bound n, p = 2": _named_row(lambda n: multiplicity_bound(2, n, 2), 2, "BadParams",
                                              "n must be an integer, got n={}", ranged=(1, 0, -1),
                                              ranged_detail="need n >= 2 when p = 2"),
    "multiplicity_bound k": _named_row(lambda k: multiplicity_bound(3, 2, k), 2, "BadParams",
                                       "k must be an integer, got k={}", ranged=(-1,),
                                       ranged_detail="need n >= 1 and k >= 0"),
})
ROWS["multiplicity_bound k"].bad.append((BIG, "p^k has more than 4300 decimal digits"))


def _massy_d(d):
    return massy(MassyInput(3, [rat(3), rat(5)], d))


def _ledet_d(d):
    return ledet_product(LedetInput(3, "n", "h", [rat(3)], [rat(5)], d))


# a key of the Massy and Ledet data is a pair (i, j) of integers in the
# record's range: here (1, v), v in 1..2 (Massy, i <= j) or 1..1 (Ledet)
for name, call, past_end in (("MassyInput index pair", _massy_d, 3),
                             ("LedetInput index pair", _ledet_d, 2)):
    ROWS[name] = Row(call, lambda v: {(1, v): 1}, 1, "BadFamily", "")
    ROWS[name].bad = [(v, f"bad index pair {(1, v)!r}")
                      for v in [1.5, 1.0, True, np.bool_(True), "1", None, 0, -1, past_end, BIG]]
# a place is a prime, or 0 (an integer) or "inf" for the real place
ROWS["hilbert_local place"] = Row(lambda l: hilbert_local(3, 5, l), _scalar, 3, "BadParams", "")
ROWS["hilbert_local place"].bad = [
    (v, f"place must be a prime, 0 or 'inf', got place={v}")
    for v in [*NOT_INTEGERS, 3.0, "3", "Inf", -1, -3, 1, 4, 9, BIG, -BIG, False, 0.0]]
# rat reads any integer, a Fraction or a string, but never a bool or a float
ROWS["rat q"] = Row(rat, _scalar, 5, "BadParams", "")
ROWS["rat q"].bad = [(v, f"q must be an integer, a Fraction or a string, got q={v!r}")
                     for v in (1.5, 5.0, True, False, None, [1], np.float64(2), np.bool_(True))]

CASES = [(name, v, detail) for name, row in ROWS.items() for v, detail in row.bad]


@pytest.mark.parametrize("name,bad,detail", CASES, ids=[f"{n}-{v!r}" for n, v, _ in CASES])
def test_a_bad_integer_raises_its_code_and_detail(name, bad, detail):
    row = ROWS[name]
    with pytest.raises(PgalError) as exc:
        row.call(row.shape(bad))
    assert (exc.value.code, exc.value.detail) == (row.code, detail)


@pytest.mark.parametrize("call", [_massy_d, _ledet_d], ids=["MassyInput", "LedetInput"])
@pytest.mark.parametrize("key", [1, "11", None, (1,), (1, 1, 1), frozenset({1})], ids=repr)
def test_a_key_that_is_not_a_pair_is_a_bad_index_pair(call, key):
    with pytest.raises(PgalError) as exc:
        call({key: 1})
    assert (exc.value.code, exc.value.detail) == ("BadFamily", f"bad index pair {key!r}")


def test_cocycle_values_that_are_not_integers_make_no_cocycle_and_others_are_read_mod_p():
    for bad in NOT_INTEGERS:
        assert not is_cocycle_table(C2, 2, [[0, 0], [0, bad]])
    for v, reduced in ((-1, 1), (2, 0), (BIG, 0), (BIG + 1, 1)):
        values = [[0, 0], [0, v]]
        assert is_cocycle_table(C2, 2, values)
        assert Cocycle2(C2, 2, values).values.tolist() == [[0, 0], [0, reduced]]
        assert CoboundarySpace(C2, 2).witness(values) == ([0, 0] if reduced == 0 else None)


def test_a_lone_integer_where_a_table_belongs_makes_no_cocycle():
    """One integer is a table of the wrong shape at any size: read mod p as
    a lone entry, not past 64 bits by a cast."""
    for v in (5, -1, BIG, -BIG, 2 ** 64 - 1, np.uint64(2 ** 64 - 1), np.int64(5)):
        assert not is_cocycle_table(D8, 2, v)
        assert verify(D8, 2, v) == {"is_cocycle": False, "is_coboundary": False, "witness": None}
        with pytest.raises(PgalError) as exc:
            Cocycle2(D8, 2, v)
        assert (exc.value.code, exc.value.detail) == (
            "NotACocycle", "table violates normalization or the cocycle identity")


def test_a_checked_cocycle_reads_a_list_once(monkeypatch):
    """Cocycle2 keeps the table its check read, and verify hands that table
    to the witness: a list goes through the object-dtype read once in each."""
    import pgal.cohomology

    values = h2_enumerate(D8, 2).representatives[-1].values.tolist()
    reads, read = [], pgal.cohomology.read_integers

    def counted(data, *args, **kwargs):
        reads.append(not isinstance(data, np.ndarray) or data.dtype == object)
        return read(data, *args, **kwargs)

    monkeypatch.setattr(pgal.cohomology, "read_integers", counted)
    assert Cocycle2(D8, 2, values).values.tolist() == values
    assert reads == [True]
    reads.clear()
    assert verify(D8, 2, values) == {"is_cocycle": True, "is_coboundary": False, "witness": None}
    assert reads.count(True) == 1


def _plain(x):
    """A result as plain Python data, to compare answers."""
    if isinstance(x, (Group, Subgroup, GroupHom, Cocycle2, CoboundarySpace)):
        return {Group: lambda: x.table, Subgroup: lambda: x.elements.tolist(),
                GroupHom: lambda: x.images.tolist(), Cocycle2: lambda: [x.p, x.values.tolist()],
                CoboundarySpace: lambda: [x.p, x.N]}[type(x)]()
    if isinstance(x, Sequence) and not isinstance(x, (str, list, tuple)):  # h2's Classes
        return [_plain(f) for f in x]
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if hasattr(x, "_fields"):  # a record
        return [_plain(getattr(x, f)) for f in x._fields]
    return x


def _kinds(row):
    """The valid argument as Python ints, numpy ints and int16 and int64 arrays."""
    v, shape = row.valid, row.shape
    out = [shape(v), shape(np.int64(v)), shape(np.int16(v)), shape(np.uint8(v))]
    arg = shape(v)
    if isinstance(arg, list):
        out += [np.array(arg, dtype=np.int16), np.array(arg, dtype=np.int64)]
    return out


@pytest.mark.parametrize("name", sorted(ROWS))
def test_a_valid_integer_answers_alike_in_every_integer_type(name):
    row = ROWS[name]
    answers = [_plain(row.call(arg)) for arg in _kinds(row)]
    assert all(a == answers[0] for a in answers), name


def test_valid_answers_are_pinned():
    assert Group([[0, 1], [1, 0]], [("a", np.int16(1))]).generators == [("a", 1)]
    assert Subgroup(D8, np.array([0, 2], dtype=np.int16)).elements.tolist() == [0, 2]
    assert D8.closure(np.array([1], dtype=np.int64)) == [0, 1, 2, 3]
    assert subgroup_generated(D8, {4}).elements.tolist() == [0, 4]
    assert cyclic_step_cocycle(np.int64(2), np.int16(2)).values.tolist() == [[0, 0], [0, 1]]
    assert raise_lower(E4, np.int64(1), 3, "raise").cocycle.values.tolist() == [
        [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, 1]]
    assert power_commutator_data(E4, ["sigma", np.int16(1)]) == ([None, None], {(0, 1): 0})
    assert lift_order_diag(Cocycle2(D8, 2, ZERO8), np.uint8(1)) == {"value": 0,
                                                                    "lifted_order": 4}
    assert h2_enumerate(D8, np.int64(2)).dimension == 3
    assert is_cocycle_table(D8, 4, ZERO8)
    big = 2 ** 61 - 1  # a prime past int32, read by the group layer with no size bound
    assert sylow_subgroup(D8, big).order == 1 and frattini_style_subgroup(D8, big).order == 8
    assert CoboundarySpace(D8, np.int16(3)).p == 3 and type(CoboundarySpace(D8, 3).p) is int
    assert D16.power(1, -1) == D16.inv(1) == 7 and D16.power(1, 2 ** 70 + 3) == D16.power(1, 3)
    assert type(D16.mul(np.int64(5), 3)) is int and type(PROJ16(np.int16(5))) is int


def test_membership_and_local_read_only_integers():
    """H = {0, 2, 4, 6}: a non-integer is never a member, an integer is one
    in every integer type, and local refuses only non-integers."""
    assert H.elements.tolist() == [0, 2, 4, 6]
    for v in [*NOT_INTEGERS, 2.5, 2.0, False, np.float64(2), np.bool_(False)]:
        assert v not in H
    for kind in (int, np.int16, np.int64, np.uint8):
        assert kind(4) in H and kind(3) not in H and H.local(kind(4)) == 2
    for v in (-1, 1, 8, BIG):
        assert v not in H
        with pytest.raises(KeyError):
            H.local(v)


def test_is_integer_states_the_readers_rule():
    """errors.is_integer, which the numpy-free modules use, accepts a value
    exactly when its type is one read_integers accepts."""
    values = [0, -3, BIG, True, np.bool_(True), 1.5, 2.0, np.float64(2), "1", None, [1], (1,),
              2 + 0j, *(kind(1) for kind in INTEGER_TYPES)]
    for v in values:
        assert is_integer(v) == (type(v) in INTEGER_TYPES), repr(v)

