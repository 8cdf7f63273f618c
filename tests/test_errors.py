"""Every domain error has its own code, and each code is raised by some call."""

import numpy as np
import pytest

from pgal import errors
from pgal.arith import factor
from pgal.autoreal import implies, multiplicity_bound
from pgal.catalog import build_group
from pgal.cohomology import (
    Cocycle2,
    cocycle_of_extension,
    corestrict_tate,
    extension_of_cocycle,
    lift_order_diag,
    raise_lower,
)
from pgal.fpmodules import FpGModule, NormData, count_solutions, mss_quotient
from pgal.groups import (
    DualActionData,
    Group,
    GroupHom,
    Subgroup,
    dual_action_predicate,
    max_elem_abelian_quotient,
    quotient,
    subgroup_generated,
    subgroups_of_index2,
)
from pgal.kummer import build_solution, minac_swallow_solution
from pgal.obstructions import g_family_obstruction, modular_obstruction
from pgal.symbols import ind, opaque_class, quad_corestriction, rat, splits_over_Q, symbol


def _s3():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    idx = {q: i for i, q in enumerate(perms)}
    return Group([[idx[tuple(b[a[k]] for k in range(3))] for b in perms] for a in perms],
                 [("r", 1), ("s", 3)])


def _zero(G, p=2):
    return Cocycle2(G, p, np.zeros((G.order, G.order), dtype=np.int64))


def _d8_index2(p=2):
    H = subgroups_of_index2(build_group("D:8"))[0]
    return _zero(H.as_group(), p), H


def _noncentral_kernel():
    S3 = _s3()
    _, proj = quotient(S3, subgroup_generated(S3, [1]))
    cocycle_of_extension(S3, proj, 1)


def _kernel_gen_outside_the_kernel():
    E4 = build_group("EA:p=2,r=2")
    cocycle_of_extension(E4, GroupHom(E4, build_group("C:2"), (0, 1, 0, 1)), 1)


def _quarter_subgroup():
    C8 = build_group("C:8")
    quarter = Subgroup(C8, [0, 4])
    corestrict_tate(_zero(quarter.as_group()), quarter)


def _reflection_subgroup():
    D8 = build_group("D:8")
    quotient(D8, subgroup_generated(D8, [D8.gen("tau")]))


def _projection_from_another_group():
    C4, C8 = build_group("C:4"), build_group("C:8")
    _, proj = quotient(C8, subgroup_generated(C8, [4]))
    cocycle_of_extension(C4, proj, 2)


# code -> a call that raises it
ROWS = {
    "UnknownFamily": lambda: build_group("X:8"),
    "OrderTooLarge": lambda: build_group("C:8192"),
    "RelationInconsistent": lambda: Group([[0, 1], [1, 1]], [("a", 1)]),
    "TargetMismatch": _projection_from_another_group,
    "NotNormal": _reflection_subgroup,
    "NotPGroup": lambda: max_elem_abelian_quotient(build_group("C:6"), 2),
    "BadM": lambda: dual_action_predicate(DualActionData((8,), {"r": ((3,),)}, {"r": 1}), 2),
    "KernelNotCentral": _noncentral_kernel,
    "KernelNotPrime": _kernel_gen_outside_the_kernel,
    "NotACocycle": lambda: Cocycle2(build_group("C:2"), 2, [[0, 0], [0, 1.7]]),
    "TooLarge": lambda: extension_of_cocycle(_zero(build_group("C:1024"), 5)),
    "BadIndexSubgroup": _quarter_subgroup,
    "GInH": lambda: corestrict_tate(*_d8_index2(), g=0),
    "PreimageOrderMismatch": lambda: raise_lower(
        extension_of_cocycle(_zero(build_group("C:2"))), "sigma", 2, "lower"),
    "QuotientConditionFails": lambda: raise_lower(
        extension_of_cocycle(_zero(build_group("C:2"))), "sigma", 2, "sideways"),
    "IdentityElement": lambda: lift_order_diag(_zero(build_group("C:2")), 0),
    "ZeroEntry": lambda: rat(0),
    "NonRationalEntry": lambda: splits_over_Q(symbol(ind("a"), rat(2), 2)),
    "OpaqueFactorPresent": lambda: splits_over_Q(opaque_class("X", 2)),
    "FactorizationFailed": lambda: factor(0),
    "ZeroAlpha": lambda: quad_corestriction(2, 0, 0, 1, 0),
    "SquareA": lambda: quad_corestriction(4, 1, 1, 1, 0),
    "PrimeMismatch": lambda: corestrict_tate(*_d8_index2(p=3)),
    "BadVariant": lambda: modular_obstruction("nope", 3, 3, rat(2), rat(3)),
    "BadFamily": lambda: g_family_obstruction("G6", 3, rat(2), rat(3)),
    "MissingWitness": lambda: build_solution("4.1", 3, {}),
    "BadTheorem": lambda: build_solution("9.9", 3, {"omega": "w"}),
    "BadI": lambda: minac_swallow_solution(3, 4),
    "BadIndex": lambda: mss_quotient(10, 3, 2),
    "Mismatch": lambda: NormData(3, 1, {1: 2, 2: 2}),
    "NotSolvable": lambda: count_solutions(
        FpGModule(3, 1, {3: 1}), NormData.from_levels(3, 1, [2, 0], i_invariant=0)),
    "UnknownSpec": lambda: implies("ZZZ:9", "C:3"),
    "BadParams": lambda: multiplicity_bound(2, 1, 3),
}

CLASSES = [c for c in vars(errors).values()
           if isinstance(c, type) and issubclass(c, errors.PgalError) and c is not errors.PgalError]


def test_codes_are_one_to_one_and_each_has_a_row():
    codes = [c.code for c in CLASSES]
    assert len(set(codes)) == len(codes)
    assert all(c.code == c.__name__ for c in CLASSES)
    assert set(codes) == set(ROWS)


@pytest.mark.parametrize("code", sorted(ROWS))
def test_each_code_is_raised_by_its_row(code):
    with pytest.raises(errors.PgalError) as exc:
        ROWS[code]()
    assert exc.value.code == code
