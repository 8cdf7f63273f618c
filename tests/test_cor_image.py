"""The corestriction-image search (Props. 5.4-5.5): one solve per index-2
subgroup in the tree coordinates of CoboundarySpace, checked against the
exhaustive search of oracles.py and at the orders that search refused."""

import pytest

from pgal.catalog import build_group
from pgal.cohomology import (
    class_equal,
    cocycle_of_extension,
    cor_image_search,
    corestrict_tate,
    h2_enumerate,
)
from pgal.groups import quotient, subgroup_generated

from oracles import cor_image_search_exhaustive

SMALL = ["C:2", "C:4", "C:8", "EA:p=2,r=2", "EA:p=2,r=3", "C:4*C:2", "D:8", "Q:8",
         "D:16", "Q:16", "SD:16", "M:16"]


def test_the_solve_agrees_with_the_exhaustive_search():
    classes = hits = 0
    for spec in SMALL:
        G = build_group(spec)
        for f in h2_enumerate(G, 2).representatives:
            hit = cor_image_search(G, f)
            assert (hit is None) == (cor_image_search_exhaustive(G, f) is None), spec
            classes += 1
            if hit is not None:
                hits += 1
                H, fbar = hit
                assert fbar.group is H.as_group()
                assert class_equal(corestrict_tate(fbar, H), f), spec
    assert (classes, hits) == (118, 29)


@pytest.mark.parametrize("order", [2 ** e for e in range(5, 12)])
@pytest.mark.parametrize("family", ["Q", "D", "SD", "M"])
def test_prop55_the_central_quotient_class_is_not_a_corestriction(family, order):
    """E over <sigma^(|E|/4)>, of order 2, is not cor of any class of an
    index-2 subgroup of the quotient."""
    E = build_group(f"{family}:{order}")
    k = E.power(E.gen("sigma"), order // 4)
    Q, proj = quotient(E, subgroup_generated(E, [k]))
    assert cor_image_search(Q, cocycle_of_extension(E, proj, k)) is None


@pytest.mark.parametrize("spec", ["C:6", "C:12", "C:2*C:6", "C:3*C:4"])
def test_subgroups_that_are_not_2_groups_take_the_sylow_step(spec):
    """Here H^2(H) of an index-2 subgroup H comes from a Sylow 2-subgroup."""
    G = build_group(spec)
    for f in h2_enumerate(G, 2).representatives:
        hit = cor_image_search(G, f)
        assert (hit is None) == (cor_image_search_exhaustive(G, f) is None)
        if hit is not None:
            assert class_equal(corestrict_tate(hit[1], hit[0]), f)
