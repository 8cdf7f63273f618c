"""Implication closure, recorded non-implications, bounds and shapes."""

import pytest

from pgal.autoreal import (
    RealizationGraph,
    default_graph,
    excluded_shape_flags,
    gen_count_necessary,
    implies,
    multiplicity_bound,
    reverse_known_false,
    schultz_bound_applicable,
)
from pgal.errors import BadParams, UnknownSpec
from pgal.fpmodules import FpGModule


def test_seeded_implications_with_provenance():
    res = implies("Q:8", "D:8")
    assert res["holds"] is True
    assert res["path"] and "Jensen" in res["path"][0]["cite"]
    res2 = implies("C:4", "C:16")
    assert res2["holds"] is True
    assert any("Whaples" in e["cite"] for e in res2["path"])


def test_reflexive_and_quotient_edges():
    assert implies("D:16", "D:16")["holds"] is True
    res = implies("C:9", "C:3")
    assert res["holds"] is True
    assert any(e["cite"].startswith("trivial") for e in res["path"])


def test_unknown_direction_reported_as_unknown():
    assert implies("D:8", "Q:8")["holds"] == "unknown"
    assert implies("C:16", "Q:16")["holds"] == "unknown"


def test_chained_closure_through_database():
    # Q:16 => D:16 (seeded), D:16 => D:8 would need a quotient edge; D16/<s^4> is D8
    res = implies("Q:16", "D:8")
    assert res["holds"] is True


def test_unknown_spec_raises():
    with pytest.raises(UnknownSpec):
        implies("ZZZ:9", "C:3")


def test_reverse_known_false_pairs():
    assert reverse_known_false("G2:p=3", "G1:p=3")
    assert reverse_known_false("G4:p=5", "G3:p=5")
    assert not reverse_known_false("G2:p=3", "G1:p=5")
    assert not reverse_known_false("Q:8", "D:8")


def test_reverse_false_never_contradicts_implies():
    for src, dst in (("G2:p=3", "G1:p=3"), ("G4:p=3", "G3:p=3")):
        assert reverse_known_false(src, dst)
        assert implies(src, dst)["holds"] == "unknown"


def test_gen_count_examples():
    assert gen_count_necessary("Q:8", "D:8")
    assert not gen_count_necessary("C:4", "EA:p=2,r=2")
    assert gen_count_necessary("G1:p=3", "C:1")


def test_the_default_graph_caches_only_its_own_nodes():
    g = default_graph()
    assert implies("C:81", "C:3") == {"holds": "unknown", "path": []}
    assert "C:81" not in g._groups and "D:8" in g._groups
    assert set(g._groups) == {spec for e in g.edges for spec in (e.src, e.dst)}


def test_database_edges_respect_gen_count():
    g = default_graph()
    for e in g.edges:
        assert gen_count_necessary(e.src, e.dst, graph=g)


def test_bad_database_edge_rejected():
    from pgal.autoreal import Edge

    with pytest.raises(UnknownSpec):
        RealizationGraph([Edge("C:4", "EA:p=2,r=2", "bogus")])


def test_multiplicity_bound():
    assert multiplicity_bound(3, 1, 2).bound == 9
    assert multiplicity_bound(5, 1, 0).bound == 1
    with pytest.raises(BadParams):
        multiplicity_bound(2, 1, 3)
    assert multiplicity_bound(2, 2, 3).bound == 8


def test_schultz_shape_flags():
    # single length-3 summand at p=3: 3 is a p-power, no p^j+1 factor
    A = FpGModule(3, 1, {3: 1})
    flags = excluded_shape_flags(A)
    assert not flags["literal"] and flags["all_p_power"]
    assert schultz_bound_applicable(A)
    # lengths {2, 3}: 2 = 3^0 + 1 and 3 = 3^1 -> excluded literally
    B = FpGModule(3, 1, {2: 1, 3: 1})
    fb = excluded_shape_flags(B)
    assert fb["literal"]
    assert not schultz_bound_applicable(B)
    # zero module
    Z = FpGModule(3, 1, {})
    assert schultz_bound_applicable(Z)
    # two length-2 summands at p=3: second 2 is not a p-power -> not excluded
    C = FpGModule(3, 2, {2: 2})
    assert schultz_bound_applicable(C)
