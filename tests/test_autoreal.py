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
from pgal.errors import BadParams, UnknownSpec, check_digits
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


@pytest.mark.parametrize("src,dst", [("G1:p=3", "C:7"), ("C:64", "D:32"), ("C:8", "Q:8"),
                                     ("Q:32", "C:4"), ("C:9", "C:3")])
def test_a_query_forms_each_quotient_once(monkeypatch, src, dst):
    """A node's quotient edges build each G/N once, however many targets have
    its order."""
    import pgal.groups

    formed, quotient = [], pgal.groups.quotient

    def counted(G, N):
        formed.append((id(G), tuple(N.elements.tolist())))
        return quotient(G, N)

    monkeypatch.setattr(pgal.groups, "quotient", counted)
    RealizationGraph.load_default().implies(src, dst)
    assert formed and len(formed) == len(set(formed))


def test_the_graph_keeps_the_quotient_relation_among_its_nodes(monkeypatch):
    """Asked again, queries between nodes search no quotient: the graph kept
    the relation, for pairs of nodes only, so at most the node count squared."""
    import pgal.groups

    g = RealizationGraph.load_default()
    pairs = [("Q:32", "C:4"), ("C:64", "D:32"), ("C:81", "C:3"), ("D:16", "EA:p=2,r=2")]
    answers = [g.implies(src, dst) for src, dst in pairs]
    assert g._quotient_of and all(a in g._orders and b in g._orders for a, b in g._quotient_of)
    searched = []
    monkeypatch.setattr(pgal.groups, "normal_subgroups", lambda G: searched.append(G) or [])
    assert [g.implies(src, dst) for src, dst in pairs[:2]] == answers[:2]
    assert searched == []


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


@pytest.mark.parametrize("bad", ["ZZZ:p=9", "EA:p=4,r=2", "D:12"])
def test_a_spec_that_names_no_group_raises_on_either_side(bad):
    """Also when both sides are the same; these used to answer "unknown"
    (and True for the same spec twice)."""
    for src, dst in ((bad, "C:3"), ("C:3", bad), (bad, bad)):
        with pytest.raises(UnknownSpec):
            implies(src, dst)


def test_reverse_known_false_pairs():
    assert reverse_known_false("G2:p=3", "G1:p=3")
    assert reverse_known_false("G4:p=5", "G3:p=5")
    assert not reverse_known_false("G2:p=3", "G1:p=5")
    assert not reverse_known_false("Q:8", "D:8")
    assert not reverse_known_false("G2:p=3*C:2", "G1:p=3")
    with pytest.raises(UnknownSpec):
        reverse_known_false("G2:p=4", "G1:p=4")


def test_reverse_false_never_contradicts_implies():
    for src, dst in (("G2:p=3", "G1:p=3"), ("G4:p=3", "G3:p=3")):
        assert reverse_known_false(src, dst)
        assert implies(src, dst)["holds"] == "unknown"


def test_gen_count_examples():
    assert gen_count_necessary("Q:8", "D:8")
    assert not gen_count_necessary("C:4", "EA:p=2,r=2")
    assert gen_count_necessary("G1:p=3", "C:1")


def _counting_builds(monkeypatch):
    """The (spec, order) of each group catalog.build_group builds from now on."""
    import pgal.catalog

    built, build = [], pgal.catalog.build_group

    def counted(spec):
        G = build(spec)
        built.append((spec, G.order))
        return G

    monkeypatch.setattr(pgal.catalog, "build_group", counted)
    return built


def test_the_default_graph_caches_only_its_own_nodes(monkeypatch):
    """And builds them only as queries read them: loading used to build all
    36 nodes."""
    g = default_graph()
    assert implies("C:81", "C:3") == {"holds": "unknown", "path": []}
    assert "C:81" not in g._groups
    assert set(g._groups) <= {spec for e in g.edges for spec in (e.src, e.dst)}
    built = _counting_builds(monkeypatch)
    fresh = RealizationGraph.load_default()
    assert built == [] and fresh._groups == {}
    assert implies("C:4", "C:16", graph=fresh)["holds"] is True
    assert built and {spec for spec, _ in built} <= set(fresh._groups)
    assert not {"G3:p=5", "G4:p=5", "G1:p=7", "G2:p=7"} & set(fresh._groups)


@pytest.mark.parametrize("src,dst", [("G4:p=3", "C:7"), ("C:64", "G4:p=3"), ("Q:16", "D:8"),
                                     ("C:9", "D:16"), ("G1:p=3", "C:27"), ("C:49", "SD:16")])
def test_a_query_builds_few_and_small_groups(monkeypatch, src, dst):
    """Every node's group used to be built on load, up to order 625."""
    built = _counting_builds(monkeypatch)
    RealizationGraph.load_default().implies(src, dst)
    assert len(built) <= 16 and max(order for _, order in built) <= 81


def test_a_lazy_graph_answers_as_the_graph_with_everything_built():
    """Every ordered pair over the nodes and four other specs, against the
    search over every node built and every edge checked.  One fresh graph
    per source, so each source's queries start with nothing built."""
    from pgal.catalog import canonical_spec
    from oracles import realization_answers

    edges = RealizationGraph.load_default().edges
    nodes = sorted({canonical_spec(spec) for e in edges for spec in (e.src, e.dst)})
    specs = nodes + ["C:81", "C:2", "EA:p=2,r=2", "D:64"]
    expected = realization_answers(edges, specs)
    assert sum(ans["holds"] is True for ans in expected.values()) > len(specs)
    for src in specs:
        g = RealizationGraph.load_default()
        for dst in specs:
            assert g.implies(src, dst) == expected[src, dst], (src, dst)


def test_database_edges_respect_gen_count():
    g = default_graph()
    for e in g.edges:
        assert gen_count_necessary(e.src, e.dst, graph=g)


def test_bad_database_edge_rejected():
    """A missing citation, or an end that names no group, is refused on
    construction; the generator-count condition, which used to be checked
    there too, is checked when a query first follows the edge."""
    from pgal.autoreal import Edge

    for edge, detail in [
        (("C:4", "C:8", ""), "edge C:4 => C:8 lacks a citation"),
        (("C:4", "D:12", "x"), "cannot build 'D:12': order 12 not in this 2-power family (min 8)"),
        (("EA:p=4,r=2", "C:2", "x"), "cannot resolve 'EA:p=4,r=2': EA needs a prime p, got p=4"),
    ]:
        with pytest.raises(UnknownSpec) as exc:
            RealizationGraph([Edge(*edge)])
        assert exc.value.detail == detail
    g = RealizationGraph([Edge("C:4", "EA:p=2,r=2", "bogus")])
    assert g._groups == {}
    for _ in range(2):
        with pytest.raises(UnknownSpec) as exc:
            g.implies("C:4", "EA:p=2,r=2")
        assert exc.value.detail == "edge C:4 => EA:p=2,r=2 violates the generator-count condition"


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


def test_the_bound_has_at_most_4300_decimal_digits():
    # Python prints no int of more than 4300 digits; p^k is refused before it is formed
    assert len(str(multiplicity_bound(2, 2, 14284).bound)) == 4300
    for k in (14285, 10 ** 9, 10 ** 30):
        with pytest.raises(BadParams, match="more than 4300 decimal digits"):
            multiplicity_bound(2, 2, k)
    # the exact edge at base 10, which multiplicity_bound refuses as no prime
    check_digits(10, 4299, "p^k")
    assert len(str(10 ** 4299)) == 4300
    with pytest.raises(BadParams, match="p\\^k has more than 4300 decimal digits"):
        check_digits(10, 4300, "p^k")
