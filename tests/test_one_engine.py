"""One H^2 engine for every table: the pc reader, the transfer, and the
Sylow reduction.

A q-group table without a presentation has one read off it
(presentation.read_pc); any other table goes through a Sylow p-subgroup and
the transfer (cohomology.corestrict).  They are checked against the tree and
four-case oracles in oracles.py, against cor res = [G : H], and against
the dimensions that H_1 and the Schur multiplier give.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgal.catalog import build_group
from pgal.cohomology import (
    CoboundarySpace,
    Cocycle2,
    _classes,
    _cor_coords,
    class_equal,
    corestrict,
    corestrict_tate,
    h2_enumerate,
    is_coboundary,
    is_cocycle_table,
    restrict,
)
from pgal import presentation
from pgal.errors import BadIndexSubgroup, NotPGroup, RelationInconsistent
from pgal.groups import (
    Group,
    direct_product,
    subgroup_generated,
    subgroups_of_index2,
    sylow_subgroup,
)
from pgal.presentation import PcPresentation, pc_table, read_pc

from oracles import corestrict_four_case, permutation_group, tree_h2_dim


def _bare(G):
    return Group(G.np_table, G.generators, check=False)


def _catalog_specs(limit):
    """Every catalog family spec of prime-power order at most `limit`, and a
    few products."""
    primes = [q for q in range(2, limit + 1) if all(q % d for d in range(2, q))]
    specs = []
    for q in primes:
        top = max(e for e in range(1, limit.bit_length() + 1) if q ** e <= limit)
        specs += [f"C:{q ** e}" for e in range(1, top + 1)]
        specs += [f"EA:p={q},r={r}" for r in range(2, top + 1)]
        specs += [f"Mmod:p={q},n={n}" for n in range(3, top + 1)]
        specs += [f"G{i}:p={q}" for i in (1, 2) if top >= 3]
        specs += [f"G{i}:p={q}" for i in range(3, 8) if top >= 4 and (i, q) != (7, 2)]
        specs += [f"MSS:p={q},n={n},j={j}" for n in range(1, top) for j in range(1, top - n + 1)
                  if j <= q ** n]
    for fam, smallest in (("D", 8), ("Q", 8), ("SD", 16), ("M", 16)):
        specs += [f"{fam}:{1 << e}" for e in range(3, 9) if smallest <= 1 << e <= limit]
    return specs + ["D:8*C:2*C:2", "Q:8*C:4", "G1:p=3*C:3", "C:9*C:9"]


def _round_trip(G):
    H, L = read_pc(G)
    pc, table = H.pc, H.np_table
    n = G.order
    assert sorted(L.tolist()) == list(range(n))
    assert all(e == pc.rel_orders[0] for e in pc.rel_orders)
    assert int(np.prod(pc.rel_orders)) == n
    # the rebuilt table is G's under L: L(a b) = L(a) L(b)
    T = table.astype(np.int64)
    assert np.array_equal(table, pc_table(pc))
    assert np.array_equal(L[T], G.np_table[np.ix_(L, L)])


def test_the_reader_round_trips_every_catalog_spec_and_its_index_2_subgroups():
    specs = _catalog_specs(256)
    assert len(specs) == len(set(specs)) == 173
    subgroups = 0
    for spec in specs:
        G = build_group(spec)
        _round_trip(_bare(G))
        for H in subgroups_of_index2(G):
            _round_trip(H.as_group())
            subgroups += 1
    assert subgroups == 700


def test_the_reader_takes_a_group_file_without_generators():
    for spec in ("D:16", "G7:p=3", "MSS:p=2,n=2,j=3", "C:1"):
        G = build_group(spec)
        bare = Group.from_json({"order": G.order, "table": G.table})
        _round_trip(bare)
        assert len(read_pc(bare)[0].pc.rel_orders) == {16: 4, 81: 4, 32: 5, 1: 0}[G.order]


def test_the_reader_refuses_a_group_that_is_not_a_q_group():
    with pytest.raises(NotPGroup):
        read_pc(_bare(build_group("D:8*C:3")))


NOT_REBUILT = "the read presentation does not rebuild the table"


def test_a_consistent_reading_that_is_no_homomorphism_is_refused(monkeypatch):
    """Bare D:8 reads as x0^2 = x2, x0^-1 x1 x0 = x1 x2: with that conjugate
    word made x1, the presentation is consistent (C4 x C2, which pc_table
    builds) but abelian, so L is a bijection that is not multiplicative."""
    G, of = _bare(build_group("D:8")), PcPresentation.of
    assert read_pc(G)[0].pc.conj[(0, 1)] == {1: 1, 2: 1}

    def abelian(rel_orders, powers, conj):
        return of(rel_orders, powers, {**conj, (0, 1): {1: 1}})
    monkeypatch.setattr(PcPresentation, "of", abelian)
    with pytest.raises(RelationInconsistent) as exc:
        read_pc(G)
    assert exc.value.detail == NOT_REBUILT


def test_a_reading_that_repeats_an_element_is_refused(monkeypatch):
    """Bare C:9 reads x0 = 1, x1 = 3, and L (L[3 a + b] = x0^a x1^b) is built
    from the powers x^0, x^1, x^2 of x1 and then of x0.  With x0's powers
    given as x0^0, x0^1, x0^1, L repeats 1, 4 and 7, while the two values
    the words read through argsort(L), 0 and 3, stay once each, so the
    words and H are right.  The reading is refused even when the
    homomorphism half is made to pass: the bijectivity half refuses it on
    its own."""
    G, powers, calls = _bare(build_group("C:9")), Group._powers, []

    def repeating(self, a, k):
        out = powers(self, a, k)
        if len(a) == 3 and (a == a[0]).all():  # read_pc's own calls: 2 to span, 2 to build L
            calls.append(int(a[0]))
            if len(calls) == 4:
                out[2] = out[1]
        return out
    monkeypatch.setattr(Group, "_powers", repeating)
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(presentation, "is_multiplicative", lambda *args: True)
        calls.clear()
        with pytest.raises(RelationInconsistent) as exc:
            read_pc(G)
        assert exc.value.detail == NOT_REBUILT and calls == [1, 3, 3, 1]


# -- the transfer -------------------------------------------------------------------


@pytest.mark.parametrize("spec", ["C:8", "EA:p=2,r=3", "D:8", "Q:8", "C:4*C:2", "D:16", "Q:16",
                                  "SD:16", "M:16", "D:8*C:2", "EA:p=2,r=4", "Q:32"])
def test_the_transfer_at_index_2_is_the_four_case_formula(spec):
    G = build_group(spec)
    for H in subgroups_of_index2(G):
        outside = [g for g in range(G.order) if g not in H]
        reps = h2_enumerate(H.as_group(), 2).representatives
        for i, fbar in enumerate(reps[:64]):
            g = outside[i % len(outside)]
            want = corestrict_four_case(fbar, H, g).values
            assert np.array_equal(corestrict(fbar, H, [0, g]).values, want), (spec, g)
            assert np.array_equal(corestrict_tate(fbar, H, g).values, want)
        assert np.array_equal(corestrict_tate(reps[-1], H).values,
                              corestrict_four_case(reps[-1], H, outside[0]).values)


def test_a_transversal_must_be_one():
    G = build_group("D:8")
    H = subgroups_of_index2(G)[0]
    fbar = h2_enumerate(H.as_group(), 2).representatives[1]
    inside = H.elements[1]
    outside = int(np.argmin(H.pos >= 0))
    # a cast would read 1.5 as 1 and False as 0, giving the transversal [0, 1]
    for R in ([0, inside], [0], [0, 99], [0, -1], [0, outside + 0.5], [False, outside]):
        with pytest.raises(BadIndexSubgroup):
            corestrict(fbar, H, R)
    for g in (99, -1):
        with pytest.raises(BadIndexSubgroup):
            corestrict_tate(fbar, H, g)


def _class(G, p, res, coeffs):
    """The combination of the listed basis with the given coefficients."""
    basis = [res.representatives[p ** (res.dimension - 1 - d) if res.complete else d]
             for d in range(res.dimension)]
    vals = np.zeros((G.order, G.order), dtype=np.int64)
    for c, b in zip(coeffs, basis):
        vals += c * b.values
    return Cocycle2(G, p, vals % p)


COR_RES = [("D:8", 2), ("Q:16", 2), ("D:16", 2), ("EA:p=2,r=3", 2), ("G1:p=3", 3),
           ("EA:p=3,r=2", 3), ("Mmod:p=3,n=3", 3), ("C:25", 5), ("EA:p=5,r=2", 5),
           ("D:8*C:3", 2), ("D:8*C:3", 3), ("C:9*C:2", 2), ("C:9*C:2", 3)]
_H2 = {}


def _solved(spec, p):
    if (spec, p) not in _H2:
        G = build_group(spec)
        _H2[spec, p] = (G, h2_enumerate(G, p))
    return _H2[spec, p]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(COR_RES), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_cor_res_is_the_index(case, sylow, seed):
    """cor(res f) ~ [G : H] f, for subgroups that need not be normal, and
    for Sylow subgroups, whose index is a unit in the mixed products."""
    spec, p = case
    G, res = _solved(spec, p)
    rng = np.random.default_rng(seed)
    H = sylow_subgroup(G, p) if sylow else \
        subgroup_generated(G, rng.integers(0, G.order, rng.integers(1, 3)).tolist())
    f = _class(G, p, res, rng.integers(0, p, res.dimension))
    cor = corestrict(restrict(f, H), H)
    assert is_cocycle_table(G, p, cor.values)
    assert class_equal(cor, Cocycle2(G, p, f.values * H.index() % p))


@pytest.mark.parametrize("spec,p", [("D:8*C:3", 2), ("C:9*C:2", 3), ("C:9*C:2", 2),
                                    ("D:8*C:3", 3)])
def test_cor_res_at_a_unit_index_keeps_every_class(spec, p):
    """At a Sylow subgroup the index is a unit, so cor res is onto and a
    class that is not a coboundary stays one that is not."""
    G, res = _solved(spec, p)
    P = sylow_subgroup(G, p)
    assert P.index() % p
    assert res.dimension
    for f in res.representatives:
        cor = corestrict(restrict(f, P), P)
        assert class_equal(cor, Cocycle2(G, p, f.values * P.index() % p))
        assert is_coboundary(cor) == (not f.values.any())


def test_cor_res_on_subgroups_that_are_not_normal():
    for spec, p, seed in (("D:8", 2, [5]), ("D:16", 2, [9]), ("D:8*C:3", 3, [12]),
                          ("G1:p=3", 3, [3])):
        G, res = _solved(spec, p)
        H = subgroup_generated(G, seed)
        assert not H.is_normal()
        for f in res.representatives:
            cor = corestrict(restrict(f, H), H)
            assert class_equal(cor, Cocycle2(G, p, f.values * H.index() % p))


# -- groups that are not p-groups ------------------------------------------------------


@pytest.mark.parametrize("name,degree,even", [("S3", 3, False), ("A4", 4, True),
                                              ("S4", 4, False), ("A5", 5, True)])
def test_the_sylow_reduction_agrees_with_the_tree_oracle(name, degree, even):
    G = permutation_group(degree, even)
    for p in (2, 3, 5):
        res = h2_enumerate(G, p)
        assert res.dimension == tree_h2_dim(G, p), (name, p)
        for f in res.representatives[1:]:
            assert is_cocycle_table(G, p, f.values)
            assert not is_coboundary(f)


def test_s5_and_a6_beyond_the_tree_caps():
    """From H_1 and the Schur multiplier: S5 has C2 and C2, so (2, 0, 0);
    A6 has 0 and C6, so (1, 1, 0)."""
    S5, A6 = permutation_group(5, False), permutation_group(6, True)
    assert [h2_enumerate(S5, p).dimension for p in (2, 3, 5)] == [2, 0, 0]
    assert [h2_enumerate(A6, p).dimension for p in (2, 3, 5)] == [1, 1, 0]


@pytest.mark.parametrize("degree,even", [(4, False), (6, True)])
def test_the_corestriction_coordinates_read_only_the_generator_columns(degree, even):
    """_cor_coords gathers the transfer at the kept generators' columns
    alone; it gives what normalise reads off the full corestriction."""
    G = permutation_group(degree, even)
    for p in (2, 3):
        P = sylow_subgroup(G, p)
        dim, build = _classes(P.as_group(), p)
        cob = CoboundarySpace(G, p)
        coords = _cor_coords(cob, P, dim, build)
        assert coords.shape == (dim, cob.N) and dim
        for e, row in zip(np.eye(dim, dtype=np.int64), coords):
            full = corestrict(build(e), P).values
            assert np.array_equal(row, cob.normalise(full[:, cob.gens])[1]), (degree, p)


KUNNETH = [("D:8", 2), ("Q:8", 2), ("C:4*C:2", 2), ("G1:p=3", 3), ("C:9", 3), ("EA:p=5,r=2", 5),
           ("S3", 2), ("S3", 3), ("A4", 2), ("A4", 3)]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(KUNNETH), st.sampled_from([2, 3, 5, 7]))
def test_a_factor_of_order_prime_to_p_leaves_the_dimension(case, q):
    name, p = case
    if q == p:
        q = 11
    G = permutation_group(int(name[1]), name[0] == "A") if name[0] in "SA" else build_group(name)
    assert p * q * G.order <= 4096
    GxC = _bare(direct_product(G, build_group(f"C:{q}")))
    assert h2_enumerate(GxC, p).dimension == h2_enumerate(G, p).dimension
