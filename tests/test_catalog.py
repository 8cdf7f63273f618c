"""The pc table builder against reference constructions, and the catalog's errors.

The reference oracles below are the constructions the catalog used before
the level-by-level builder: collection from the left for pc presentations,
the numpy sum for cyclic groups, a chain of direct products for elementary
abelian groups, and the module formula for the MSS semidirect products.
They are slow (collection is cubic in the order), so the comparison stops
at order 128; the benchmark's recorded digests cover orders 256-4096.
"""

import itertools
import json
import time

import numpy as np
import pytest

from pgal import catalog
from pgal.catalog import build_group
from pgal.cli import main
from pgal.errors import NotNormal, OrderTooLarge, RelationInconsistent, UnknownFamily
from pgal.groups import Group, direct_product, quotient, subgroup_generated
from pgal.presentation import PcPresentation, pc_table

ORACLE_MAX = 128


class _Collector:
    """Collection from the left for a consistent pc presentation.

    Generators are listed in collection order; the normal form is
    x_0^{a_0} ... x_{k-1}^{a_{k-1}} with 0 <= a_i < rel_orders[i].
    `powers[i]` expands x_i^{e_i} as {pos: exp} over positions > i, and
    `conj[(i, j)]` (i < j) expands x_i^{-1} x_j x_i the same way.
    """

    def __init__(self, rel_orders, powers=None, conj=None):
        self.e = list(rel_orders)
        self.k = len(self.e)
        self.powers = {i: sorted((powers or {}).get(i, {}).items()) for i in range(self.k)}
        self.conj = {key: sorted(word.items()) for key, word in (conj or {}).items()}

    def right_mul_gen(self, nf: tuple, i: int) -> tuple:
        tail = [(j, nf[j]) for j in range(i + 1, self.k) if nf[j]]
        if not tail:
            a = nf[i] + 1
            out = list(nf)
            if a < self.e[i]:
                out[i] = a
                return tuple(out)
            out[i] = 0
            res = tuple(out)
            for pos, exp in self.powers[i]:
                for _ in range(exp):
                    res = self.right_mul_gen(res, pos)
            return res
        prefix = list(nf)
        for j, _ in tail:
            prefix[j] = 0
        res = self.right_mul_gen(tuple(prefix), i)
        for j, a in tail:
            for _ in range(a):
                for pos, exp in self.conj.get((i, j), [(j, 1)]):
                    for _ in range(exp):
                        res = self.right_mul_gen(res, pos)
        return res

    def build_table(self):
        forms = list(itertools.product(*[range(m) for m in self.e]))
        index = {f: i for i, f in enumerate(forms)}
        n = len(forms)
        T = np.zeros((n, n), dtype=np.int64)
        # incremental fill: b = b' * x_j with j the last nonzero position
        for bi, b in enumerate(forms):
            if bi == 0:
                T[:, 0] = np.arange(n)
                continue
            j = max(pos for pos in range(self.k) if b[pos])
            prev = list(b)
            prev[j] -= 1
            pi = index[tuple(prev)]
            for ai in range(n):
                T[ai, bi] = index[self.right_mul_gen(forms[int(T[ai, pi])], j)]
        return T, index


def _collected(rel_orders, powers, conj, display):
    T, index = _Collector(rel_orders, powers, conj).build_table()
    k = len(rel_orders)
    gens = [(name, index[tuple(int(t == pos) for t in range(k))]) for name, pos in display]
    return T, gens


def _mss_formula(p, n, j):
    """M_j x| C_{p^n} from the module action: (v1, t1)(v2, t2) = (v1 + s^t1 v2, t1 + t2)."""
    pn = p ** n
    A = [[1 if (r == c or r == c + 1) else 0 for c in range(j)] for r in range(j)]
    mats = []
    cur = [[1 if r == c else 0 for c in range(j)] for r in range(j)]
    for _ in range(pn):
        mats.append(cur)
        cur = [[sum(A[r][x] * cur[x][c] for x in range(j)) % p for c in range(j)] for r in range(j)]
    vecs = list(itertools.product(*[range(p)] * j))
    vindex = {v: i for i, v in enumerate(vecs)}
    elems = [(v, t) for v in range(len(vecs)) for t in range(pn)]
    T = np.zeros((len(elems), len(elems)), dtype=np.int64)
    for i1, (v1, t1) in enumerate(elems):
        M = mats[t1]
        w1 = vecs[v1]
        for i2, (v2, t2) in enumerate(elems):
            w2 = vecs[v2]
            moved = tuple(sum(M[r][c] * w2[c] for c in range(j)) % p for r in range(j))
            total = tuple((w1[r] + moved[r]) % p for r in range(j))
            T[i1, i2] = vindex[total] * pn + (t1 + t2) % pn
    m_unit = vindex[tuple(1 if r == 0 else 0 for r in range(j))] * pn
    return T, [("s", 1), ("m", m_unit)]


def _cyclic_sum(n):
    T = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return T, [("sigma", 1)] if n > 1 else []


def _ea_chain(p, r):
    if r == 0:
        return _cyclic_sum(1)
    out = Group(*_cyclic_sum(p))
    for _ in range(r - 1):
        out = direct_product(out, Group(*_cyclic_sum(p)))
    return out.np_table, [(f"e{i + 1}", p ** (r - 1 - i)) for i in range(r)]


_SIGMA_TAU = [("sigma", 1), ("tau", 0)]
_G_DISPLAY = [("g1", 1), ("g2", 0), ("g3", 2), ("g4", 3)]


def _g_presentation(fam, p):
    """Power and conjugation words of G3 .. G6 at the prime p."""
    c2 = {(0, 1): {1: 1, 2: p - 1}}
    c3 = {(0, 1): {1: 1, 3: p - 1}}
    return {"G3": ({1: {3: 1}}, c2), "G4": ({0: {2: 1}, 1: {3: 1}}, c2),
            "G5": ({1: {2: 1}, 2: {3: 1}}, c3), "G6": ({2: {3: 1}}, c3)}[fam]


def _oracle_cases():
    """(spec, group name, thunk giving the reference (table, generators)) up to
    ORACLE_MAX."""
    primes = [2, 3, 5, 7, 11]
    cases = []
    prime_powers = sorted(p ** r for p in primes for r in range(1, 8) if p ** r <= ORACLE_MAX)
    for n in [1, 6, 12, 127] + prime_powers:
        cases.append((f"C:{n}", f"C{n}", lambda n=n: _cyclic_sum(n)))
    for p in primes:
        for r in range(0, 8):
            if p ** r <= ORACLE_MAX:
                cases.append((f"EA:p={p},r={r}", f"EA({p},{r})", lambda p=p, r=r: _ea_chain(p, r)))
    for order in (8, 16, 32, 64, 128):
        m = order // 2
        cases.append((f"D:{order}", f"D{order}", lambda m=m: _collected(
            [2, m], {}, {(0, 1): {1: m - 1}}, _SIGMA_TAU)))
        cases.append((f"Q:{order}", f"Q{order}", lambda m=m: _collected(
            [2, m], {0: {1: m // 2}}, {(0, 1): {1: m - 1}}, _SIGMA_TAU)))
        if order >= 16:
            cases.append((f"SD:{order}", f"SD{order}", lambda m=m: _collected(
                [2, m], {}, {(0, 1): {1: m // 2 - 1}}, _SIGMA_TAU)))
            cases.append((f"M:{order}", f"M{order}", lambda m=m: _collected(
                [2, m], {}, {(0, 1): {1: m // 2 + 1}}, _SIGMA_TAU)))
    for p, n in [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (5, 3)]:
        m, q = p ** (n - 1), p ** (n - 2)
        cases.append((f"Mmod:p={p},n={n}", f"M({p}^{n})", lambda p=p, m=m, q=q: _collected(
            [p, m], {}, {(0, 1): {1: (1 - q) % m}}, [("alpha", 1), ("beta", 0)])))
    for p in (2, 3, 5):
        cases.append((f"G1:p={p}", f"G1({p})", lambda p=p: _collected(
            [p] * 3, {}, {(0, 1): {1: 1, 2: p - 1}}, [("g1", 0), ("g2", 1), ("g3", 2)])))
        cases.append((f"G2:p={p}", f"G2({p})", lambda p=p: _collected(
            [p, p * p], {}, {(0, 1): {1: p + 1}}, [("g1", 1), ("g2", 0)])))
    for p in (2, 3):
        for fam in ("G3", "G4", "G5", "G6"):
            cases.append((f"{fam}:p={p}", f"{fam}({p})", lambda fam=fam, p=p: _collected(
                [p] * 4, *_g_presentation(fam, p), _G_DISPLAY)))
    cases.append(("G7:p=3", "G7(3)", lambda: _collected(
        [3] * 4, {}, {(0, 1): {1: 1, 2: 2}, (0, 2): {2: 1, 3: 2}},
        [("sigma", 3), ("tau", 2), ("lambda", 1), ("mu", 0)])))
    for p in primes:
        for n in range(1, 7):
            for j in range(1, p ** n + 1):
                if p ** (n + j) > ORACLE_MAX:
                    break
                cases.append((f"MSS:p={p},n={n},j={j}", f"MSS({p},{n},{j})",
                              lambda p=p, n=n, j=j: _mss_formula(p, n, j)))
    return cases


@pytest.mark.parametrize("spec", ["MSS:p=3,n=0,j=1", "MSS:p=2,n=-1,j=1"])
def test_mss_needs_a_nontrivial_cyclic_factor(spec):
    """At n = 0 the generator s of C_(p^n) is the identity, yet the group was
    built and named s by m's index; C:p names that group."""
    with pytest.raises(UnknownFamily):
        build_group(spec)


def test_every_catalog_family_spec_matches_its_reference():
    cases = _oracle_cases()
    assert {spec.partition(":")[0] for spec, _, _ in cases} == set(catalog._FAMILIES)
    assert {"C1", "C9", "EA(3,2)", "D16", "SD16", "Q32", "M16", "M(3^3)", "G1(3)", "G2(3)", "G3(3)",
            "G4(3)", "G5(3)", "G6(3)", "G7(3)", "MSS(3,1,3)"} <= {name for _, name, _ in cases}
    for spec, name, reference in cases:
        T, gens = reference()
        G = build_group(spec)
        assert G.np_table.dtype == np.int16, spec
        assert np.array_equal(G.np_table, T), spec
        assert G.generators == gens, spec
        assert G.name == name, spec


@pytest.mark.parametrize("rel_orders,powers,conj", [
    ([2, 4], {}, {(0, 1): {1: 2}}),        # x1 -> x1^2 is not bijective
    ([2, 64], {}, {(0, 1): {1: 5}}),       # phi^2 = (x1 -> x1^25) is not the identity
    ([2, 128], {}, {(0, 1): {1: 5}}),
    ([2, 64], {0: {1: 1}}, {(0, 1): {1: 63}}),  # phi moves x0^2 = x1
    # a word letter must be a later generator with an exponent >= 0: these read
    # as x1^2 (C8), as the identity, and ended in IndexError twice
    ([2, 4], {0: {-1: 2}}, {}),
    ([2, 4], {0: {1: -2}}, {}),
    ([2, 4], {0: {2: 1}}, {}),
    ([2, 4], {}, {(0, 1): {1: 3, 0: 1}}),
])
def test_builder_rejects_inconsistent_presentations(rel_orders, powers, conj):
    with pytest.raises(RelationInconsistent):
        pc_table(PcPresentation.of(rel_orders, powers, conj))


@pytest.mark.parametrize("powers,conj,key", [
    ({5: {1: 1}}, {}, "5"),
    ({-1: {}}, {}, "-1"),
    ({2: {}}, {}, "2"),
    ({}, {(1, 0): {1: 3}}, "(1, 0)"),
    ({}, {(1, 1): {1: 1}}, "(1, 1)"),
    ({}, {(0, 2): {}}, "(0, 2)"),
    ({}, {0: {1: 1}}, "0"),
])
def test_a_relation_key_outside_the_presentation_is_rejected(powers, conj, key):
    """Each key on its own: the builder used to drop it and build C2 x C4;
    pc_table takes only a presentation PcPresentation.of has made."""
    with pytest.raises(RelationInconsistent) as exc:
        PcPresentation.of([2, 4], powers, conj)
    assert exc.value.detail.endswith(f"has the key {key}")


@pytest.mark.parametrize("spec,order", [
    ("C:8192", 8192), ("D:8192", 8192), ("SD:8192", 8192), ("Q:8192", 8192),
    ("M:8192", 8192), ("EA:p=2,r=13", 8192), ("G1:p=17", 4913), ("G2:p=17", 4913),
    ("G3:p=11", 14641), ("G4:p=11", 14641), ("G5:p=11", 14641), ("G6:p=11", 14641),
    ("G7:p=11", 14641), ("Mmod:p=2,n=13", 8192), ("MSS:p=2,n=12,j=1", 8192),
])
def test_every_family_has_the_same_order_cap(spec, order):
    with pytest.raises(OrderTooLarge) as exc:
        build_group(spec)
    assert exc.value.detail == f"order {order} exceeds cap 4096"


@pytest.mark.parametrize("spec", ["G3:p=0", "G1:p=1", "Mmod:p=1,n=3", "G1:p=4",
                                  "EA:p=6,r=2", "MSS:p=4,n=1,j=2"])
def test_cli_rejects_non_prime_p(capsys, spec):
    code = main(["groups", "build", "--spec", spec, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert set(doc) == {"error", "detail"}
    assert doc["error"] == "UnknownFamily"


def test_a_spec_parses_to_its_checked_factors():
    assert catalog.parse_spec("D:8*EA:r=3,p=2") == [("D", {"order": 8}), ("EA", {"p": 2, "r": 3})]
    assert list(catalog.parse_spec("MSS:j=2,p=3,n=1")[0][1]) == ["p", "n", "j"]


@pytest.mark.parametrize("spec", ["EA:p=2,r=2,p=3", "EA:p=2,r=2,junk=1"])
def test_a_spec_gives_each_parameter_exactly_once(capsys, spec):
    """A repeated p used to take its last value (EA(3,2)), and a parameter the
    family does not take was ignored."""
    for call in (build_group, catalog.canonical_spec):
        with pytest.raises(UnknownFamily):
            call(spec)
    code = main(["groups", "build", "--spec", spec, "--json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "UnknownFamily", "detail": f"{spec!r} is neither a catalog spec nor an existing file"}


def _reference_quotient(G, N):
    """Quotient by cosets of least elements, with normality tested on every element."""
    els = set(N.elements)
    if any(G.conj(g, x) not in els for g in range(G.order) for x in N.elements):
        raise NotNormal("subgroup is not normal")
    coset_of = [-1] * G.order
    reps = []
    for x in range(G.order):
        if coset_of[x] < 0:
            members = sorted(G.mul(x, h) for h in N.elements)
            for y in members:
                coset_of[y] = len(reps)
            reps.append(members[0])
    table = [[coset_of[G.mul(a, b)] for b in reps] for a in reps]
    return table, coset_of


@pytest.mark.parametrize("spec,seed", [("D:16", ["sigma^4"]), ("D:16", ["tau"]),
                                       ("G3:p=3", ["g4"]), ("C:4*C:4*C:2", ["sigma^2"]),
                                       ("Q:16", ["sigma^2"]), ("D:8*C:4", ["tau"])])
def test_quotient_matches_reference(spec, seed):
    G = build_group(spec)
    gens = []
    for word in seed:
        name, _, exp = word.partition("^")
        gens.append(G.power(G.gen(name), int(exp or 1)))
    N = subgroup_generated(G, gens)
    try:
        table, coset_of = _reference_quotient(G, N)
    except NotNormal as exc:
        with pytest.raises(NotNormal) as got:
            quotient(G, N)
        assert got.value.detail == exc.detail
        return
    Q, proj = quotient(G, N)
    assert Q.table == table
    assert list(proj.images) == coset_of



@pytest.mark.parametrize("spec,shown", [("EA:p=2,r=20000", "2^20000"),
                                        ("MSS:p=2,n=20,j=1000000", "2^1000020"),
                                        ("Mmod:p=3,n=1000000", "3^1000000")])
def test_huge_exponent_parameters_are_refused_at_once(capsys, spec, shown):
    start = time.perf_counter()
    code = main(["groups", "build", "--spec", spec, "--json"])
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc == {"error": "OrderTooLarge", "detail": f"order {shown} exceeds cap 4096"}
    assert elapsed < 1.0


def test_a_parameter_too_long_to_read_is_a_bad_parameter(capsys):
    code = main(["groups", "build", "--spec", "EA:p=2,r=" + "1" * 5000, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["error"] == "UnknownFamily"
    assert doc["detail"].startswith("'EA:p=2,r=111")


def test_spec_order_is_the_order_of_the_group_built():
    from oracles import family_specs

    products = ["D:8*C:2", "C:2*C:2*C:2", "Q:8*EA:p=2,r=2", "G1:p=3*C:3",
                "MSS:j=2,n=1,p=3*C:1", "EA:p=2,r=2*M:16*C:4", "D:64*C:64"]
    for spec in family_specs(256) + products:
        assert catalog.spec_order(spec) == build_group(spec).order, spec


@pytest.mark.parametrize("spec", ["D:12", "EA:p=4,r=2", "C:8192", "EA:p=2,r=1000000000",
                                  "C:2*D:12", "D:64*C:128", "C:8192*D:12", "G7:p=2",
                                  "C:2*G7:p=2"])
def test_spec_order_refuses_a_spec_as_build_group_does(spec):
    """At once, since no table is built or list of a billion orders formed.
    G7's presentation does not close at p = 2, and G7:p=2 is refused by its
    parameters, where it used to fail only in the table's Hoelder check."""
    errors = []
    for call in (build_group, catalog.spec_order):
        start = time.perf_counter()
        with pytest.raises((UnknownFamily, OrderTooLarge)) as exc:
            call(spec)
        assert time.perf_counter() - start < 1.0
        errors.append((type(exc.value), exc.value.detail))
    assert errors[0] == errors[1]


def test_spec_order_runs_without_numpy():
    from fresh import run_call

    req = run_call("from pgal.catalog import spec_order",
                   "assert spec_order('D:64*C:64') == 4096\n"
                   "assert spec_order('MSS:p=3,n=2,j=3') == 243")
    assert req.code == 0, req.stderr
    assert "numpy" not in req.modules and "pgal.groups" not in req.modules
