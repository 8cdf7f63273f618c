"""Subgroup membership, Frattini coordinates, least preimages, pullback pairs
and normal subgroups against the loops the library ran before each became
one array computation; the loops stay here as oracles.  So do the second
copies of laws the library now computes once: Hoelder's conditions on the
full table, the carry cocycle built from C_{p^n}, raise_lower's walk over
the quotient, and the two valuation splits of the Hilbert symbol."""

import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgal import presentation
from pgal.presentation import PcPresentation
from pgal.arith import factor, legendre
from pgal.catalog import build_group, cyclic
from pgal.cohomology import (
    Cocycle2,
    cocycle_of_extension,
    cyclic_step_cocycle,
    extension_of_cocycle,
    h2_enumerate,
    power_commutator_data,
    raise_lower,
)
from pgal.errors import OrderTooLarge, RelationInconsistent, TargetMismatch
from pgal.groups import (
    Group,
    GroupHom,
    Subgroup,
    cayley_tree,
    frattini_style_subgroup,
    normal_subgroups,
    pullback,
    quotient,
    subgroup_generated,
    subgroups_of_index2,
    trivial_subgroup,
)
from pgal.symbols import hilbert_local

from oracles import family_specs, section_by_cosets
from test_catalog import _oracle_cases
from test_groups import _oracle_groups


def _prime_divisors(n):
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]


def _groups(limit):
    """_oracle_groups, and a group file whose first named element is central
    in a group that is not abelian (G1:p=3 x C3): commutators with that
    element alone do not give the derived subgroup."""
    G = build_group("G1:p=3*C:3")
    return _oracle_groups(limit) + [
        ("G1:p=3*C:3 file", Group.from_json({"order": G.order, "table": G.table}))]


GROUPS = _groups(256)
SMALL = [(name, G) for name, G in GROUPS if G.order <= 64]


# -- the old loops ------------------------------------------------------------------


def _loop_frattini(G, p):
    """x^p and [x, s] element by element, then closure under conjugation."""
    seeds = set()
    gens = [b for _, b in G.generators]
    for a in range(G.order):
        seeds.add(G.power(a, p))
        for b in gens:
            seeds.add(G.commutator(a, b))
    current = set(G.closure(seeds))
    while True:
        extra = {G.conj(g, x) for g in gens for x in current} - current
        if not extra:
            return sorted(current)
        current = set(G.closure(current | extra))


def _loop_index2(G):
    """A greedy basis of G/Phi by repeated closures, coordinates by products of
    the basis, and each kernel by a membership test per element."""
    if G.order % 2:
        return []
    Q, proj = quotient(G, Subgroup(G, _loop_frattini(G, 2)))
    basis, span = [], {0}
    for x in range(Q.order):
        if len(span) == Q.order:
            break
        if x not in span:
            basis.append(x)
            span = set(Q.closure(basis))
    coords = {}
    for bits in range(2 ** len(basis)):
        e = 0
        for k in range(len(basis)):
            if bits >> k & 1:
                e = Q.mul(e, basis[k])
        coords[e] = bits
    return [tuple(x for x in range(G.order) if bin(coords[proj(x)] & phi).count("1") % 2 == 0)
            for phi in range(1, 2 ** len(basis))]


def _loop_pullback(G1, G2, f1, f2):
    """The pairs by a double loop, numbered through a dict."""
    if G1.order * G2.order > 4096 * f1.target.order:
        raise OrderTooLarge("pullback too large")
    pairs = [(x, y) for x in range(G1.order) for y in range(G2.order) if f1(x) == f2(y)]
    code = {(x, y): i for i, (x, y) in enumerate(pairs)}
    xs = np.array([x for x, _ in pairs])
    ys = np.array([y for _, y in pairs])
    lookup = np.full((G1.order, G2.order), -1, dtype=np.int16)
    for (x, y), i in code.items():
        lookup[x, y] = i
    T = lookup[G1.np_table[xs[:, None], xs[None, :]], G2.np_table[ys[:, None], ys[None, :]]]
    gens = [(f"g{x}.{y}", code[(x, y)])
            for (x, y) in (pairs[i] for i in cayley_tree(T, range(1, len(pairs)))[0])]
    return T, gens, xs.tolist(), ys.tolist()


def _scan_section(proj):
    """The least preimage of each element, one scan of the source each."""
    return [min(x for x in range(proj.source.order) if proj(x) == s)
            for s in range(proj.target.order)]


class _DictSubgroup:
    """Membership by a dict of local indices and a boolean mask."""

    def __init__(self, parent, elements):
        self.parent, self.elements = parent, tuple(sorted(elements))
        self.local = {e: i for i, e in enumerate(self.elements)}
        self.inside = np.zeros(parent.order, dtype=bool)
        self.inside[list(self.elements)] = True

    def is_normal(self):
        T = self.parent.np_table
        els = np.array(self.elements)
        return all(self.inside[T[T[g, els], self.parent.inv(g)]].all()
                   for _, g in self.parent.generators)

    def table(self):
        els = np.array(self.elements)
        back = np.full(self.parent.order, -1, dtype=np.int16)
        back[els] = np.arange(len(els))
        return back[self.parent.np_table[np.ix_(els, els)]]


def _loop_normal_subgroups(G):
    """One normal closure per element (closure walks under conjugation by the
    generators until nothing moves), then the joins with the atoms."""
    T = G.np_table
    conjs = np.array([T[T[s], G.inv(s)] for _, s in G.generators],
                     dtype=np.int64).reshape(-1, G.order)

    def mask(els):
        inside = np.zeros(G.order, dtype=bool)
        inside[els] = True
        return inside

    atoms = {}
    for x in range(G.order):
        current = G.closure({x})
        while True:
            moved = conjs[:, current].ravel()
            extra = moved[~mask(current)[moved]]
            if not extra.size:
                break
            current = G.closure(set(current) | set(extra.tolist()))
        atoms.setdefault(tuple(current), x)
    normals = {tuple(els) for els in [(0,), *atoms]}
    frontier = list(normals)
    while frontier:
        fresh = []
        for a in frontier:
            for b in atoms:
                j = tuple(np.flatnonzero(mask(T[np.ix_(a, b)].ravel())).tolist())
                if j not in normals:
                    normals.add(j)
                    fresh.append(j)
        frontier = fresh
    return sorted(normals, key=lambda t: (len(t), t))


# -- the library against them ----------------------------------------------------------


def test_frattini_subgroup_agrees_with_the_old_loop():
    for name, G in GROUPS:
        for p in _prime_divisors(G.order):
            assert list(frattini_style_subgroup(G, p).elements) == _loop_frattini(G, p), (name, p)


def test_s3_frattini_subgroups_at_2_and_3():
    S3 = dict(GROUPS)["S3"]
    # [S3, S3] = A3; squares give A3, cubes give every reflection
    assert np.array_equal(frattini_style_subgroup(S3, 2).elements, (0, 1, 2))
    assert frattini_style_subgroup(S3, 3).order == 6


def test_index2_subgroups_agree_with_the_old_loop():
    # EA(2,10) has 1,023 kernels, gathered in four blocks of 256: the blocks
    # of the groups up to order 256 hold all of their kernels at once
    large = ["EA:p=2,r=10", "D:4096", "C:64*C:64", "Q:8*Q:8*Q:8*C:4"]
    for name, G in GROUPS + [(spec, build_group(spec)) for spec in large]:
        assert [tuple(H.elements.tolist()) for H in subgroups_of_index2(G)] == _loop_index2(G), name


def test_pullback_agrees_with_the_pair_loop():
    for name, G in GROUPS:
        _, proj = quotient(G, G.center())
        try:
            want = _loop_pullback(G, G, proj, proj)
        except OrderTooLarge:
            with pytest.raises(OrderTooLarge):
                pullback(G, G, proj, proj)
            continue
        P, p1, p2 = pullback(G, G, proj, proj)
        T, gens, xs, ys = want
        assert np.array_equal(P.np_table, T) and P.np_table.dtype == np.int16, name
        assert P.generators == gens, name
        assert list(p1.images) == xs and list(p2.images) == ys, name


def _relabelling(G, rng):
    """An isomorphism from G onto its table relabelled by a random
    permutation fixing 0, the kind of map Cocycle2.transport reads."""
    n = G.order
    perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    table = np.empty((n, n), dtype=np.int64)
    table[np.ix_(perm, perm)] = perm[G.np_table]
    target = Group(table, [(name, int(perm[g])) for name, g in G.generators])
    return GroupHom(G, target, perm)


def test_least_preimage_section_agrees_with_the_scan():
    for name, G in GROUPS:
        for N in (G.center(), frattini_style_subgroup(G, _prime_divisors(G.order)[0])
                  if G.order > 1 else G.center()):
            _, proj = quotient(G, N)
            assert proj.section().tolist() == _scan_section(proj), name
    for name, G in SMALL:
        for p in (2, 3):
            ext = extension_of_cocycle(Cocycle2(G, p, np.zeros((G.order, G.order), dtype=np.int64)))
            assert ext.proj.section().tolist() == _scan_section(ext.proj), name
    # the bijections transport moves a cocycle along: the section is the inverse
    rng = np.random.default_rng(45)
    for name, G in SMALL:
        phi = _relabelling(G, rng)
        assert phi.section().tolist() == _scan_section(phi) == np.argsort(phi.images).tolist(), name


def test_a_map_that_is_not_onto_has_no_section():
    C2, C4, D8 = build_group("C:2"), build_group("C:4"), build_group("D:8")
    for phi in (GroupHom(C2, C4, (0, 2)), GroupHom(C4, C4, (0, 2, 0, 2)),
                GroupHom(C2, D8, (0, D8.gen("tau"))), GroupHom(C2, C2, (0, 0))):
        with pytest.raises(TargetMismatch, match="not surjective"):
            phi.section()


def test_the_section_scatter_agrees_with_the_coset_section():
    """GroupHom.section, one scatter of the images, against the least
    elements of the kernel's right cosets sorted by their images: on the
    extensions of the first 8 and the last listed class of every spec up to
    order 64 at each prime of its order (the classes test_pc_tails builds:
    every class's extension has the one projection arange(p n) // p, so
    building all 4,311 would repeat them), and on the bijections transport
    reads."""
    checked = 0
    for spec in family_specs(64):
        G = build_group(spec)
        for p in _prime_divisors(G.order):
            reps = h2_enumerate(G, p).representatives
            for i in sorted({*range(min(8, len(reps))), len(reps) - 1}):
                proj = extension_of_cocycle(reps[i]).proj
                assert np.array_equal(proj.section(), section_by_cosets(proj)), (spec, p, i)
                checked += 1
    assert checked == 882
    rng = np.random.default_rng(46)
    for name, G in SMALL:
        phi = _relabelling(G, rng)
        assert np.array_equal(phi.section(), section_by_cosets(phi)), name
    C2, C4 = build_group("C:2"), build_group("C:4")
    for phi in (GroupHom(C2, C4, (0, 2)), GroupHom(C4, C4, (0, 2, 0, 2))):
        for section in (GroupHom.section, section_by_cosets):
            with pytest.raises(TargetMismatch, match="not surjective"):
                section(phi)


def _loop_commutator_data(E, gens):
    """power_commutator_data on preimages found by the scan."""
    ext, p = E.extension, E.cocycle.p
    kp = {ext.power(E.kernel_gen, j): j for j in range(p)}
    pre = [_scan_section(E.proj)[E.proj.target.gen(g)] for g in gens]
    diag = [kp.get(ext.power(s, p)) for s in pre]
    off = {(i, j): kp.get(ext.mul(ext.mul(pre[i], pre[j]), ext.inv(ext.mul(pre[j], pre[i]))))
           for i in range(len(pre)) for j in range(i + 1, len(pre))}
    return diag, off


def test_commutator_data_is_read_off_the_least_preimages():
    for spec in ("D:8", "Q:8", "EA:p=2,r=2", "C:4*C:2"):
        G = build_group(spec)
        names = [n for n, _ in G.generators]
        for f in h2_enumerate(G, 2).representatives:
            E = extension_of_cocycle(f)
            assert power_commutator_data(E, names) == _loop_commutator_data(E, names), spec


def _sample_subgroups(G):
    subs = {tuple(G.center().elements.tolist()), (0,), tuple(range(G.order))}
    subs |= {tuple(H.elements.tolist()) for H in subgroups_of_index2(G)}
    subs |= {tuple(G.closure([x])) for x in range(min(G.order, 8))}
    return sorted(subs)


def test_subgroup_membership_agrees_with_the_old_dict():
    for name, G in SMALL:
        for els in _sample_subgroups(G):
            H, old = Subgroup(G, els), _DictSubgroup(G, els)
            assert H.pos.dtype == np.int16 and not H.pos.flags.writeable
            for x in range(-2, G.order + 2):
                assert (x in H) == (x in old.local), (name, els, x)
                if x in old.local:
                    assert H.local(x) == old.local[x] and H.elements[H.local(x)] == x
                else:
                    with pytest.raises(KeyError):
                        H.local(x)
            assert H.is_normal() == old.is_normal(), (name, els)
            assert np.array_equal(H.as_group().np_table, old.table()), (name, els)


def test_a_set_that_is_not_closed_is_refused():
    from pgal.errors import RelationInconsistent

    for spec, els in (("D:8", [0, 1]), ("C:4", [0, 1])):
        with pytest.raises(RelationInconsistent, match="not closed"):
            Subgroup(build_group(spec), els)


def _library_subgroups(G):
    """The subgroups the library builds without Subgroup's closure check."""
    _, proj = quotient(G, G.center())
    subs = [G.center(), proj.kernel(), trivial_subgroup(G)]
    subs += [subgroup_generated(G, [x]) for x in range(min(G.order, 8))]
    subs += [frattini_style_subgroup(G, p) for p in _prime_divisors(G.order)]
    subs += subgroups_of_index2(G)
    if G.order <= 64:
        subs += normal_subgroups(G)
    return subs


def _read_only_int16(a) -> bool:
    return a.dtype == np.int16 and not a.flags.writeable


def test_a_membership_array_is_built_when_it_is_first_read():
    for name, G in GROUPS:
        for H in _library_subgroups(G) + [Subgroup(G, G.center().elements)]:
            assert H._pos is None, name
            eager = np.full(G.order, -1, dtype=np.int16)
            eager[H.elements] = np.arange(H.order)
            pos = H.pos
            assert _read_only_int16(pos) and np.array_equal(pos, eager), name
            assert H.pos is pos, name


def test_library_built_subgroups_pass_the_exact_constructor():
    # the constructor's exact check (sort, identity, |H|^2 closure gather) is
    # the oracle for the subgroups that skip it
    for name, G in GROUPS:
        for H in _library_subgroups(G):
            assert _read_only_int16(H.elements), name
            checked = Subgroup(G, H.elements)
            assert np.array_equal(checked.elements, H.elements), name
            assert np.array_equal(checked.pos, H.pos) and not H.pos.flags.writeable, name
        _, proj = quotient(G, G.center())
        maps = [proj]
        if G.order * G.center().order <= 4096:
            maps += pullback(G, G, proj, proj)[1:]
        if 2 * G.order <= 4096:
            zero = np.zeros((G.order, G.order), dtype=np.int64)
            maps.append(extension_of_cocycle(Cocycle2(G, 2, zero)).proj)
        for f in maps:
            assert _read_only_int16(f.images), name


_NUMPY_MA_GUARD = """
import sys
from pgal import catalog, cohomology, groups

def step(what):
    print(what, "numpy.ma" in sys.modules, flush=True)

G = catalog.build_group("D:16*C:2")
Z = G.center()
groups.quotient(G, groups.subgroup_generated(G, [Z.elements[1]]))
groups.subgroups_of_index2(G)
step("catalog job")
f = cohomology.h2_enumerate(G, 2).representatives[-1]
ext = cohomology.extension_of_cocycle(f)
back = cohomology.cocycle_of_extension(ext.extension, ext.proj, ext.kernel_gen)
assert cohomology.class_equal(f, back)
H = groups.subgroups_of_index2(G)[0]
cohomology.verify(G, 2, cohomology.corestrict_tate(cohomology.restrict(f, H), H).values)
step("h2 job")
groups.normal_subgroups(G)
step("normal subgroups")
"""


def test_table_jobs_do_not_import_numpy_ma():
    # np.unique without index outputs and np.setdiff1d import numpy.ma, some
    # 20-40 ms, inside the first timed call of a process
    import os
    import subprocess
    import sys

    import pgal

    src = os.path.dirname(os.path.dirname(os.path.abspath(pgal.__file__)))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_MA_GUARD], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "catalog job False", "h2 job False", "normal subgroups False"]


@pytest.mark.parametrize("spec", ["D:16", "Q:32", "G1:p=3", "D:8*C:2", "EA:p=2,r=4", "M:64",
                                  "G3:p=3", "D:64*C:2", "EA:p=2,r=5", "C:1024", "D:1024"])
def test_normal_subgroups_agree_with_one_closure_per_element(spec):
    G = build_group(spec)
    assert [tuple(H.elements.tolist()) for H in normal_subgroups(G)] == _loop_normal_subgroups(G)


def test_normal_subgroups_of_group_files_agree_with_one_closure_per_element():
    for name, G in GROUPS:
        if G.order <= 81 and name.endswith(("file", "S3")):
            assert ([tuple(H.elements.tolist()) for H in normal_subgroups(G)]
                    == _loop_normal_subgroups(G)), name


@pytest.mark.parametrize("spec,count", [("C:4096", 13), ("D:4096", 15), ("D:64*C:64", 123),
                                        ("Q:64*C:64", 123)])
def test_normal_subgroups_at_order_4096(spec, count):
    # C_4096: one subgroup per divisor; D_4096: the 12 rotation subgroups, the
    # two dihedral subgroups of index 2 and the whole group; the products'
    # counts are those of the product-set joins (test_group_passes.py)
    normals = normal_subgroups(build_group(spec))
    assert len(normals) == count
    assert normals[-1].order == 4096 and normals[0].elements == (0,)


# -- Hoelder's conditions on H's full table ------------------------------------------


def _full_table_hoelder(T, P, w, e, i, gens):
    """phi = P[1] an automorphism of H by a sort and an m^2 compare, phi^e by
    its own binary powering (not P[e]), w^-1 by a row scan."""
    m, phi = T.shape[0], P[1]
    if not (np.array_equal(np.sort(phi), np.arange(m))
            and np.array_equal(phi[T], T[phi[:, None], phi[None, :]])):
        raise RelationInconsistent(f"conjugation by x{i} is not an automorphism")
    if phi[w] != w:
        raise RelationInconsistent(f"conjugation by x{i} does not fix x{i}^{e}")
    phi_e, base, n = np.arange(m), phi, e
    while n:
        if n & 1:
            phi_e = base[phi_e]
        base, n = base[base], n >> 1
    w_inv = int(np.flatnonzero(T[w] == 0)[0])
    if not np.array_equal(phi_e, T[T[w_inv], w]):
        raise RelationInconsistent(f"conjugation by x{i}, {e} times, is not conjugation by x{i}^{e}")


def _verdict(build):
    """build()'s table, or the detail of the RelationInconsistent it raised."""
    try:
        return np.asarray(build())
    except RelationInconsistent as exc:
        return exc.detail


def _verdicts(monkeypatch, build):
    """build()'s verdict with the generator check and with the full-table one
    (np.array_equal compares two tables, two details, or neither)."""
    new = _verdict(build)
    with monkeypatch.context() as m:
        m.setattr(presentation, "_check_hoelder", _full_table_hoelder)
        return new, _verdict(build)


def test_hoelder_on_generators_agrees_with_the_full_table_on_the_catalog(monkeypatch):
    for spec, _, _ in _oracle_cases():
        new, old = _verdicts(monkeypatch, lambda: build_group(spec).np_table)
        assert np.array_equal(new, old), spec
    # the G7 words at p = 2, which the catalog refuses by their parameters
    pc = PcPresentation.of([2] * 4, {}, {(0, 1): {1: 1, 2: 1}, (0, 2): {2: 1, 3: 1}})
    new, old = _verdicts(monkeypatch, lambda: presentation.pc_table(pc))
    assert new == old == "conjugation by x0, 2 times, is not conjugation by x0^2"


def test_hoelder_tells_conjugation_by_w_from_conjugation_by_w_inverse(monkeypatch):
    # H = C27 x| C9, b = x1 acting on a = x2 as a -> a^4, of order 9; x0 acts
    # as conjugation by b, so x0^3 must act as conjugation by b^3, not b^-3
    conj = {(0, 1): {1: 1}, (0, 2): {2: 4}, (1, 2): {2: 4}}
    verdicts = []
    for power in (3, 6):
        pc = PcPresentation.of([3, 9, 27], {0: {1: power}}, conj)
        new, old = _verdicts(monkeypatch, lambda: presentation.pc_table(pc))
        assert np.array_equal(new, old), power
        verdicts.append(new)
    assert verdicts[0].shape == (729, 729)
    assert verdicts[1] == "conjugation by x0, 3 times, is not conjugation by x0^3"


def _random_presentation(rng):
    """Relative orders p or p^2 on 2-5 levels, order at most 1024, and random
    power and conjugate words (a conjugate of x_j starts with a power of x_j)."""
    p = rng.choice([2, 3, 5])
    rel = [p]
    while len(rel) < 2 or prod(rel) > 1024:
        rel = [rng.choice([p, p * p]) for _ in range(rng.randint(2, 5))]
    k = len(rel)

    def tail(start):
        return {pos: rng.randrange(1, rel[pos]) for pos in range(start, k) if rng.random() < 0.3}

    powers = {i: tail(i + 1) for i in range(k - 1) if rng.random() < 0.5}
    conj = {(i, j): {j: rng.randrange(1, rel[j]), **tail(j + 1)}
            for i in range(k) for j in range(i + 1, k) if rng.random() < 0.5}
    return rel, powers, conj


def test_hoelder_on_generators_agrees_with_the_full_table_on_random_presentations(monkeypatch):
    rng = random.Random(20240611)
    kinds = []
    for _ in range(2000):
        rel, powers, conj = _random_presentation(rng)
        pc = PcPresentation.of(rel, powers, conj)
        new, old = _verdicts(monkeypatch, lambda: presentation.pc_table(pc))
        assert np.array_equal(new, old), (rel, powers, conj)
        kinds.append("table" if isinstance(new, np.ndarray) else
                     next(k for k in ("automorphism", "does not fix", "times") if k in new))
    # about half are groups, and each of the three conditions fails often
    counts = {k: kinds.count(k) for k in set(kinds)}
    assert counts.keys() == {"table", "automorphism", "does not fix", "times"}
    assert min(counts.values()) >= 100, counts


# -- the carry cocycle and raise_lower -------------------------------------------------


def _four_step_carry(p, n_exp):
    """The factor set of C_{p^n} -> C_{p^n}/<t^m>, m = p^(n-1), read off the
    quotient and its least-preimage section."""
    m = p ** (n_exp - 1)
    Cbig = cyclic(p ** n_exp)
    N = subgroup_generated(Cbig, [Cbig.power(1, m)])
    Q, proj = quotient(Cbig, N)
    return cocycle_of_extension(Cbig, proj, Cbig.power(1, m))


def test_carry_cocycle_is_the_factor_set_of_the_cyclic_quotient():
    for p, top in ((2, 12), (3, 7), (5, 5), (7, 4)):  # every p^n <= 4096
        for n in range(1, top + 1):
            old, new = _four_step_carry(p, n), cyclic_step_cocycle(p, n)
            assert np.array_equal(new.values, old.values), (p, n)
            assert np.array_equal(new.group.np_table, old.group.np_table), (p, n)
            assert new.group.generators == old.group.generators, (p, n)


def _walk_raise_lower(E, sigma1, n_exp, direction):
    """raise_lower's cocycle by the s1^i-in-H loop, a dict walk over G/H and
    the four-step carry cocycle (the order checks are the library's)."""
    G, p = E.proj.target, E.cocycle.p
    s1 = G.gen(sigma1) if isinstance(sigma1, str) else int(sigma1)
    m = p ** (n_exp - 1)
    H = subgroup_generated(G, [i for _, i in G.generators if i != s1])
    assert all(G.power(s1, i) not in H for i in range(1, m))
    Q, projH = quotient(G, H)
    dlog, e = {}, 0
    for i in range(m):
        dlog[e] = i
        e = Q.mul(e, projH(s1))
    expo = np.array([dlog[projH(x)] for x in range(G.order)], dtype=np.int64)
    carry = _four_step_carry(p, n_exp).values[expo[:, None], expo[None, :]]
    sign = 1 if direction == "raise" else -1
    return extension_of_cocycle(Cocycle2(G, p, (E.cocycle.values + sign * carry) % p))


def _central_quotient(spec, name, k):
    """The extension E -> E/<name^k> and its factor set."""
    E = build_group(spec)
    z = E.power(E.gen(name), k)
    Q, proj = quotient(E, subgroup_generated(E, [z]))
    return E, proj, cocycle_of_extension(E, proj, z)


def _raise_lower_cases():
    """The raise and lower cases of the cohomology and acceptance tests,
    cyclic towers at p = 3, and cyclic groups with another named generator."""
    for spec, k in (("D:8", 2), ("D:16", 4), ("D:32", 8)):
        E, proj, f = _central_quotient(spec, "sigma", k)
        yield extension_of_cocycle(f), proj(E.gen("tau")), 2, "raise"
    for p, spec, m, n_exp in ((2, "C:4", 2, 2), (2, "C:8", 4, 3), (2, "C:16", 8, 4),
                              (2, "C:32", 16, 5), (3, "C:9", 3, 2), (3, "C:27", 9, 3)):
        E, proj, _ = _central_quotient(spec, "sigma", m)
        split = Cocycle2(proj.target, p, np.zeros((m, m), dtype=int))
        yield extension_of_cocycle(split), proj(E.gen("sigma")), n_exp, "raise"
    # a cyclic group named by a generator that is not element 1, so that the
    # powers of s1 H run through G/H out of index order
    for p, n, k, n_exp in ((2, 4, 3, 3), (3, 9, 2, 3)):
        G = Group(build_group(f"C:{n}").np_table, [("s", k)])
        yield extension_of_cocycle(Cocycle2(G, p, np.zeros((n, n), dtype=int))), "s", n_exp, "raise"
    E = extension_of_cocycle(Cocycle2(build_group("C:2"), 2, np.zeros((2, 2), dtype=int)))
    yield E, "sigma", 2, "raise"
    yield raise_lower(E, "sigma", 2, "raise"), "sigma", 2, "lower"
    E, proj, f = _central_quotient("D:16", "sigma", 4)
    ext = extension_of_cocycle(f)
    yield raise_lower(ext, proj(E.gen("tau")), 2, "raise"), proj(E.gen("tau")), 2, "lower"


def test_raise_lower_agrees_with_the_walk_over_the_quotient():
    cases = list(_raise_lower_cases())
    assert len(cases) == 14
    for E, sigma1, n_exp, direction in cases:
        new = raise_lower(E, sigma1, n_exp, direction)
        old = _walk_raise_lower(E, sigma1, n_exp, direction)
        assert np.array_equal(new.cocycle.values, old.cocycle.values)
        assert np.array_equal(new.extension.np_table, old.extension.np_table)


# -- the Hilbert symbol's two valuation splits ------------------------------------------


def _two_adic(q):
    n = q.numerator * q.denominator
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v, n


def _l_adic(q, l):
    num, den = q.numerator, q.denominator
    v = 0
    while num % l == 0:
        num //= l
        v += 1
    while den % l == 0:
        den //= l
        v -= 1
    return v, num * pow(den, l - 2, l) % l


def _split_hilbert(a, b, place):
    """hilbert_local with the 2-adic split of a b and the l-adic unit mod l."""
    if place == "inf":
        return -1 if (a < 0 and b < 0) else 1
    if place == 2:
        (va, ua), (vb, ub) = _two_adic(a), _two_adic(b)
        s = ((ua - 1) // 2) * ((ub - 1) // 2) + va * ((ub * ub - 1) // 8) + vb * ((ua * ua - 1) // 8)
        return -1 if s % 2 else 1
    (va, ua), (vb, ub) = _l_adic(a, place), _l_adic(b, place)
    sym = (-1) ** (va * vb * ((place - 1) // 2) % 2)
    if vb % 2:
        sym *= legendre(ua, place)
    if va % 2:
        sym *= legendre(ub, place)
    return sym


_RATIONALS = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6).filter(bool),
                       st.integers(1, 10 ** 6))


@settings(max_examples=300, deadline=None)
@given(_RATIONALS, _RATIONALS)
def test_one_valuation_split_gives_the_hilbert_symbols_of_two(a, b):
    places = {2, 3, 5, 7} | set(factor(a.numerator * a.denominator * b.numerator * b.denominator))
    for place in ["inf", *sorted(places)]:
        assert hilbert_local(a, b, place) == _split_hilbert(a, b, place), place
