"""Subgroup membership, Frattini coordinates, least preimages, pullback pairs
and normal subgroups against the loops the library ran before each became
one array computation; the loops stay here as oracles."""

import numpy as np
import pytest

from pgal.catalog import build_group
from pgal.cohomology import (
    Cocycle2,
    _section,
    extension_of_cocycle,
    h2_enumerate,
    power_commutator_data,
)
from pgal.errors import TargetMismatch, TooLarge
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
        raise TooLarge("pullback too large")
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
    assert frattini_style_subgroup(S3, 2).elements == (0, 1, 2)
    assert frattini_style_subgroup(S3, 3).order == 6


def test_index2_subgroups_agree_with_the_old_loop():
    for name, G in GROUPS:
        assert [H.elements for H in subgroups_of_index2(G)] == _loop_index2(G), name


def test_pullback_agrees_with_the_pair_loop():
    for name, G in GROUPS:
        _, proj = quotient(G, G.center())
        try:
            want = _loop_pullback(G, G, proj, proj)
        except TooLarge:
            with pytest.raises(TooLarge):
                pullback(G, G, proj, proj)
            continue
        P, p1, p2 = pullback(G, G, proj, proj)
        T, gens, xs, ys = want
        assert np.array_equal(P.np_table, T) and P.np_table.dtype == np.int16, name
        assert P.generators == gens, name
        assert list(p1.images) == xs and list(p2.images) == ys, name


def test_least_preimage_section_agrees_with_the_scan():
    for name, G in GROUPS:
        for N in (G.center(), frattini_style_subgroup(G, _prime_divisors(G.order)[0])
                  if G.order > 1 else G.center()):
            _, proj = quotient(G, N)
            assert _section(proj).tolist() == _scan_section(proj), name
    for name, G in SMALL:
        ext = extension_of_cocycle(Cocycle2(G, 2, np.zeros((G.order, G.order), dtype=np.int64)))
        assert _section(ext.proj).tolist() == _scan_section(ext.proj), name


def test_a_map_that_is_not_onto_has_no_section():
    C2, C4 = build_group("C:2"), build_group("C:4")
    with pytest.raises(TargetMismatch, match="not surjective"):
        _section(GroupHom(C2, C4, (0, 2)))


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
    subs = {G.center().elements, (0,), tuple(range(G.order))}
    subs |= {H.elements for H in subgroups_of_index2(G)}
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
                    assert H.local(x) == old.local[x] and H.global_(H.local(x)) == x
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


def test_library_built_subgroups_pass_the_exact_constructor():
    # the constructor's exact check (sort, identity, |H|^2 closure gather) is
    # the oracle for the subgroups that skip it
    for name, G in GROUPS:
        for H in _library_subgroups(G):
            assert all(type(e) is int for e in H.elements), name
            checked = Subgroup(G, H.elements)
            assert checked.elements == H.elements, name
            assert np.array_equal(checked.pos, H.pos) and not H.pos.flags.writeable, name


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
    assert [H.elements for H in normal_subgroups(G)] == _loop_normal_subgroups(G)


def test_normal_subgroups_of_group_files_agree_with_one_closure_per_element():
    for name, G in GROUPS:
        if G.order <= 81 and name.endswith(("file", "S3")):
            assert [H.elements for H in normal_subgroups(G)] == _loop_normal_subgroups(G), name


@pytest.mark.parametrize("spec,count", [("C:4096", 13), ("D:4096", 15)])
def test_normal_subgroups_at_order_4096(spec, count):
    # C_4096: one subgroup per divisor; D_4096: the 12 rotation subgroups, the
    # two dihedral subgroups of index 2 and the whole group
    normals = normal_subgroups(build_group(spec))
    assert len(normals) == count
    assert normals[-1].order == 4096 and normals[0].elements == (0,)
