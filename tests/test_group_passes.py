"""Element orders, index-2 kernels, cosets, normal subgroups and pc tables
in whole-group passes, against the loops they replaced (oracles.py):
element orders from two power maps per prime, each elementary abelian
layer's greedy basis and codes from one table, every index-2 kernel from
one parity gather per block, every coset's least element from one row
gather, each join of normal subgroups from the cosets of one of them, each
small pc level in one block, and isomorphism tests from the invariants and
Cayley walk each group holds."""

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from fresh import run_call
from oracles import (
    cosets_by_columns,
    element_orders_active_set,
    family_specs,
    find_isomorphism_every_element,
    index2_per_phi,
    layer_picks_by_span_masks,
    normal_subgroups_by_product_sets,
    pc_table_sixteen_blocks,
    permutation_group,
)
from pgal.autoreal import RealizationGraph
from pgal.catalog import build_group, canonical_spec, spec_order
from pgal.groups import (
    Group,
    _prime_divisors,
    central_step,
    find_isomorphism,
    frattini_style_subgroup,
    is_isomorphic,
    is_p_group,
    layer_basis,
    normal_subgroups,
    right_cosets,
    subgroup_generated,
    subgroups_of_index2,
)
from pgal.presentation import pc_table

_LARGE = ["D:64*C:64", "Q:64*C:64", "SD:64*C:64", "M:64*C:64", "EA:p=2,r=12"]
# above order 256, a level shape of each kind: one level of large relative
# order, many small levels, and a small level over a large one
_PC_LARGE = _LARGE + [
    "C:4096", "C:4095", "C:3125", "D:4096", "Q:2048", "SD:4096", "M:1024",
    "EA:p=3,r=7", "EA:p=5,r=5", "Mmod:p=2,n=12", "Mmod:p=3,n=7",
    "MSS:p=2,n=3,j=8", "MSS:p=3,n=2,j=5", "G3:p=7", "G7:p=7"]


def _several_primes():
    tables = [(f"{'A' if even else 'S'}{degree}", permutation_group(degree, even))
              for degree, even in ((3, False), (4, True), (4, False), (5, True), (5, False),
                                   (6, True))]
    return tables + [(spec, build_group(spec)) for spec in ("D:8*C:3", "C:2*C:6")]


def test_element_orders_agree_with_the_active_set_loop():
    for spec in family_specs(256) + _LARGE:
        G = build_group(spec)
        assert G.element_orders() == element_orders_active_set(G), spec
    for name, G in _several_primes():
        assert G.element_orders() == element_orders_active_set(G), name


def _check_layer(G, P, N, q):
    """layer_basis on the layer P/N against the span-mask loop, and its code:
    -1 exactly outside P, 0 exactly on N, q^i at the i-th pick, below q^d
    on P, and additive digit by digit mod q under x -> x s for each pick s."""
    picks, code = layer_basis(G, P, N, q)
    assert picks == layer_picks_by_span_masks(G, P, N, q)
    d, inside = len(picks), np.zeros(G.order, dtype=bool)
    inside[P] = True
    assert np.array_equal(code < 0, ~inside) and np.array_equal(code == 0, N.pos >= 0)
    assert code[picks].tolist() == [q ** i for i in range(d)]
    assert len(P) == N.order * q ** d and code[P].max(initial=0) < q ** d

    def digits(c):
        return c[:, None] // q ** np.arange(d) % q
    for s in picks:
        assert np.array_equal(digits(code[G.np_table[P, s]]), (digits(code[P]) + digits(code[[s]])) % q)


def test_layer_bases_agree_with_the_span_mask_loop_on_every_read_pc_layer():
    for spec in family_specs(256) + ["D:2048", "EA:p=2,r=11"]:
        G = build_group(spec)
        q = is_p_group(G)
        if q is None:  # read_pc reads q-groups only
            continue
        G = Group.from_json({"order": G.order, "table": G.table})  # a group file, no pc
        P = np.arange(G.order)
        while len(P) > 1:
            below = central_step(G, P, q)
            _check_layer(G, P, below, q)
            P = below.elements


def test_layer_bases_agree_with_the_span_mask_loop_on_g_mod_frattini():
    for name, G in _several_primes():
        for q in (2, 3):
            _check_layer(G, np.arange(G.order), frattini_style_subgroup(G, q), q)


def test_index2_kernels_agree_with_the_per_phi_loop():
    tables = [(spec, build_group(spec)) for spec in family_specs(256)
              + ["D:4096", "C:64*C:64", "Q:8*Q:8*Q:8*C:4"]]
    for name, G in tables + _several_primes():
        assert ([tuple(H.elements.tolist()) for H in subgroups_of_index2(G)]
                == [tuple(H.elements.tolist()) for H in index2_per_phi(G)]), name


def _normal_subgroups_to_check(G):
    """The center, each central subgroup of prime order and, for each prime
    dividing |G|, the subgroup [G,G] G^p (Phi(G) for a p-group)."""
    Z, orders, primes = G.center(), G.element_orders(), _prime_divisors(G.order)
    yield "Z", Z
    for z in Z.elements.tolist():
        if orders[z] in primes:
            yield f"<{z}>", subgroup_generated(G, [z])
    for p in primes:
        yield f"Phi_{p}", frattini_style_subgroup(G, p)


def test_right_cosets_of_a_normal_subgroup_are_the_column_gather_numbering():
    for spec in family_specs(256) + ["D:4096"] + _LARGE[:4]:
        G = build_group(spec)
        for what, N in _normal_subgroups_to_check(G):
            reps, coset_of = right_cosets(G, N.elements)
            old_reps, old_coset_of = cosets_by_columns(G, N)
            assert coset_of.dtype == np.int16, (spec, what)
            assert reps.tolist() == old_reps.tolist(), (spec, what)
            assert coset_of.tolist() == old_coset_of.tolist(), (spec, what)


def _subgroups(G):
    """Every subgroup generated by one or two elements."""
    seen = {}
    for x, y in itertools.combinations_with_replacement(range(G.order), 2):
        H = subgroup_generated(G, [x, y])
        seen.setdefault(H.elements.tobytes(), H)
    return list(seen.values())


@pytest.mark.parametrize("degree", [3, 4])
def test_right_cosets_of_a_subgroup_that_is_not_normal_form_a_right_transversal(degree):
    G = permutation_group(degree, False)
    T, n = G.np_table, G.order
    others = [H for H in _subgroups(G) if not H.is_normal()]
    assert len(others) == {3: 3, 4: 26}[degree]  # of 6 and 30 subgroups, 3 and 4 normal
    for H in others:
        reps, coset_of = right_cosets(G, H.elements)
        cosets = T[np.ix_(H.elements, reps)]  # column i is H reps[i]
        assert len(reps) * H.order == n
        assert np.array_equal(np.bincount(cosets.ravel(), minlength=n), np.ones(n))
        assert np.array_equal(cosets.min(axis=0), reps) and coset_of[0] == 0
        # x lies in H reps[coset_of[x]]
        assert (T[np.ix_(H.elements, reps[coset_of])] == np.arange(n)).any(axis=0).all()


def test_normal_subgroups_agree_with_the_product_set_joins():
    for spec in family_specs(64) + ["D:1024", "D:64*C:64", "Q:64*C:64"]:
        G = build_group(spec)
        found = normal_subgroups(G)
        assert [H.elements.tolist() for H in found] == normal_subgroups_by_product_sets(G), spec


def test_the_4095_kernels_of_ea_2_12_agree_with_the_per_phi_loop():
    # in a fresh interpreter: a list of 4095 subgroups of order 2048 takes
    # about 440 MB, which this process would keep as resident size
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from oracles import index2_per_phi
        from pgal.catalog import build_group
        from pgal.groups import subgroups_of_index2

        G = build_group("EA:p=2,r=12")
        new = np.array([H.elements for H in subgroups_of_index2(G)], dtype=np.int16)
        old = np.array([H.elements for H in index2_per_phi(G)], dtype=np.int16)
        sys.exit(0 if new.shape == (4095, 2048) and np.array_equal(new, old) else 1)
    """)
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": path}, timeout=120)
    assert out.returncode == 0, out.stderr


def test_the_index2_pass_of_ea_2_12_stays_under_128_mb():
    # each kernel is one 4-KB int16 row of its block's elements, and builds
    # its membership array only when that is read: the kernels as tuples of
    # Python ints took 433 MB here, and with an eager 8-KB array each, 143 MB
    setup = ("from pgal.catalog import build_group\n"
             "from pgal.groups import subgroups_of_index2\n"
             "G = build_group('EA:p=2,r=12')")
    req = run_call(setup, "kernels = subgroups_of_index2(G)\nassert len(kernels) == 4095")
    assert req.code == 0, req.stderr
    assert req.peak_rss_kb < 128 * 1024, req.peak_rss_kb


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_pc_table_is_the_sixteen_block_table_up_to_order_256():
    for spec in family_specs(256):
        pc = build_group(spec).pc
        assert _same_bytes(pc_table(pc), pc_table_sixteen_blocks(pc)), spec


@pytest.mark.parametrize("spec", _PC_LARGE)
def test_pc_table_is_the_sixteen_block_table_above_order_256(spec):
    pc = build_group(spec).pc
    assert _same_bytes(pc_table(pc), pc_table_sixteen_blocks(pc))


def test_isomorphism_tests_agree_with_the_every_element_search_up_to_order_32():
    """Every ordered pair of equal-order catalog specs and autoreal nodes up
    to order 32; each map find_isomorphism returns is a bijection that
    respects the whole table."""
    nodes = {canonical_spec(spec) for e in RealizationGraph.load_default().edges
             for spec in (e.src, e.dst)}
    specs = sorted({canonical_spec(s) for s in family_specs(32)}
                   | {s for s in nodes if spec_order(s) <= 32})
    groups = [build_group(spec) for spec in specs]
    isomorphic = 0
    for G, H in itertools.product(groups, repeat=2):
        if G.order != H.order:
            continue
        phi = find_isomorphism(G, H)
        assert is_isomorphic(G, H) == (phi is not None)
        assert (phi is not None) == (find_isomorphism_every_element(G, H) is not None), (G, H)
        if phi is not None:
            isomorphic += 1
            phi = np.array(phi)
            assert sorted(phi.tolist()) == list(range(G.order)), (G, H)
            assert np.array_equal(phi[G.np_table], H.np_table[np.ix_(phi, phi)]), (G, H)
    assert isomorphic > len(groups)  # some specs name one group twice
