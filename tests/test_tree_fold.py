"""groups.along_paths, the one fold along the Cayley tree: path counts and
CoboundarySpace.normalise against the walks they replaced, the combine
order, the refusal of a tree that misses an element, the number of
pointer-doubling rounds, and coboundaries at a prime near 2^62, whose sums
along the tree paths pass 2^63 unless they are reduced in every round."""

import numpy as np
import pytest

from pgal.catalog import build_group
from pgal.cohomology import CoboundarySpace, verify
from pgal.errors import RelationInconsistent, TooLarge
from pgal.groups import Group, along_paths, path_counts
from pgal.presentation import read_pc, value_type

from oracles import family_specs, normalise_by_walk, path_counts_by_walk, permutation_group

P62 = 4611686018427387847  # the largest prime below 2^62
PRIMES = (2, 3, 5, 2147483647)


def _groups():
    """Every catalog spec up to order 256, the symmetric and alternating
    groups S4-S6 and A5-A6, bare tables read back by read_pc, and the
    trivial group."""
    for spec in family_specs(256):
        yield spec, build_group(spec)
    for degree, even in ((4, False), (5, False), (6, False), (5, True), (6, True)):
        yield f"{'AS'[not even]}{degree}", permutation_group(degree, even)
    for spec in ("D:16", "Q:32", "G1:p=3", "EA:p=2,r=4", "M:64", "G5:p=5"):
        G = build_group(spec)
        bare = Group.from_json({"order": G.order, "table": G.table})
        yield f"{spec} bare", bare
        yield f"{spec} read_pc", read_pc(bare)[0]
    yield "trivial", Group([[0]], [])


def test_the_fold_agrees_with_the_walks():
    """path_counts and (w mod p, v) from normalise equal the walks that
    built them one tree edge at a time, on random cochains whose identity
    row is not zero either, at p = 2, 3, 5 and 2^31 - 1."""
    rng = np.random.default_rng(46)
    for name, G in _groups():
        tree = G.tree()
        assert np.array_equal(path_counts(tree), path_counts_by_walk(tree)), name
        for p in PRIMES:
            cob = CoboundarySpace(G, p)
            Fs = rng.integers(0, p, (G.order, len(cob.gens))).astype(value_type(p))
            (w, v), (w0, v0) = cob.normalise(Fs), normalise_by_walk(cob, Fs)
            assert np.array_equal(w, w0 % p) and np.array_equal(v, v0), (name, p)


def test_the_fold_multiplies_the_path_from_the_identity():
    """Folding the kept generators with the group's table as combine gives
    every element back; on groups that are not abelian the swapped product
    does not, so this pins the order in which combine reads its arguments."""
    specs = ("D:16", "Q:32", "G1:p=3", "SD:64*C:4", "D:256", "M:64", "G7:p=3")
    for G in [build_group(spec) for spec in specs] + [permutation_group(5, False)]:
        gens, _, _, slot = tree = G.tree()
        T = G.np_table
        got = along_paths(tree, np.array(gens + [0])[slot], lambda a, b: T[a, b])
        assert np.array_equal(got, np.arange(G.order)), G.name


def test_a_tree_that_misses_an_element_is_refused():
    """D8 with only its rotation named reaches half the group: the fold
    refuses it at once instead of walking parents that are -1."""
    D8 = build_group("D:8")
    G = Group(D8.np_table, [D8.generators[0]], check=False)
    assert len(G.tree()[1]) == 4
    with pytest.raises(RelationInconsistent, match="do not generate"):
        path_counts(G.tree())
    with pytest.raises(RelationInconsistent, match="do not generate"):
        CoboundarySpace(G, 2).normalise(np.zeros((8, 1), dtype=np.int64))


@pytest.mark.parametrize("spec, depth, rounds", [
    ("C:4096", 4095, 12), ("D:4096", 2048, 11), ("EA:p=2,r=12", 12, 4)])
def test_the_fold_takes_log_depth_rounds(spec, depth, rounds):
    """ceil(log2 depth) calls of combine: a loop over the tree's levels
    would make depth of them."""
    tree = build_group(spec).tree()
    calls = []

    def add(a, b):
        calls.append(1)
        return a + b

    edges = (np.arange(len(tree[2])) > 0).astype(np.int64)  # 0 at the identity
    assert along_paths(tree, edges, add).max() == depth
    assert len(calls) == rounds


def _coboundary_near_2_62(G, at_generators):
    """delta(g) for g(x) = x 0x9E3779B97F4A7C15 mod P62, g(1) = 0 and g the
    given value at each kept generator; built in place, as C:4096's table
    of int64 values is 134 MB."""
    g = [x * 0x9E3779B97F4A7C15 % P62 for x in range(G.order)]
    for s in G.tree()[0]:
        g[s] = at_generators
    g[0] = 0
    g = np.array(g, dtype=np.int64)
    F = g[G.np_table]
    np.subtract(g[:, None], F, out=F)
    F += g[None, :]
    F %= P62
    return g, F


@pytest.mark.parametrize("spec", ["C:8", "D:64", "C:4096"])
def test_a_coboundary_near_2_62_is_found(spec):
    """The cochain w is reduced mod p in every round of the fold, so a
    coboundary at the largest prime below 2^62 needs no elimination; its
    sums along the tree paths used to wrap int64 and ask GFMatrix, which
    refused with TooLarge.  With g not 0 at a kept generator the
    elimination is needed, and GF(p) on those columns would overflow."""
    G = build_group(spec)
    g, F = _coboundary_near_2_62(G, 0)
    assert verify(G, P62, F) == {"is_cocycle": True, "is_coboundary": True,
                                 "witness": g.tolist()}
    del F
    _, F = _coboundary_near_2_62(G, 1)
    with pytest.raises(TooLarge, match="would overflow int64"):
        verify(G, P62, F)
