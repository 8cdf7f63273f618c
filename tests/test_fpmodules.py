"""Delta counts, p-binomials, solvability and the counting formula."""

import random

import pytest

from pgal.errors import BadIndex, BadParams, Mismatch, NotSolvable, OrderTooLarge
from pgal.fpmodules import (
    INFINITE,
    FpGModule,
    NormData,
    count_solutions,
    delta,
    deltas,
    ei_solvability,
    mss_quotient,
    p_binomial,
    solvable,
)


def test_delta_paper_example():
    A = FpGModule(3, 1, {3: 1})
    assert [delta(A, i) for i in (1, 2, 3, 4)] == [1, 1, 1, 0]


def test_deltas_is_the_list_of_every_delta():
    rng = random.Random(29)
    cases = [(p, n) for p in (2, 3, 5, 7, 11, 13, 31, 61) for n in range(1, 7) if p ** n <= 64]
    for p, n in cases:
        top = p ** n
        for _ in range(3):
            A = FpGModule(p, n, {rng.randint(1, top): rng.randint(1, 3)
                                 for _ in range(rng.randint(0, 6))})
            assert deltas(A) == [0] + [delta(A, i) for i in range(1, top + 2)], (p, n, A.d)


def test_delta_zero_module_and_sums():
    Z = FpGModule(3, 1, {})
    assert all(delta(Z, i) == 0 for i in (1, 2, 3, 4))
    B = FpGModule(2, 1, {1: 2, 2: 1})
    assert delta(B, 1) == 3
    with pytest.raises(BadIndex):
        delta(B, 5)


def test_p_binomial_piecewise_and_values():
    assert p_binomial(3, -1, 2) == 0
    assert p_binomial(3, 4, 2) == 0
    assert p_binomial(2, 1, 2) == 3
    assert p_binomial(3, 2, 3) == 13
    assert p_binomial(5, 0, 7) == 1


def test_p_binomial_takes_the_shorter_side():
    """A count with many summands of one length forms [D, D] at that length:
    10^5 steps on numbers of up to 10^5 bits each, where one would do."""
    import time

    start = time.perf_counter()
    assert p_binomial(10 ** 5, 10 ** 5, 2) == 1
    assert p_binomial(10 ** 5, 10 ** 5 - 1, 3) == (3 ** 10 ** 5 - 1) // 2
    A = FpGModule(2, 1, {1: 20000})
    assert count_solutions(A, NormData.from_levels(2, 1, [20000, 0])) == 1
    assert time.perf_counter() - start < 0.5


def test_p_binomial_pascal_oracle():
    for p in (2, 3, 5):
        for n in range(1, 11):
            for m in range(0, 11):
                lhs = p_binomial(n, m, p)
                rhs = p_binomial(n - 1, m, p) + p ** (n - m) * p_binomial(n - 1, m - 1, p)
                assert lhs == rhs


def test_p_binomial_nonnegative_integer():
    for p in (2, 3, 5):
        for n in range(0, 13):
            for m in range(0, 13):
                assert p_binomial(n, m, p) >= 0


def test_norm_data_block_rule():
    NormData.from_levels(3, 1, [2, 2])
    with pytest.raises(Mismatch):
        NormData(3, 1, {1: 2, 2: 2, 3: 1})
    with pytest.raises(Mismatch):
        NormData(3, 1, {1: 2, 2: 2})  # missing i=3


def test_solvable_paper_iff():
    A = FpGModule(3, 1, {3: 1})
    yes = NormData.from_levels(3, 1, [2, 2], i_invariant=0)
    no = NormData.from_levels(3, 1, [2, 0], i_invariant=0)
    assert solvable(A, yes)
    assert not solvable(A, no)


def test_solvable_zero_module_and_top_failure():
    Z = FpGModule(2, 1, {})
    assert solvable(Z, NormData.from_levels(2, 1, [0, 0]))
    A = FpGModule(2, 1, {2: 1})
    assert not solvable(A, NormData.from_levels(2, 1, [1, 0]))


def test_solvable_monotone_in_dims():
    rng = random.Random(31)
    for _ in range(100):
        p, n = rng.choice([(2, 1), (3, 1), (2, 2)])
        top = p ** n
        d = {i: rng.randint(0, 2) for i in rng.sample(range(1, top + 1), k=min(2, top))}
        A = FpGModule(p, n, d)
        lv = [rng.randint(0, 3) for _ in range(n + 1)]
        nd1 = NormData.from_levels(p, n, lv)
        nd2 = NormData.from_levels(p, n, [v + 1 for v in lv])
        if solvable(A, nd1):
            assert solvable(A, nd2)


def test_count_infinite():
    A = FpGModule(3, 1, {3: 1})
    nd = NormData.from_levels(3, 1, [2, 2], i_invariant=0, base_quotient_finite=False)
    assert count_solutions(A, nd) is INFINITE


def test_count_zero_module_is_one():
    Z = FpGModule(3, 1, {})
    nd = NormData.from_levels(3, 1, [2, 2], i_invariant=None)
    assert count_solutions(Z, nd) == 1


def test_count_paper_instance():
    # p=3, n=1, one length-3 summand, dims (2,2,2), i(K/k)=0:
    # i=3 contributes binom(2,1)_3 = 4 and the power 3^1; total 12
    A = FpGModule(3, 1, {3: 1})
    nd = NormData.from_levels(3, 1, [2, 2], i_invariant=0)
    assert count_solutions(A, nd) == 12


def test_count_monotone_in_dims():
    A = FpGModule(3, 1, {3: 1})
    lo = count_solutions(A, NormData.from_levels(3, 1, [2, 2], i_invariant=0))
    hi = count_solutions(A, NormData.from_levels(3, 1, [3, 3], i_invariant=0))
    assert hi >= lo >= 1


def test_count_requires_solvable():
    A = FpGModule(3, 1, {3: 1})
    nd = NormData.from_levels(3, 1, [2, 0], i_invariant=0)
    with pytest.raises(NotSolvable):
        count_solutions(A, nd)


def test_count_positive_on_margin_safe_inputs():
    rng = random.Random(17)
    for _ in range(60):
        p, n = rng.choice([(2, 1), (3, 1), (5, 1), (2, 2)])
        top = p ** n
        d = {}
        for _ in range(rng.randint(0, 2)):
            d[rng.randint(1, top)] = rng.randint(1, 2)
        A = FpGModule(p, n, d)
        margin = delta(A, 1) + 1
        nd = NormData.from_levels(p, n, [margin] * (n + 1),
                                  i_invariant=rng.choice([None] + list(range(n))))
        assert solvable(A, nd)
        c = count_solutions(A, nd)
        assert c >= 1


def test_count_solutions_agrees_with_the_double_loop():
    """The carried exponent sum against the literal double loop, on every
    (p, n) with p^n <= 64; margin-safe norm data and random levels, which
    may leave the problem unsolvable."""
    from oracles import count_solutions_double_loop

    def outcome(count, A, nd):
        try:
            return count(A, nd)
        except NotSolvable:
            return "not solvable"

    rng = random.Random(23)
    cases = [(p, n) for p in (2, 3, 5, 7, 11, 13, 31, 61) for n in range(1, 7) if p ** n <= 64]
    assert len(cases) == 17
    for p, n in cases:
        top = p ** n
        for _ in range(3):
            A = FpGModule(p, n, {rng.randint(1, top): rng.randint(1, 3)
                                 for _ in range(rng.randint(0, 4))})
            for levels in ([delta(A, 1) + rng.randint(0, 3) for _ in range(n + 1)],
                           [rng.randint(0, delta(A, 1) + 2) for _ in range(n + 1)]):
                for inv in [None] + list(range(n)):
                    nd = NormData.from_levels(p, n, levels, i_invariant=inv)
                    got = outcome(count_solutions, A, nd)
                    assert got == outcome(count_solutions_double_loop, A, nd), \
                        (p, n, A.d, levels, inv)
                    # == alone lets 0.0 pass for 0
                    assert type(got) in (int, str), (p, n, A.d, levels, inv)


def test_count_solutions_at_p_n_4096_is_fast():
    """p = 2, n = 12: the double loop over i and j < i takes about 10 s.  The
    norm dimensions exceed Delta by one on every block but the last, so the
    count has 3,254 digits; with Delta(A_1) + 2 on every block, as this test
    first had them, it has 21,141, and is refused before it is formed."""
    import time

    A = FpGModule(2, 12, {1: 2, 7: 1, 100: 3, 2049: 2, 4096: 1})
    levels = [delta(A, 2 ** (s - 1) + 1 if s else 1) + (s < 12) for s in range(13)]
    nd = NormData.from_levels(2, 12, levels, i_invariant=3)
    start = time.perf_counter()
    count = count_solutions(A, nd)
    assert time.perf_counter() - start < 0.5
    assert count > 1 and count % 2 == 0 and len(str(count)) == 3254
    nd = NormData.from_levels(2, 12, [delta(A, 1) + 2] * 13, i_invariant=3)
    start = time.perf_counter()
    with pytest.raises(BadParams, match="the solution count has more than 4300 decimal digits"):
        count_solutions(A, nd)
    assert time.perf_counter() - start < 0.5


def test_ei_solvability():
    assert ei_solvability(3, True) == [True, True]
    assert ei_solvability(3, False) == [False, False]
    assert ei_solvability(2, True) == [True]


def test_mss_quotient():
    M = mss_quotient(9, 3, 2)
    assert M.d == {9: 1}
    assert mss_quotient(1, 3, 2).d == {1: 1}
    with pytest.raises(BadIndex):
        mss_quotient(10, 3, 2)


def test_mismatched_pn():
    A = FpGModule(3, 1, {1: 1})
    nd = NormData.from_levels(2, 1, [1, 1])
    with pytest.raises(Mismatch):
        solvable(A, nd)


def test_modules_and_norm_data_stop_at_the_order_cap():
    # p^n is refused before it is formed: 3^(10^8) took longer than 30 s
    assert FpGModule(2, 12, {4096: 1}).lengths() == [4096]
    assert NormData.from_levels(2, 12, [1] * 13).dims[4096] == 1
    for p, n in ((2, 13), (4099, 1), (2, 14300), (3, 10 ** 8)):
        with pytest.raises(OrderTooLarge, match="exceeds cap 4096"):
            FpGModule(p, n, {1: 1})
        with pytest.raises(OrderTooLarge, match="exceeds cap 4096"):
            NormData(p, n, {1: 1})
        with pytest.raises(OrderTooLarge, match="exceeds cap 4096"):
            mss_quotient(1, p, n)
    with pytest.raises(OrderTooLarge, match="exceeds cap 4096"):
        NormData.from_levels(2, 13, [1] * 14)
