"""The summary of tools/ab_pairs.py: quartiles per side and the change's
wins, with ties counted for neither side."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def test_wins_are_strict_and_follow_the_better_direction():
    pairs = [({"t": 3.0, "r": 10.0}, {"t": 2.0, "r": 12.0}),
             ({"t": 3.0, "r": 10.0}, {"t": 3.0, "r": 10.0}),   # a tie on both
             ({"t": 2.5, "r": 11.0}, {"t": 2.6, "r": 9.0}),
             ({"t": 4.0, "r": 10.0}, {"t": 1.0})]              # r missing on one side
    rows = {r["metric"]: r for r in ab_pairs.summary(pairs, {"t": "lower", "r": "higher",
                                                              "absent": "lower"})}
    assert set(rows) == {"t", "r"}
    assert (rows["t"]["pairs"], rows["t"]["wins"]) == (4, 2)
    assert (rows["r"]["pairs"], rows["r"]["wins"]) == (3, 1)


def test_quartiles_are_inclusive_and_a_single_pair_is_its_own():
    pairs = [({"t": float(v)}, {"t": float(10 * v)}) for v in (1, 2, 3, 4, 5)]
    (row,) = ab_pairs.summary(pairs, {"t": "lower"})
    assert row["parent"] == pytest.approx((2.0, 3.0, 4.0))
    assert row["change"] == pytest.approx((20.0, 30.0, 40.0))
    assert row["wins"] == 0
    (one,) = ab_pairs.summary(pairs[:1], {"t": "lower"})
    assert one["parent"] == (1.0, 1.0, 1.0) and one["pairs"] == 1
    assert "0 of 1 (lower is better)" in ab_pairs.format_rows([one])
