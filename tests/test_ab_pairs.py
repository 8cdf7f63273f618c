"""The summary of tools/ab_pairs.py: quartiles per side and the change's
wins, with ties counted for neither side, each end-to-end metric's verdict
against its relative bound, whether a gain is met on it, and the line on
each side's failed jobs and runs."""

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


def _row(parent, change, better="lower", bound=0.25):
    """The summary row of one metric "t" over the pairs zip(parent, change)."""
    pairs = [({"t": float(a)}, {"t": float(b)}) for a, b in zip(parent, change)]
    (row,) = ab_pairs.summary(pairs, {"t": better}, {"t": bound})
    return row


def test_a_median_worse_by_more_than_the_bound_is_regressed():
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    assert _row(parent, [v + 30 for v in parent])["verdict"] == "regressed"   # +29%
    assert _row(parent, [v + 20 for v in parent])["verdict"] == "ok"          # +19%
    assert _row(parent, [v - 50 for v in parent])["verdict"] == "ok"
    # higher is better: a drop past the bound regresses, a rise never does
    assert _row(parent, [v * 0.7 for v in parent], "higher")["verdict"] == "regressed"
    assert _row(parent, [v * 2 for v in parent], "higher")["verdict"] == "ok"
    # no bound, no verdict
    (row,) = ab_pairs.summary([({"t": 1.0}, {"t": 2.0})], {"t": "lower"})
    assert "verdict" not in row and row["gain"] == "not met"


def test_a_parent_iqr_past_the_bound_is_unresolved_unless_every_change_run_wins():
    parent = [60, 70, 80, 90, 100, 110, 120, 130, 140, 150]   # IQR 45 of a median 105
    assert _row(parent, parent)["verdict"] == "unresolved"
    assert _row(parent, [v - 20 for v in parent])["verdict"] == "unresolved"
    assert _row(parent, [55] * 10)["verdict"] == "ok"           # below every parent run
    assert _row(parent, [60] * 10)["verdict"] == "unresolved"   # a tie with the best is no win
    assert _row(parent, parent, bound=0.5)["verdict"] == "ok"
    # a regression past the bound is reported as such, however wide the spread
    assert _row(parent, [v * 2 for v in parent])["verdict"] == "regressed"


def test_a_gain_is_met_only_by_nine_wins_in_ten_and_a_gap_past_the_iqr():
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # IQR 4.5
    assert _row(parent, [v - 10 for v in parent])["gain"] == "met"
    # nine wins of ten are enough, eight are not
    nine = [v - 10 for v in parent[:9]] + [parent[9] + 1]
    eight = [v - 10 for v in parent[:8]] + [parent[8] + 1, parent[9] + 1]
    assert _row(parent, nine)["gain"] == "met"
    assert _row(parent, eight)["gain"] == "not met"
    # ten wins whose median gap (3) is within the parent's IQR
    assert _row(parent, [v - 3 for v in parent])["gain"] == "not met"
    # higher is better
    assert _row(parent, [v + 10 for v in parent], "higher")["gain"] == "met"
    assert _row(parent, [v - 10 for v in parent], "higher")["gain"] == "not met"
    assert _row(parent, parent)["gain"] == "not met"


def test_the_verdicts_are_printed_beside_the_wins():
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    line = ab_pairs.format_rows([_row(parent, [v - 10 for v in parent])])
    assert line.endswith("10 of 10 (lower is better)  ok  gain met")


def _run(failed, attempted):
    return {"metrics": {}, "failed": failed, "attempted": attempted}


def test_failures_are_summed_per_side_and_a_higher_share_is_worse():
    parent = [_run(0, 100), _run(1, 100), None]
    line = ab_pairs.failure_line(parent, [_run(0, 100), _run(1, 100), None])
    assert line == ("failures: parent 1 of 200 jobs, 1 of 3 runs failed; "
                    "change 1 of 200 jobs, 1 of 3 runs failed  failure share ok")
    # one more failed job in as many attempted
    assert ab_pairs.failure_line(parent, [_run(2, 100), _run(0, 100), None]).endswith("worse")
    # the same count of failed jobs in fewer attempted is a higher share
    assert ab_pairs.failure_line(parent, [_run(1, 50), _run(0, 100), None]).endswith("worse")
    # a lower share, but one run fewer completed
    worse = ab_pairs.failure_line(parent, [_run(0, 100), None, None])
    assert worse == ("failures: parent 1 of 200 jobs, 1 of 3 runs failed; "
                     "change 0 of 100 jobs, 2 of 3 runs failed  failure share worse")
    # fewer failures on both counts, and a side whose runs all failed
    assert ab_pairs.failure_line(parent, [_run(0, 100)] * 3).endswith("failure share ok")
    assert ab_pairs.failure_line([None, None], [None, None]).endswith("failure share ok")
    assert ab_pairs.failure_line([None, None], [_run(0, 10), None]).endswith("failure share ok")
