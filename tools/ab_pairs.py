"""Alternating A/B pairs of the benchmark: a parent checkout against a change.

    python3 tools/ab_pairs.py PARENT CHANGE --workload catalog-tables
                              [--pairs 10] [--seconds 40] [--seeds 101,102]

PARENT and CHANGE are the roots of two pgal source trees.  Pair i runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once in each,
S the i-th seed of the list (taken round), the parent first in even pairs
and the change first in odd ones, so that a host that drifts in speed
favours neither side.  Runs go one at a time.  The end-to-end metrics and
which way each is better come from the change's BENCHMARK.json.

For each metric it prints each side's median and quartiles over the pairs,
in how many pairs the change was better (a tie counts for neither side),
and a verdict against the metric's relative `bound` in BENCHMARK.json:

- "regressed": the change's median is worse than the parent's by more
  than the bound;
- "unresolved": the parent's IQR exceeds the bound, so the runs spread too
  widely to tell, unless every change run beats every parent run;
- "ok" otherwise.

Each metric also reads "gain met" when the change wins at least 9 of
every 10 pairs and the median gap, in the better direction, exceeds the
parent's IQR, else "gain not met"; a change that claims a gain reads its
metric's row.  A run that exits nonzero or prints no JSON result is
reported and left out of its pair.

Each time metric (unit "s") also gets a row "<name> unscaled", read off
the `measured, unscaled:` line that run.py prints: the same time before
run.py multiplies it by its calibration scale, with the same bound and the
same gain verdict.  A gap that shows in the scaled row but not in the
unscaled one comes from the calibration, not from the jobs.

A last line sums each side's failed and attempted jobs over its completed
runs and counts its runs that failed outright.  It reads "failure share
worse" when the change's share of failed jobs is higher than the
parent's, or when fewer of its runs completed, else "failure share ok".
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

UNSCALED = "measured, unscaled: "


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in the checkout at root: its metrics as
    {name: value} under "metrics", and its "failed" and "attempted" job
    counts, or None when the run fails."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode or result is None:
        print(f"run failed in {root} (seed {seed}, exit {proc.returncode}): "
              f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
        return None
    if result.get("failed"):
        print(f"{result['failed']} of {result['attempted']} jobs failed in {root} (seed {seed})",
              file=sys.stderr)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"metrics": {**metrics, **unscaled(proc.stdout)},
            "failed": result["failed"], "attempted": result["attempted"]}


def unscaled(stdout: str) -> dict:
    """The times of run.py's `measured, unscaled:` line, "name value s"
    joined by ", ", as {"<name> unscaled": value}; empty when the line is
    missing (a traced run prints none)."""
    for line in stdout.splitlines():
        if line.startswith(UNSCALED):
            parts = (part.split() for part in line[len(UNSCALED):].split(", "))
            return {f"{name} unscaled": float(value) for name, value, _ in parts}
    return {}


def metric_specs(bench: dict) -> tuple[dict, dict]:
    """({name: better}, {name: bound}) for the end-to-end metrics of a
    BENCHMARK.json document, each time metric followed by its unscaled row
    with the same direction and bound."""
    better, bounds = {}, {}
    for m in bench["end_to_end"]:
        for name in [m["name"]] + [f"{m['name']} unscaled"] * (m["unit"] == "s"):
            better[name] = m["better"]
            if "bound" in m:
                bounds[name] = m["bound"]
    return better, bounds


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(pairs: list[tuple[dict, dict]], better: dict[str, str],
            bounds: dict[str, float] | None = None) -> list[dict]:
    """One row per metric of better ({name: "lower" or "higher"}) over the
    (parent, change) pairs in which both sides measured it: each side's runs
    and quartiles (q1, median, q3), the pair count, and the change's wins,
    the pairs in which it is strictly better, and whether a gain is met.
    A metric with a relative bound in bounds gets its verdict."""
    rows = []
    for name, way in better.items():
        both = [(a[name], b[name]) for a, b in pairs if name in a and name in b]
        if not both:
            continue
        sign = 1 if way == "lower" else -1
        row = {
            "metric": name,
            "better": way,
            "pairs": len(both),
            "runs": ([a for a, _ in both], [b for _, b in both]),
            "parent": _quartiles([a for a, _ in both]),
            "change": _quartiles([b for _, b in both]),
            "wins": sum(sign * (a - b) > 0 for a, b in both),
        }
        row["gain"] = gain_verdict(row)
        if bounds and name in bounds:
            row["verdict"] = verdict(row, bounds[name])
        rows.append(row)
    return rows


def verdict(row: dict, bound: float) -> str:
    """"regressed", "unresolved" or "ok" for a summary row (module doc);
    the bound and the parent's IQR are relative to the parent's median."""
    sign = 1 if row["better"] == "lower" else -1
    (q1, parent, q3), change = row["parent"], row["change"][1]
    if sign * (change - parent) > bound * abs(parent):
        return "regressed"
    parents, changes = row["runs"]
    beats_all = all(sign * (a - b) > 0 for a in parents for b in changes)
    if q3 - q1 > bound * abs(parent) and not beats_all:
        return "unresolved"
    return "ok"


def gain_verdict(row: dict) -> str:
    """"met" when the change wins at least 9 of every 10 pairs and its median
    beats the parent's by more than the parent's IQR, else "not met"."""
    sign = 1 if row["better"] == "lower" else -1
    (q1, parent, q3), change = row["parent"], row["change"][1]
    met = 10 * row["wins"] >= 9 * row["pairs"] and sign * (parent - change) > q3 - q1
    return "met" if met else "not met"


def format_rows(rows: list[dict]) -> str:
    out = [f"{'metric':<20} {'parent q1 / median / q3':>32} {'change q1 / median / q3':>32}  wins"]
    for r in rows:
        cols = [" / ".join(f"{v:.4g}" for v in r[side]) for side in ("parent", "change")]
        notes = f"  {r['verdict']}" if "verdict" in r else ""
        notes += f"  gain {r['gain']}"
        out.append(f"{r['metric']:<20} {cols[0]:>32} {cols[1]:>32}  "
                   f"{r['wins']} of {r['pairs']} ({r['better']} is better){notes}")
    return "\n".join(out)


def failure_line(parent: list, change: list) -> str:
    """The failures of each side's runs (run_once results, None for a run
    that failed outright), and the verdict of the module doc."""
    counts = []
    for runs in (parent, change):
        done = [r for r in runs if r is not None]
        counts.append((sum(r["failed"] for r in done), sum(r["attempted"] for r in done),
                       len(runs) - len(done), len(runs)))
    (pf, pa, pr, pn), (cf, ca, cr, cn) = counts
    worse = cf * pa > pf * ca or cn - cr < pn - pr
    sides = [f"{side} {f} of {a} jobs, {r} of {n} runs failed"
             for side, (f, a, r, n) in zip(("parent", "change"), counts)]
    return f"failures: {'; '.join(sides)}  failure share {'worse' if worse else 'ok'}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--seeds", default="101", help="comma-separated, used in turn")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    better, bounds = metric_specs(json.loads((args.change / "BENCHMARK.json").read_text()))
    pairs, sides = [], ([], [])
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        flip = i % 2
        first, second = (args.change, args.parent) if flip else (args.parent, args.change)
        runs = [run_once(root, args.workload, seed, args.seconds) for root in (first, second)]
        a, b = runs[::-1] if flip else runs
        sides[0].append(a)
        sides[1].append(b)
        print(f"pair {i + 1} seed {seed}: parent {a and a['metrics']}  change {b and b['metrics']}",
              flush=True)
        if a is not None and b is not None:
            pairs.append((a["metrics"], b["metrics"]))
    print(format_rows(summary(pairs, better, bounds)))
    print(failure_line(*sides))
    return 0 if pairs else 1


if __name__ == "__main__":
    sys.exit(main())
