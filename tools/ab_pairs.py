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
and in how many pairs the change was better; a tie counts for neither side.
A run that exits nonzero or prints no JSON result is reported and left out
of its pair.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The metrics of one benchmark run in the checkout at root, as
    {name: value}, or None when it fails."""
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
    return {name: m["value"] for name, m in result["metrics"].items()}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[dict]:
    """One row per metric of better ({name: "lower" or "higher"}) over the
    (parent, change) pairs in which both sides measured it: each side's
    quartiles (q1, median, q3), the pair count, and the change's wins, the
    pairs in which it is strictly better."""
    rows = []
    for name, way in better.items():
        both = [(a[name], b[name]) for a, b in pairs if name in a and name in b]
        if not both:
            continue
        sign = 1 if way == "lower" else -1
        rows.append({
            "metric": name,
            "better": way,
            "pairs": len(both),
            "parent": _quartiles([a for a, _ in both]),
            "change": _quartiles([b for _, b in both]),
            "wins": sum(sign * (a - b) > 0 for a, b in both),
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    out = [f"{'metric':<14} {'parent q1 / median / q3':>32} {'change q1 / median / q3':>32}  wins"]
    for r in rows:
        cols = [" / ".join(f"{v:.4g}" for v in r[side]) for side in ("parent", "change")]
        out.append(f"{r['metric']:<14} {cols[0]:>32} {cols[1]:>32}  "
                   f"{r['wins']} of {r['pairs']} ({r['better']} is better)")
    return "\n".join(out)


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
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    pairs = []
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        flip = i % 2
        first, second = (args.change, args.parent) if flip else (args.parent, args.change)
        runs = [run_once(root, args.workload, seed, args.seconds) for root in (first, second)]
        a, b = runs[::-1] if flip else runs
        print(f"pair {i + 1} seed {seed}: parent {a}  change {b}", flush=True)
        if a is not None and b is not None:
            pairs.append((a, b))
    print(format_rows(summary(pairs, better)))
    return 0 if pairs else 1


if __name__ == "__main__":
    sys.exit(main())
