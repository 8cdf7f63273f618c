"""pgal benchmark: one seeded workload per run, checked answers, JSON result.

    python3 perfbench/run.py --workload {catalog-tables,h2-cocycles,cli-requests}
                             --seed N --seconds S --trace {0,1}

Run from the root of a pgal source tree; pgal is imported from ./src.  One
closed-loop client runs the blocks of the seed's job list (see workloads.py)
one job after another, and checks every answer against expected.json.  S
sets the number of blocks (workloads.blocks_in_run), so that every run of a
workload at one length does the same work; a host too slow to finish them
within OVERRUN times S ends the run early, with fewer blocks.  pgal runs in
child processes only: one fresh interpreter per block for the in-process
workloads, one per request for cli-requests, never more than one at a time.
Children get PYTHONHASHSEED=0 and single-threaded BLAS.  Times are
reported at reference host speed (calibrate.py): each measured time is
scaled by REFERENCE_S over the median of the run's calibration samples,
one taken before every job and every set-up probe.

--trace 0 prints the end-to-end metrics; --trace 1 runs every block twice,
untraced and then traced (so a run holds half as many blocks), checks that
both give identical outputs, prints the per-layer metrics and writes the
spans to perfbench/out/.  The last line of stdout is the JSON result;
failures are listed on stderr by job id.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HARD_LIMIT_S = 150.0    # blocks still running then are killed; their jobs fail
OVERRUN = 1.5
CLI_JOB_TIMEOUT_S = 60.0
SETUP_PROBES_PER_BLOCK = 2
TAIL_BEYOND = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HASH_SEED = "0"
SETUP_IMPORTS = {"catalog-tables": "import pgal.catalog, pgal.groups",
                 "h2-cocycles": "import pgal.catalog, pgal.groups, pgal.cohomology"}


class Timeout(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PGAL_FACTOR_BOUND", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    for var in BLAS_VARS:
        env[var] = "1"
    return env


ENV = child_env()

# calibration samples of the run, taken before every job and set-up probe
CALIBRATION: list[float] = []


def run_child(cmd: list[str], deadline: float):
    """Run cmd to completion; returns (stdout bytes, exit code, stderr text).

    Raises Timeout (after killing the child) when the deadline passes.
    """
    with tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, env=ENV)
        try:
            out = bytearray()
            fd = proc.stdout.fileno()
            while True:
                left = deadline - time.perf_counter()
                if left <= 0 or not select.select([fd], [], [], left)[0]:
                    raise Timeout(" ".join(cmd[1:4]))
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                out += chunk
            code = proc.wait(timeout=max(deadline - time.perf_counter(), 0.1))
        except (Timeout, subprocess.TimeoutExpired):
            proc.kill()
            raise Timeout(" ".join(cmd[1:4]))
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        err.seek(0)
        return bytes(out), code, err.read().decode(errors="replace")


def measure_setup(workload: str, count: int, deadline: float) -> list[float]:
    """Round trips of a fresh interpreter that imports what the workload uses."""
    if workload == "cli-requests":
        cmd = [sys.executable, "-m", "pgal", "--help"]
    else:
        cmd = [sys.executable, "-c", SETUP_IMPORTS[workload]]
    samples = []
    for _ in range(count):
        CALIBRATION.append(calibrate.sample())
        t0 = time.perf_counter()
        _, code, err = run_child(cmd, deadline)
        if code != 0:
            raise SystemExit(f"set-up probe failed with exit {code}:\n{err}")
        samples.append(time.perf_counter() - t0)
    return samples


# -- blocks ---------------------------------------------------------------------------


def run_inprocess_block(workload, seed, index, trace, expected, deadline):
    """One worker process for the whole block; returns (results, traces)."""
    block_jobs = workloads.block(workload, seed, index)
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(index),
           "1" if trace else "0"]
    try:
        out, code, err = run_child(cmd, deadline)
        doc = json.loads(out.decode().splitlines()[-1]) if code == 0 else None
    except Timeout:
        doc, err = None, "block timed out"
    if doc is None:
        return [_result(job, None, None, [f"worker failed: {err.strip()[-400:]}"])
                for job in block_jobs], []
    CALIBRATION.extend(doc["calibration"])
    by_id = {r["id"]: r for r in doc["jobs"]}
    results = []
    for job in block_jobs:
        r = by_id.get(job["id"])
        if r is None or "error" in r:
            problems = [r["error"] if r else "job did not run"]
            results.append(_result(job, r and r["seconds"], None, problems))
            continue
        problems = checks.check(job, r["answer"], expected)
        results.append(_result(job, r["seconds"], r["answer"], problems))
    return results, [doc["trace"]] if trace else []


def run_cli_block(seed, index, trace, expected, deadline):
    results, traces = [], []
    for job in workloads.block("cli-requests", seed, index):
        spans_path = OUT / f"cli-spans-{os.getpid()}.json"
        if trace:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *job["argv"]]
        else:
            cmd = [sys.executable, "-m", "pgal", *job["argv"]]
        CALIBRATION.append(calibrate.sample())
        t0 = time.perf_counter()
        try:
            out, code, err = run_child(cmd, min(deadline, t0 + CLI_JOB_TIMEOUT_S))
        except Timeout:
            results.append(_result(job, time.perf_counter() - t0, None, ["timed out"]))
            continue
        seconds = time.perf_counter() - t0
        answer = {"code": code, "stdout": out.decode(errors="replace")}
        problems = checks.check(job, answer, expected)
        if problems and err.strip():
            problems.append(f"stderr: {err.strip()[-300:]}")
        results.append(_result(job, seconds, answer, problems))
        if trace and spans_path.exists():
            tr = json.loads(spans_path.read_text())
            spans_path.unlink()
            for s in tr["spans"]:
                s[4] = job["id"]
            traces.append(tr)
    return results, traces


def _result(job, seconds, answer, problems):
    return {"id": job["id"], "key": job["key"], "seconds": seconds, "answer": answer,
            "problems": problems}


def run_block(workload, seed, index, trace, expected, deadline):
    if workload == "cli-requests":
        return run_cli_block(seed, index, trace, expected, deadline)
    return run_inprocess_block(workload, seed, index, trace, expected, deadline)


# -- metrics ---------------------------------------------------------------------------


def tail(times: list[float]):
    """(value, percentile, count beyond): the highest percentile with at
    least TAIL_BEYOND jobs slower than it."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def block_seconds(results) -> float:
    return sum(r["seconds"] or 0.0 for r in results)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pgal" / "__init__.py").is_file():
        print(f"no pgal sources under {ROOT / 'src'}; run from a pgal checkout",
              file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())[args.workload]
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(ROOT / "src" / "pgal"), quiet=1)
    compileall.compile_dir(str(BENCH), maxlevels=0, quiet=1)

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    measure_setup(args.workload, 1, deadline)     # warms the file cache; not counted

    setup, plain, traced, traces = [], [], [], []
    walls, overheads = [], []
    index = 0
    planned = workloads.blocks_in_run(args.workload, args.seconds / (1 + args.trace))
    while index < planned:
        if not args.trace:
            # set-up is sampled between blocks, so that its median spans the run
            setup += measure_setup(args.workload, SETUP_PROBES_PER_BLOCK, deadline)
        res, _ = run_block(args.workload, args.seed, index, False, expected, deadline)
        plain.append(res)
        walls.append(block_seconds(res))
        if args.trace:
            tres, trs = run_block(args.workload, args.seed, index, True, expected, deadline)
            for a, b in zip(res, tres):
                if a["answer"] is not None and b["answer"] != a["answer"]:
                    b["problems"].append("traced output differs from the untraced one")
            traced.append(tres)
            overheads.append(block_seconds(tres) - block_seconds(res))
            traces += trs
        index += 1
        now = time.perf_counter()
        per_block = (now - start) / index
        # on a host far slower than the nominal one, stop early
        if now + per_block > min(start + OVERRUN * args.seconds, deadline - per_block):
            break

    all_results = [r for blk in plain + traced for r in blk]
    failures = [r for r in all_results if r["problems"]]
    for r in failures:
        print(f"FAILED {r['id']} {r['key']}: {'; '.join(r['problems'])}", file=sys.stderr)
    attempted = len(all_results)
    times = [r["seconds"] for blk in plain for r in blk if r["seconds"] is not None]
    if not times:
        print("no job ran to completion; nothing to measure", file=sys.stderr)
        return 1

    env_note = (f"PYTHONHASHSEED={HASH_SEED} " + " ".join(f"{v}=1" for v in BLAS_VARS))
    print(f"# workload {args.workload} seed {args.seed} blocks {index} of {planned} "
          f"jobs {attempted} trace {args.trace}; children run with {env_note}")
    print(f"failed_frac {len(failures) / attempted:.4f} ratio ({len(failures)} of {attempted})")
    scale = calibrate.scale(CALIBRATION)
    print(f"times are scaled by {scale:.4f} to reference host speed: the median of "
          f"{len(CALIBRATION)} calibration samples is "
          f"{statistics.median(CALIBRATION):.5f} s, the reference {calibrate.REFERENCE_S} s")

    if args.trace:
        traced_jobs = [r for blk in traced for r in blk]
        job_seconds = sum(r["seconds"] or 0.0 for r in traced_jobs)
        stdout_bytes = sum(len(r["answer"]["stdout"].encode()) for r in traced_jobs
                           if r["answer"] and "stdout" in r["answer"])
        metrics = spans.layer_metrics(traces, len(traced), job_seconds, stdout_bytes,
                                      statistics.median(overheads))
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(traces))
    else:
        value, pct, beyond = tail(times)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "job_p50_s": {"value": statistics.median(times), "unit": "s"},
            "job_tail_s": {"value": value, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        print(f"job_tail_s is p{pct:.1f} of {len(times)} jobs, {beyond} beyond it; "
              f"wall_s is the mean of {len(walls)} blocks; "
              f"setup_s the median of {len(setup)} set-ups")
        print("measured, unscaled: " + ", ".join(
            f"{name} {m['value']:.6g} s" for name, m in metrics.items() if m["unit"] == "s"))
    for m in metrics.values():
        if m["unit"] == "s":
            m["value"] *= scale
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
