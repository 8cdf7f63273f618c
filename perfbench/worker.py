"""Runs one block of an in-process workload in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <block> <trace 0|1>

Prints one JSON line with each job's seconds and answer (or error), the
calibration samples taken before each job (calibrate.py) and, when traced,
the spans and counters.
"""

from __future__ import annotations

import json
import os
import sys
import traceback

import calibrate
import jobs
import pgal
import spans
import workloads


def main(argv: list[str]) -> int:
    workload, seed, index, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(pgal.__file__))) != src:
        print(f"pgal imported from {pgal.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    results, samples = [], []
    try:
        for job in workloads.block(workload, seed, index):
            samples.append(calibrate.sample())
            if tracer:
                tracer.job = job["id"]
            try:
                seconds, answer = jobs.run_job(job)
                results.append({"id": job["id"], "seconds": seconds, "answer": answer})
            except Exception:
                results.append({"id": job["id"], "seconds": None,
                                "error": traceback.format_exc(limit=-3)})
    finally:
        if tracer:
            tracer.restore()
    out = {"jobs": results, "calibration": samples}
    if tracer:
        out["trace"] = tracer.export()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
