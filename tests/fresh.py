"""Run one pgal CLI request, or one library call, in a fresh interpreter and
report what it cost.

The child runs `pgal.cli.main(argv)`, or a setup and then a timed call, and
then reports, on the last line of its stderr, the seconds `main` or the call
took, the modules it had loaded and its peak resident size.  The peak is VmHWM from /proc/self/status, which exec resets,
so it is the request's own; `ru_maxrss` is the fallback where /proc is
absent, and on Linux it keeps the resident size of the forking process
across exec.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"

_REPORT = """
seconds = time.perf_counter() - t0
sys.stdout.flush()
try:
    with open("/proc/self/status") as fh:
        peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there
        peak_kb //= 1024
print(json.dumps({"seconds": seconds, "peak_kb": peak_kb, "modules": sorted(sys.modules)}),
      file=sys.stderr)
"""

_CHILD = """
import json, resource, sys, time
from pgal.cli import main

t0 = time.perf_counter()
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
""" + _REPORT + "sys.exit(code)\n"

# argv[1] is the setup and argv[2] the timed call, each run by exec
_CALL = """
import json, resource, sys, time
exec(sys.argv[1])
t0 = time.perf_counter()
exec(sys.argv[2])
""" + _REPORT


class Request(NamedTuple):
    code: int
    stdout: str
    stderr: str  # without the report line
    modules: frozenset
    peak_rss_kb: int
    seconds: float  # in main, after the import of pgal.cli; or in the call, after the setup


def run_request(argv, timeout=120) -> Request:
    """`pgal argv` in a fresh interpreter that sees only PYTHONPATH=src."""
    return _run([_CHILD, *argv], timeout)


def run_call(setup: str, call: str, timeout=120) -> Request:
    """The statements `setup` and then `call`, which alone is timed, in a
    fresh interpreter that sees only PYTHONPATH=src; the peak covers both."""
    return _run([_CALL, setup, call], timeout)


def _run(args, timeout) -> Request:
    proc = subprocess.run([sys.executable, "-c", *args], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC)}, timeout=timeout)
    err, _, report = proc.stderr.rstrip("\n").rpartition("\n")
    try:
        facts = json.loads(report)
    except ValueError:
        raise AssertionError(f"the request ended without its report: {proc.stderr}") from None
    return Request(proc.returncode, proc.stdout, err, frozenset(facts["modules"]),
                   facts["peak_kb"], facts["seconds"])
