"""Records the answers of every job in the workload pools into expected.json.

    python3 perfbench/record.py

Run from the root of a pgal source tree.  The recorded values are what the
library computes today; the benchmark then checks that it keeps computing
them (identical tables and numbering, identical CLI output).  Answers the
mathematics fixes are checked here as well, so a wrong value is not
recorded: the h2 round trips and cor(res(f)), the Kunneth dimensions, and
the exit code of every request (0, or 1 with {error, detail} for the
malformed ones).  CLI requests are recorded in-process through
pgal.cli.main; the benchmark replays them as fresh `python -m pgal` runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (sets nothing up beyond paths and the child env)

if os.environ.get("PYTHONHASHSEED") != run.HASH_SEED:
    os.execve(sys.executable, [sys.executable, *sys.argv], run.ENV)

import checks  # noqa: E402
import jobs  # noqa: E402
import workloads  # noqa: E402
from pgal import cli  # noqa: E402


def _require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"refusing to record a wrong answer: {what}")


def record_catalog() -> dict:
    out = {}
    for spec in workloads.catalog_pool():
        _, ans = jobs.run_job({"kind": "catalog", "spec": spec, "pick": 0})
        out[spec] = {k: ans[k] for k in ("order", "exponent", "center", "index2", "digest")}
        _require(ans["quotient"] == ans["order"] // checks.smallest_prime(ans["order"]), spec)
    return out


def record_h2() -> dict:
    out = {}
    for key in workloads.h2_pool():
        spec, p = key.rsplit("@", 1)
        job = {"kind": "h2", "key": key, "spec": spec, "p": int(p), "picks": [1, 2], "hpick": 0}
        _, ans = jobs.run_job(job)
        out[key] = {"dimension": ans["dimension"]}
        problems = checks.check(job, ans, out)
        _require(not problems, (key, problems))
    return out


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def record_cli() -> dict:
    out = {}
    for part, reqs in workloads.cli_pool_parts().items():
        for argv in reqs:
            code, stdout = run_cli(argv)
            want = 1 if part == "malformed" else 0
            _require(code == want, (argv, code, stdout))
            out[workloads.cli_key(argv)] = {"code": code,
                                            "stdout_sha256": checks.stdout_digest(stdout)}
            job = {"kind": "cli", "key": workloads.cli_key(argv)}
            _require(not checks.check(job, {"code": code, "stdout": stdout}, out), argv)
    return out


def main() -> int:
    doc = {"catalog-tables": record_catalog(), "h2-cocycles": record_h2(),
           "cli-requests": record_cli()}
    (BENCH / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print({k: len(v) for k, v in doc.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
