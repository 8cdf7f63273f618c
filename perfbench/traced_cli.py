"""Traced stand-in for `python -m pgal`: one CLI request in a fresh interpreter.

    python3 perfbench/traced_cli.py <spans-file> <pgal argv...>

Imports pgal.cli under a span, installs the wrappers, runs pgal.cli.main on
the argv and exits with its code, as `python -m pgal` does; stdout is left to
pgal alone.  The spans and counters go to <spans-file> as JSON.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import spans
    tracer = spans.Tracer()
    t0 = time.perf_counter()
    import pgal.cli
    tracer.spans.append(["cli.import", t0, time.perf_counter(), -1, None])
    tracer.install()
    try:
        code = pgal.cli.main(argv)
    finally:
        tracer.restore()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
