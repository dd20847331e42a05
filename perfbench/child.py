"""One benchmark step: import starperm from this checkout and run its CLI.

Usage: ``python3 -I child.py SPEC`` where SPEC is a JSON object with

- ``t0_ns``: ``time.monotonic_ns()`` taken by the parent just before it
  started this process (the clock is system-wide, so the two readings
  compare);
- ``result``: path of the JSON result file this process writes;
- ``argv``: the CLI arguments, or ``null`` to stop right after the import
  (a set-up probe);
- ``trace``: path for the tracer's dump, or ``null`` for an untraced step;
- ``run_id``: recorded on every span.

The CLI's own stdout and stderr pass through.  The exit code is the CLI's;
an exception escaping ``main`` exits with ``CRASH_EXIT`` instead of
Python's 1, which would read as "a claim failed".
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

CRASH_EXIT = 70
USAGE_EXIT = 2

HERE = Path(__file__).resolve().parent


def main(spec: dict) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import starperm.cli

    setup_s = (time.monotonic_ns() - spec["t0_ns"]) / 1e9
    result = {"setup_s": setup_s}
    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer(run_id=spec.get("run_id", 0))
        tracer.install()
    code = 0
    try:
        if spec.get("argv") is not None:
            try:
                code = starperm.cli.main(spec["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else USAGE_EXIT
            except Exception:
                traceback.print_exc()
                code = CRASH_EXIT
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.uninstall()
            with open(spec["trace"], "w") as fh:
                json.dump(tracer.dump(), fh)
        result["exit"] = code
        with open(spec["result"], "w") as fh:
            json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
