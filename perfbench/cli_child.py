"""A traced CLI command: ``python3 perfbench/cli_child.py SUMMARY ARGS...``.

Runs ``kneserlab.cli.main(ARGS)`` with the span wrappers installed, then
writes the span summary to SUMMARY. ``PERFBENCH_SPAWN`` holds the
``time.perf_counter()`` reading taken just before this process was spawned,
so the summary can report interpreter start plus import.
"""

from __future__ import annotations

import json
import os
import sys
import time

import kneserlab.cli

import tracing

process_start_s = time.perf_counter() - float(os.environ["PERFBENCH_SPAWN"])


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return kneserlab.cli.main(argv)
    finally:
        summary = tracer.summary()
        summary["process_start_s"] = process_start_s
        with open(summary_path, "w") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
