"""Traced ``meanfield_lab.cli.main`` in a fresh interpreter.

Usage: python cli_child.py TRACE_FILE SUBCOMMAND [ARGS...]

Runs the subcommand exactly as ``python -m meanfield_lab.cli`` would,
with every traced function wrapped, then writes the per-function self
times, call counts and work counts to TRACE_FILE as JSON.
"""

import json
import sys
import time

from meanfield_lab import cli

from tracer import Tracer, self_times


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        code = cli.main(argv)
        main_s = time.perf_counter() - start
    selfs, calls, root = self_times(tracer.spans)
    with open(trace_file, "w") as fh:
        json.dump({"self_s": selfs, "calls": calls, "counts": dict(tracer.counts),
                   "main_s": main_s, "root_s": root}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
