"""Usage: python tools/traffic_lines.py [WORKLOAD ...] -- the library lines the benchmark skips.

Runs the benchmark's traffic (``perfbench/workloads.py``, imported and never
changed) in this process under ``sys.settrace``, at seed 1, one pass, in a
temporary directory, BLAS on one thread and the package from this checkout's
``src``: the tasks, oracle checks and workload checks of each in-process
workload (``IN_PROCESS``), and for ``cli`` the argv lists of ``cli_commands``
through ``meanfield_lab.cli.main``, then the solve report's check.  With no
WORKLOAD it runs all four, imports included.  Prints ``file:line: source`` for
each executable library line (``untested_lines.executable_lines``) that none of
them ran; a failed task, check or subcommand stops the tool with an error.
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
WORKLOADS = ("forward", "finite-size", "limit-laws", "cli")


def traffic(names, workdir: str):
    """One pass of each named workload, as the benchmark's worker runs it."""
    import workloads
    from meanfield_lab import cli

    for name in names:
        if name == "cli":
            commands = workloads.cli_commands(SEED, workdir)
            for cmd in commands:
                code = cli.main(cmd.argv)
                if code:
                    raise SystemExit(f"cli {cmd.name} exited {code}")
            workloads.check_cli_solve(commands[0].outputs[0])
            continue
        tasks, checks = workloads.IN_PROCESS[name](SEED, workdir)
        state = {}
        for task in tasks:
            task.check(task.run(state), state)
        for check in checks:
            check.run()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(WORKLOADS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}")
    # before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
    from untested_lines import print_missed, run_traced

    with tempfile.TemporaryDirectory() as workdir:
        _, ran = run_traced(lambda: traffic(args.workloads or WORKLOADS, workdir))
    print_missed(ran)
    return 0


if __name__ == "__main__":
    sys.exit(main())
