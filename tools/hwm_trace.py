"""Usage: python tools/hwm_trace.py WORKLOAD [--passes K] -- which task sets a workload's memory peak.

Runs one of the benchmark's workloads (``perfbench/workloads.py``, imported and
never changed) at seed 1, K passes (default 1), BLAS on one thread and the
package from this checkout's ``src``, as ``perfbench/run.py`` does.

* forward, finite-size, limit-laws: the tasks run in this process.  After the
  set-up and after each task it prints the process's high-water mark, ``VmHWM``
  of ``/proc/self/status``, and how much that task raised it.  Pass 1 is the
  benchmark's warm-up pass, so a task that raises the mark only there sets the
  workload's ``peak_rss_mb``.
* cli: each subcommand runs in a fresh interpreter, and it prints that child's
  ``ru_maxrss`` (with its exit status when not 0).  The largest sets the
  workload's ``peak_rss_mb``.  Linux carries the spawning process's own mark
  into a child's ``ru_maxrss`` across the exec, so it prints that floor first
  (``spawner``): a child that reads about that much has no larger peak of its own.
  After a subcommand that exits 0 it reads the outputs back whole and hashes
  them with the benchmark worker's own ``_digest`` (``perfbench/worker.py``),
  as the worker does, and prints the spawner's mark after that read: every
  later child starts from it, so the cli peak is the larger of that mark and
  the largest child.

Marks are in MB of 2^20 bytes, the benchmark's unit.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def hwm_mb() -> float:
    """This process's resident high-water mark so far (``VmHWM``, kB) in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def in_process(workloads, name: str, passes: int, workdir: str):
    tasks, _ = workloads.IN_PROCESS[name](SEED, workdir)
    last = hwm_mb()
    print(f"{'set-up':<30}{last:9.2f} MB")
    for k in range(1, passes + 1):
        state = {}
        for task in tasks:
            task.run(state)
            now = hwm_mb()
            print(f"pass {k}  {task.name:<22}{now:9.2f} MB  {now - last:+6.2f}")
            last = now


def cli(workloads, worker, passes: int, workdir: str):
    commands = workloads.cli_commands(SEED, workdir)
    print(f"{'spawner':<30}{hwm_mb():9.2f} MB")
    for k in range(1, passes + 1):
        for cmd in commands:
            proc = subprocess.Popen([sys.executable, "-m", "meanfield_lab.cli", *cmd.argv],
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            failed = f"  exit {proc.returncode}" if proc.returncode else ""
            if not proc.returncode:
                worker._digest(cmd.outputs)
            print(f"pass {k}  {cmd.name:<22}{usage.ru_maxrss / 1024.0:9.2f} MB"
                  f"  spawner {hwm_mb():9.2f} MB{failed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("forward", "finite-size", "limit-laws", "cli"))
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    # before numpy loads, here and in every child
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        if args.workload == "cli":
            import worker
            cli(workloads, worker, args.passes, workdir)
        else:
            in_process(workloads, args.workload, args.passes, workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
