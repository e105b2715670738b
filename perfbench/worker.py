"""One workload run in a fresh interpreter, started by run.py.

Prints ``READY`` as soon as the workload's models and configs are built
(run.py times interpreter start to that line as set-up) and then times
the speed probe.  Unless ``--setup-only``, it then runs the passes.  Last
it prints one JSON line of raw measurements.  See run.py for what is
reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads   # imports meanfield_lab: part of set-up
from tracer import Tracer, self_times

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


PROBE_LOOP = 200_000


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host runs right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i & 7
    return time.perf_counter() - start


def ready() -> float:
    """Tell run.py that set-up is done; return how fast the host ran just after."""
    print("READY", flush=True)
    return statistics.median(speed_probe() for _ in range(3))


def host_probes() -> dict:
    """Fixed pure-Python loop and BLAS matmul, timed after the passes.

    They show how fast the host ran during a run, for reading results
    only; no metric is ever rescaled by them.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i & 7
    py_loop = time.perf_counter() - start
    a = np.random.default_rng(0).standard_normal((1000, 1000))
    start = time.perf_counter()
    for _ in range(5):
        a @ a
    return {"host.py_loop_s": py_loop, "host.blas_s": time.perf_counter() - start}


def provenance(workload: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "config_sha256": workloads.config_hash(workload)}


# --- in-process workloads ---------------------------------------------------------


def run_pass(tasks) -> dict:
    """Run every task once; oracle checks run outside the task timings."""
    state, times, failures, probes = {}, {}, [], []
    for task in tasks:
        probes.append(speed_probe())
        start = time.perf_counter()
        try:
            result = task.run(state)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not raised
            times[task.name] = time.perf_counter() - start
            failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
            continue
        times[task.name] = time.perf_counter() - start
        try:
            task.check(result, state)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
    return {"pass_s": sum(times.values()), "tasks": times, "failures": failures,
            "probe_s": probes}


def run_checks(checks) -> list[str]:
    failures = []
    for check in checks:
        try:
            check.run()
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{check.name}: {type(exc).__name__}: {exc}")
    return failures


def traced_pass(tasks, tracer) -> dict:
    tracer.reset()
    with tracer:
        record = run_pass(tasks)
    selfs, calls, root = self_times(tracer.spans)
    record.update(self_s=selfs, calls=dict(calls), counts=dict(tracer.counts),
                  coverage=root / record["pass_s"])
    return record


def in_process(args) -> dict:
    tasks, checks = workloads.IN_PROCESS[args.workload](args.seed, args.workdir)
    setup_probe = ready()
    if args.setup_only:
        return {"setup_probe_s": setup_probe}
    warm_up = run_pass(tasks)
    failures = run_checks(checks)
    tracer = Tracer()
    untraced, traced = [], []
    for _ in range(workloads.pass_count(args.workload, args.seconds, args.trace)):
        untraced.append(run_pass(tasks))
        if args.trace:
            traced.append(traced_pass(tasks, tracer))
    passes = [warm_up] + untraced + traced
    return {"untraced": untraced, "traced": traced,
            "attempted": len(tasks) * len(passes) + len(checks),
            "failures": failures + [f for p in passes for f in p["failures"]],
            "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF), "host": host_probes(),
            "setup_probe_s": setup_probe}


# --- cli workload ---------------------------------------------------------------


def _digest(paths) -> tuple[str, int]:
    h, size = hashlib.sha256(), 0
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def run_cli(cmd, traced_to: str | None = None) -> dict:
    """One subcommand in a fresh interpreter, as a user runs it."""
    if traced_to is None:
        argv = [sys.executable, "-m", "meanfield_lab.cli", *cmd.argv]
    else:
        argv = [sys.executable, CHILD, traced_to, *cmd.argv]
    start = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    wall = time.perf_counter() - start
    record = {"wall_s": wall, "code": proc.returncode,
              "stderr": proc.stderr.decode(errors="replace")[-500:]}
    if proc.returncode == 0:
        record["sha256"], record["out_bytes"] = _digest(cmd.outputs)
        record["sha256"] += hashlib.sha256(proc.stdout).hexdigest()
    return record


def cli(args) -> dict:
    commands = workloads.cli_commands(args.seed, args.workdir)
    setup_probe = ready()
    if args.setup_only:
        return {"setup_probe_s": setup_probe}
    untraced, traced, failures = [], [], []
    digests: dict[str, str] = {}
    attempted = 0

    def judge(cmd, record, kind):
        nonlocal attempted
        attempted += 1
        if record["code"] != 0:
            failures.append(f"{cmd.name} ({kind}): exit {record['code']}: {record['stderr']}")
        elif digests.setdefault(cmd.name, record["sha256"]) != record["sha256"]:
            failures.append(f"{cmd.name} ({kind}): output bytes differ from the first run")

    for _ in range(workloads.pass_count("cli", args.seconds, args.trace)):
        times, traces, probes = {}, [], []
        for cmd in commands:
            probes.append(speed_probe())
            record = run_cli(cmd)
            judge(cmd, record, "untraced")
            times[cmd.name] = record["wall_s"]
            if args.trace:
                trace_file = os.path.join(args.workdir, f"trace-{cmd.name}.json")
                if os.path.exists(trace_file):
                    os.remove(trace_file)
                record = run_cli(cmd, trace_file)
                judge(cmd, record, "traced")
                if os.path.exists(trace_file):
                    with open(trace_file) as fh:
                        traces.append(dict(json.load(fh), wall_s=record["wall_s"],
                                          out_bytes=record.get("out_bytes", 0),
                                          cmd=cmd.name))
        untraced.append({"pass_s": sum(times.values()), "tasks": times, "probe_s": probes})
        if traces:
            traced.append(traces)
    solve_out = commands[0].outputs[0]
    attempted += 1
    try:
        workloads.check_cli_solve(solve_out)
    except Exception as exc:  # noqa: BLE001
        failures.append(f"solve: {type(exc).__name__}: {exc}")
    return {"untraced": untraced, "traced": traced, "attempted": attempted,
            "failures": failures, "peak_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
            "host": host_probes(), "setup_probe_s": setup_probe}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    run = cli if args.workload == "cli" else in_process
    out = run(args)
    if not args.setup_only:
        out["provenance"] = provenance(args.workload)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
