"""meanfield-lab benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload forward --seed 1 --seconds 13 --trace 0

Workloads (see workloads.py): forward, finite-size, limit-laws, cli.  The
benchmark is a closed loop with one caller: one process works at a time
and the next task starts when the previous one has returned.  BLAS runs
single-threaded in every process it starts.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  The two
times are given in reference seconds: wall seconds times
REFERENCE_PROBE_S / (the speed probe's time, measured beside them).  The
speed probe is a fixed pure-Python loop (worker.speed_probe).  A shared
host can run everything up to 1.5x slower for minutes at a time; that
drift moves the wall times and the probe alike, and the ratio cancels it.
The wall times are printed on the details line.
  setup_s      median over SETUP_PROBES + 1 fresh interpreters of the time
               to the first task being ready (interpreter start,
               ``import meanfield_lab``, building the validated models and
               configs), each normalised by a probe timed right after it;
  pass_s       one untraced pass over the task list: the sum over tasks of
               each task's median time over the run's passes, normalised by
               the median of the probes timed before every task.  The number
               of passes is fixed by the workload and --seconds
               (workloads.pass_count), never by how fast the passes run.
               In-process workloads run one warm-up pass first (the cli
               workload needs none: every subcommand is a fresh
               interpreter).  Oracle checks run outside the timings;
  peak_rss_mb  peak resident memory of the workload process, or of the
               largest subcommand process for cli;
  ok_ratio     operations that passed / operations attempted.  An
               operation fails on an exception, a non-zero exit or a failed
               oracle check; failures are counted, never raised.
``--trace 1`` reports the per-layer metrics, in wall seconds: per-function
self time and calls (median over traced passes), work counts, per-task and
per-subcommand times (median over untraced passes), trace coverage and
overhead, and the host probes.
Every declared per-layer metric is printed; one that a workload does not
touch reads 0.

The line before the result holds the details: pass and task times, the
host probes, failures, and the versions and config hash of the run.
Exit status is 0 when a result was printed, 2 when the checkout has no
meanfield_lab sources, and 1 when a benchmark process itself failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 2
# worker.speed_probe's time in a quiet stretch of the host the benchmark
# was defined on (2 cores, Python 3.11); it only fixes the unit
REFERENCE_PROBE_S = 0.010
RUN_TIMEOUT_S = 170     # the whole run, set-up probes included
WORKLOADS = ("forward", "finite-size", "limit-laws", "cli")
CLI_COMMANDS = ("solve", "pressure", "sample", "limits", "invert", "phase")


class BenchmarkError(Exception):
    """A benchmark process failed; no result is printed."""


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, env, cwd, deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds to its READY line, its remaining stdout).

    The worker gets its own process group.  A watchdog kills the group at
    the deadline, so a worker that hangs before or after READY, and the
    subcommand processes it started, cannot outlive the run.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=cwd,
                            start_new_session=True)
    expired = threading.Event()

    def expire():
        expired.set()
        _kill_group(proc)

    watchdog = threading.Timer(max(0.0, deadline - start), expire)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        _kill_group(proc)   # whatever the worker left behind
        proc.wait()
    if expired.is_set():
        raise BenchmarkError(f"run did not finish within {RUN_TIMEOUT_S} s")
    if line.strip() != b"READY" or proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {argv}")
    return ready, rest.decode()


def task_times(passes) -> dict[str, float]:
    """Each task's median time over the run's passes."""
    return {task: statistics.median(p["tasks"][task] for p in passes)
            for task in passes[0]["tasks"]}


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """Seconds measured while the speed probe took ``probe_s``, converted to
    seconds on a host where the probe takes REFERENCE_PROBE_S."""
    return seconds * REFERENCE_PROBE_S / probe_s


def wall_times(raw: dict, setup) -> dict:
    return {"setup_s": statistics.median(ready for ready, _ in setup),
            "pass_s": sum(task_times(raw["untraced"]).values()),
            "probe_s": statistics.median(x for p in raw["untraced"] for x in p["probe_s"])}


def end_to_end(raw: dict, setup) -> dict:
    """``setup`` holds (seconds to READY, speed probe just after) per start."""
    failed = len(raw["failures"])
    wall = wall_times(raw, setup)
    return {
        "setup_s": statistics.median(at_reference_speed(s, p) for s, p in setup),
        "pass_s": at_reference_speed(wall["pass_s"], wall["probe_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_ratio": 1.0 - failed / raw["attempted"],
    }


def _counts(values: dict, calls: dict, counts: dict):
    for name, n in calls.items():
        values[f"{name}.calls"] = n
    values.update(counts)
    starts = counts.get("solver.starts", 0)
    values["solver.kept_ratio"] = counts.get("solver.fixed_points", 0) / starts if starts else 0.0


def per_layer(workload: str, raw: dict) -> dict:
    values = dict(raw["host"])
    values["host.probe_s"] = statistics.median(x for p in raw["untraced"] for x in p["probe_s"])
    if workload == "cli":
        # each traced pass is a list of subcommand traces; sum them per pass
        passes = []
        for children in raw["traced"]:
            selfs, calls, counts = {}, {}, {}
            for child in children:
                for key, total in (("self_s", selfs), ("calls", calls), ("counts", counts)):
                    for name, v in child[key].items():
                        total[name] = total.get(name, 0) + v
            passes.append({"self_s": selfs, "calls": calls, "counts": counts,
                           "tasks": {c["cmd"]: c["wall_s"] for c in children},
                           "coverage": sum(c["root_s"] for c in children)
                           / sum(c["main_s"] for c in children)})
        for child in raw["traced"][-1]:
            values[f"cli.{child['cmd']}.out_bytes"] = child["out_bytes"]
    else:
        passes = raw["traced"]
    untraced = task_times(raw["untraced"])
    for task, seconds in untraced.items():
        values[f"run_{task}_s" if workload == "cli" else f"task.{workload}.{task}_s"] = seconds
    for name in {name for p in passes for name in p["self_s"]}:
        values[f"{name}.self_s"] = statistics.median(p["self_s"].get(name, 0.0) for p in passes)
    _counts(values, passes[-1]["calls"], passes[-1]["counts"])
    values["trace.coverage"] = statistics.median([p["coverage"] for p in passes])
    values["trace.overhead"] = sum(task_times(passes).values()) / sum(untraced.values()) - 1.0
    return values


def result_line(spec_metrics, values: dict, raw: dict, required: bool) -> dict:
    metrics = {}
    for m in spec_metrics:
        if m["name"] not in values and required:
            raise BenchmarkError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    unknown = sorted(set(values) - set(metrics))
    if unknown:
        print(f"perfbench: measured but not declared: {unknown}", file=sys.stderr)
    failed = len(raw["failures"])
    return {"correct": failed == 0, "attempted": raw["attempted"], "failed": failed,
            "metrics": metrics}


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def run(args, root: str, spec: dict) -> tuple[dict, dict]:
    workdir = os.path.join(root, ".perfbench_work")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", workdir]
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    try:
        setup = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            ready, out = spawn(argv + ["--setup-only"], env, root, deadline)
            setup.append((ready, _last_json(out)["setup_probe_s"]))
        ready, out = spawn(argv, env, root, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = _last_json(out)
    setup.append((ready, raw["setup_probe_s"]))
    if args.trace:
        line = result_line(spec["per_layer"], per_layer(args.workload, raw), raw, False)
    else:
        line = result_line(spec["end_to_end"], end_to_end(raw, setup), raw, True)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "wall": wall_times(raw, setup), "setup": setup, "host": raw["host"],
               "provenance": raw["provenance"],
               "untraced_pass_s": [p["pass_s"] for p in raw["untraced"]],
               "untraced_task_s": [p["tasks"] for p in raw["untraced"]],
               "untraced_probe_s": [p["probe_s"] for p in raw["untraced"]],
               "traced_passes": len(raw["traced"]), "failures": raw["failures"][:20]}
    return details, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="meanfield-lab benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its workers (see spawn) and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "src", "meanfield_lab", "__init__.py"))
            and os.path.isfile(spec_path)):
        print("perfbench: run from the root of a meanfield-lab checkout "
              "(src/meanfield_lab and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    try:
        details, line = run(args, root, spec)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"details": details}))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
