"""Tests of the benchmark's own machinery: tracer, pass runner, result lines.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import importlib
import json
import os
import sys
import time

import pytest

import run
import worker
import workloads
from tracer import COUNT_NAMES, SPAN_NAMES, TRACED, Tracer, self_times

HERE = os.path.dirname(os.path.abspath(__file__))


def _originals():
    return {id(getattr(importlib.import_module(f"meanfield_lab.{m}"), f))
            for m, fs in TRACED.items() for f in fs}


def _bindings(originals):
    """Every (namespace, key) -> object binding of the given functions."""
    out = {}
    mods = [importlib.import_module("meanfield_lab")] + [
        importlib.import_module(f"meanfield_lab.{m}") for m in TRACED]
    for mod in mods:
        for key, value in vars(mod).items():
            if id(value) in originals:
                out[(mod.__name__, key)] = value
            elif isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in value.items():
                    if id(dvalue) in originals:
                        out[(mod.__name__, key, dkey)] = dvalue
    return out


def test_wrapper_passes_results_and_exceptions_through():
    t = Tracer()

    def ok(a, b=2):
        return a * b

    def boom():
        raise KeyError("x")

    wrapped_ok, wrapped_boom = t.wrap("m.ok", ok), t.wrap("m.boom", boom)
    assert wrapped_ok(3, b=5) == 15
    with pytest.raises(KeyError):
        wrapped_boom()
    assert [s[0] for s in t.spans] == ["m.ok", "m.boom"]
    assert all(end >= start for _, start, end, _ in t.spans)
    assert t._stack == []


def test_install_reaches_rebindings_and_uninstall_restores_all():
    from meanfield_lab import cli, exact, inverse, limits, solver

    originals = _originals()
    before = _bindings(originals)
    # the re-bindings and the CLI command table must be among them
    for key in [("meanfield_lab.limits", "pressure_limit"),
                ("meanfield_lab.inverse", "log_partition"),
                ("meanfield_lab.inverse", "validate_model"),
                ("meanfield_lab.solver", "hamiltonian_density"),
                ("meanfield_lab.cli", "_COMMANDS", "solve")]:
        assert key in before
    m = workloads.build_model("ref2")
    t = Tracer()
    with t:
        assert not _bindings(originals)    # every binding now holds a wrapper
        assert limits.pressure_limit is solver.pressure_limit
        assert cli._COMMANDS["solve"] is cli.cmd_solve
        assert inverse.log_partition is exact.log_partition
        exact.finite_pressure(m, [4, 4])
    names = [s[0] for s in t.spans]
    assert names == ["exact.finite_pressure", "exact.log_partition"]
    assert t.spans[0][3] == -1 and t.spans[1][3] == 0    # log_partition nested
    assert t.counts["exact.lattice_points"] == 25
    after = _bindings(originals)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_install_twice_is_refused():
    t = Tracer()
    with t:
        with pytest.raises(RuntimeError):
            t.install()


def test_self_time_of_a_nested_call_tree():
    # root [0, 10] calls mid [1, 5], which calls leaf [2, 4]; then leaf [6, 9]
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    leaf = t.wrap("a.leaf", lambda: None)
    mid = t.wrap("a.mid", lambda: leaf())

    def root():
        mid()
        leaf()

    t.wrap("a.root", root)()
    assert {s[:3] for s in t.spans} == {("a.root", 0.0, 10.0), ("a.mid", 1.0, 5.0),
                                        ("a.leaf", 2.0, 4.0), ("a.leaf", 6.0, 9.0)}
    selfs, calls, root_total = self_times(t.spans)
    assert selfs == {"a.root": 3.0, "a.mid": 2.0, "a.leaf": 5.0}
    assert calls == {"a.root": 1, "a.mid": 1, "a.leaf": 2}
    assert root_total == 10.0 == sum(selfs.values())


def test_failed_oracle_check_is_counted_not_raised():
    def failing_check(result, state):
        workloads.expect(result == 2, "wrong answer")

    def raising_task(state):
        raise ValueError("broken")

    record = worker.run_pass([
        workloads.Task("good", lambda st: 2, failing_check),
        workloads.Task("bad_value", lambda st: 3, failing_check),
        workloads.Task("raises", raising_task, failing_check),
    ])
    assert set(record["tasks"]) == {"good", "bad_value", "raises"}
    assert len(record["failures"]) == 2
    assert "OracleFailure" in record["failures"][0] and "ValueError" in record["failures"][1]
    once = worker.run_checks([workloads.Check("once", lambda: workloads.expect(False, "off"))])
    assert len(once) == 1 and "OracleFailure" in once[0]
    failures = record["failures"] + once
    raw = {"untraced": [record], "failures": failures, "attempted": 4, "peak_rss_mb": 1.0}
    values = run.end_to_end(raw, [(0.5, run.REFERENCE_PROBE_S)])
    assert values["setup_s"] == 0.5
    assert values["ok_ratio"] == pytest.approx(1.0 / 4.0)
    line = run.result_line(_spec()["end_to_end"], values, raw, True)
    assert line["correct"] is False and line["failed"] == 3 and line["attempted"] == 4


def _spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_declared_metrics_match_what_the_benchmark_measures(tmp_path):
    spec = _spec()
    declared = {m["name"] for m in spec["per_layer"]}
    expected = set()
    for name in SPAN_NAMES:
        expected |= {f"{name}.self_s", f"{name}.calls"}
    expected |= set(COUNT_NAMES) | {"solver.kept_ratio", "trace.coverage", "trace.overhead",
                                    "host.py_loop_s", "host.blas_s", "host.probe_s"}
    for cmd in run.CLI_COMMANDS:
        expected |= {f"run_{cmd}_s", f"cli.{cmd}.out_bytes"}
    for name, build in workloads.IN_PROCESS.items():
        expected |= {f"task.{name}.{t.name}_s" for t in build(1, str(tmp_path))[0]}
    assert declared == expected
    assert [c.name for c in workloads.cli_commands(1, str(tmp_path))] == list(run.CLI_COMMANDS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_times_are_converted_to_reference_speed():
    record = {"tasks": {"a": 1.0, "b": 2.0}, "probe_s": [0.02, 0.02]}
    raw = {"untraced": [record, dict(record, tasks={"a": 3.0, "b": 2.0}),
                        dict(record, tasks={"a": 2.0, "b": 9.0})],
           "failures": [], "attempted": 6, "peak_rss_mb": 1.0}
    values = run.end_to_end(raw, [(1.0, 0.02), (3.0, 0.01), (5.0, 0.02)])
    ref = run.REFERENCE_PROBE_S
    # task medians 2 + 2, measured while the probe took 0.02 s
    assert values["pass_s"] == pytest.approx(4.0 * ref / 0.02)
    # each start is converted with its own probe before the median is taken
    assert values["setup_s"] == pytest.approx(5.0 * ref / 0.02)


def test_pass_count_is_fixed_by_the_workload_and_seconds():
    assert [workloads.pass_count("forward", s, False) for s in (1, 16, 40)] == [3, 4, 10]
    assert workloads.pass_count("cli", 16, False) == 3
    # a traced run pairs half as many untraced passes with traced ones
    assert workloads.pass_count("forward", 16, True) == 2
    assert workloads.pass_count("cli", 16, True) == 1


def test_worker_that_hangs_before_ready_is_killed_at_the_deadline():
    hang = [sys.executable, "-c", "import time; time.sleep(60)"]
    start = time.perf_counter()
    with pytest.raises(run.BenchmarkError, match="did not finish"):
        run.spawn(hang, dict(os.environ), HERE, time.perf_counter() + 0.5)
    assert time.perf_counter() - start < 10


def test_recorded_config_hashes_are_current():
    with open(os.path.join(HERE, "provenance.json")) as fh:
        prov = json.load(fh)
    for name in workloads.WORKLOADS:
        assert prov["workloads"][name]["config_sha256"] == workloads.config_hash(name)
