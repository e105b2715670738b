import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from meanfield_lab import (
    exact_sample,
    law_from_dict,
    mle_fit,
    read_samples_csv,
)
from meanfield_lab.cli import _csv, dumps17, main

from conftest import make_cw, make_ref2

CW12 = {"n": 1, "alpha": [1.0], "J": [[1.2]], "h": [0.0]}
REF2 = {"n": 2, "alpha": [0.5, 0.5], "J": [[1.0, 0.5], [0.5, 1.0]],
        "h": [0.2, -0.1]}
CW05 = {"n": 1, "alpha": [1.0], "J": [[0.5]], "h": [0.1]}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_dumps17_roundtrip():
    obj = {"a": 1.0 / 3.0, "b": [1, 2.5e-300, True, None], "c": {"d": "x"}}
    text = dumps17(obj)
    back = json.loads(text)
    assert back["a"] == 1.0 / 3.0
    assert back["b"][1] == 2.5e-300
    assert json.loads(dumps17(float("nan"))) is None


@given(v=st.floats(allow_nan=False, allow_infinity=False))
def test_dumps17_floats_roundtrip_exactly(v):
    assert json.loads(dumps17(v)) == v


def test_solve_lists_two_maxima(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": CW12})
    assert main(["solve", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["maxima"]) == 2
    assert len(report["fixed_points"]) == 3
    assert report["pressure_limit"] == pytest.approx(0.024099613346311573,
                                                     abs=1e-12)


def test_sample_empty_file_has_header(tmp_path):
    cfg = write_config(tmp_path, {"model": CW12, "sizes": [100], "M": 0})
    out = tmp_path / "s.csv"
    assert main(["sample", "--config", cfg, "--seed", "5",
                 "--out", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "# meanfield-lab samples v1"
    again = read_samples_csv(str(out))
    assert again.sums.shape == (0, 1)


def test_sample_invert_pipeline_matches_library(tmp_path, capsys):
    model = make_ref2()
    cfg = write_config(tmp_path, {"model": REF2, "sizes": [100, 100],
                                  "M": 2000})
    sample_file = tmp_path / "draws.csv"
    assert main(["sample", "--config", cfg, "--seed", "99",
                 "--out", str(sample_file)]) == 0
    assert main(["invert", "--config", cfg,
                 "--samples", str(sample_file)]) == 0
    report = json.loads(capsys.readouterr().out)

    direct = mle_fit(exact_sample(model, [100, 100], 2000, seed=99),
                     model.alpha)
    assert np.array_equal(np.array(report["J"]), direct.J_hat)
    assert np.array_equal(np.array(report["h"]), direct.h_hat)
    assert report["log_likelihood"] == direct.log_likelihood


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, {"model": CW12, "sizes": [200], "M": 500})
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sample", "--config", cfg, "--seed", "7", "--out", str(out_a)]) == 0
    assert main(["sample", "--config", cfg, "--seed", "7", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    sol_a, sol_b = tmp_path / "ra.json", tmp_path / "rb.json"
    assert main(["solve", "--config", cfg, "--out", str(sol_a)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(sol_b)]) == 0
    assert sol_a.read_bytes() == sol_b.read_bytes()


def test_pressure_csv(tmp_path):
    cfg = write_config(tmp_path, {"model": REF2, "N_values": [100, 200]})
    out = tmp_path / "p.csv"
    assert main(["pressure", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,p_N,limit,lower_bound,upper_bound"
    for ln in lines[1:]:
        n, p, lim, lo, hi = ln.split(",")
        assert float(lo) <= float(p) <= float(hi)


def test_phase_csv(tmp_path):
    cfg = write_config(tmp_path, {"J_grid": [0.5, 0.6, 0.7], "h": 0.0})
    out = tmp_path / "phase.csv"
    assert main(["phase", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "J,mu,pressure,dp_dJ,d2p"
    assert len(lines) == 4


def test_phase_with_a_saturating_field(tmp_path):
    # at h = 1e16 every start was dropped and phase exited 3
    cfg = write_config(tmp_path, {"J_grid": [0.5, 1.0], "h": 1e16})
    out = tmp_path / "phase.csv"
    assert main(["phase", "--config", cfg, "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert [float(r[1]) for r in rows] == [1.0, 1.0]


def test_phase_at_a_field_near_the_float_limit_is_silent(tmp_path, capsys):
    # exit 0 with the right columns, but RuntimeWarnings on stderr
    cfg = write_config(tmp_path, {"J_grid": [0.5, 1.0], "h": 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["phase", "--config", cfg, "--out", str(tmp_path / "phase.csv")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("model,sizes", [(REF2, [1000, 1000]), (CW05, [1000000])],
                         ids=["ref2", "cw05"])
def test_limits_holds_about_one_float_per_lattice_point(tmp_path, model, sizes):
    # the sum law's (points, n) table, cov()'s temporaries and the CSV built as
    # one string took about 300 B per point
    import tracemalloc

    small = write_config(tmp_path, {"model": model, "sizes": [10] * len(sizes)}, "small.json")
    assert main(["limits", "--config", small, "--out", str(tmp_path / "small.json")]) == 0
    cfg = write_config(tmp_path, {"model": model, "sizes": sizes})
    tracemalloc.start()
    try:
        assert main(["limits", "--config", cfg, "--out", str(tmp_path / "law.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    volume = math.prod(v + 1 for v in sizes)
    assert peak <= 10 * volume, f"{peak / volume:.1f} B per point"
    assert len((tmp_path / "law.csv").read_text().splitlines()) == volume + 1


def test_limits_outputs(tmp_path):
    cfg = write_config(tmp_path, {"model": {"n": 1, "alpha": [1.0],
                                            "J": [[0.5]], "h": [0.0]},
                                  "sizes": [400]})
    out = tmp_path / "law.json"
    assert main(["limits", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    law = law_from_dict(report["law"])
    assert law.cov[0, 0] == pytest.approx(2.0, abs=1e-9)
    assert report["ks_distance"] < 0.05
    csv_lines = (tmp_path / "law.csv").read_text().splitlines()
    assert csv_lines[0] == "z,probability,exact_cdf,law_cdf"
    assert len(csv_lines) == 402


def test_limits_critical_law_has_the_closed_form_normaliser(tmp_path):
    cfg = write_config(tmp_path, {"model": {"n": 1, "alpha": [1.0],
                                            "J": [[1.0]], "h": [0.0]},
                                  "sizes": [400]})
    out = tmp_path / "law.json"
    assert main(["limits", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["k"] == 2 and report["law"]["kind"] == "higher_order"
    closed = math.lgamma(0.25) - math.log(2.0) + 0.25 * math.log(12.0)
    assert report["law"]["log_normalizer"] == pytest.approx(closed, rel=1e-15)


def test_limits_conditioned(tmp_path):
    cfg = write_config(tmp_path, {"model": CW12, "sizes": [500],
                                  "conditioned": {"center": [0.66],
                                                  "radius": 0.3}})
    out = tmp_path / "law.json"
    assert main(["limits", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["law"]["kind"] == "gaussian"


def test_invert_conditioned_ball_flag(tmp_path, capsys):
    model = make_cw(1.2, 0.0)
    cfg = write_config(tmp_path, {"model": CW12, "sizes": [500], "M": 20000})
    sample_file = tmp_path / "s.csv"
    assert main(["sample", "--config", cfg, "--seed", "11",
                 "--out", str(sample_file)]) == 0
    assert main(["invert", "--config", cfg, "--samples", str(sample_file),
                 "--ball", "0.6585,0.3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["J"][0][0] - 1.2) < 0.15


@pytest.mark.parametrize("command,ball", [
    ("limits", {"center": [math.nan], "radius": 0.3}),
    ("limits", {"center": [-math.inf], "radius": 0.3}),
    ("limits", {"center": [0.66], "radius": math.nan}),
    ("limits", {"center": [0.66], "radius": math.inf}),
    ("limits", {"center": [0.66], "radius": -1.0}),
    ("invert", "nan,0.3"),
    ("invert", "0.6,nan"),
    ("invert", "0.6,-1"),
    ("invert", "0.6,inf"),
    ("invert", "0.6,0.1,0.3"),
    ("invert", "0.3"),
])
def test_a_bad_conditioning_ball_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                          command, ball):
    def work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr("meanfield_lab.solver.pressure_limit", work)
    monkeypatch.setattr("meanfield_lab.exact.read_samples_csv", work)
    out = tmp_path / "out.json"
    if command == "limits":
        cfg = write_config(tmp_path, {"model": CW12, "sizes": [100], "conditioned": ball})
        argv = [command, "--config", cfg, "--out", str(out)]
    else:
        cfg = write_config(tmp_path, {"model": CW12})
        argv = [command, "--config", cfg, "--out", str(out),
                "--samples", str(tmp_path / "s.csv"), "--ball", ball]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigParse" and "finite" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["limits", "sample"])
def test_file_commands_refuse_a_missing_out_before_any_work(tmp_path, capsys, command):
    # the work would fail otherwise: limits on two global maxima, sample on M
    cfg = write_config(tmp_path, {"model": CW12, "sizes": [100], "M": -1})
    assert main([command, "--config", cfg, "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    err = json.loads(err)
    assert err["error"] == "ConfigParse" and "--out" in err["message"]
    assert out == "" and [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_invert_alpha_comes_from_alpha_or_model(tmp_path, capsys):
    model = {"n": 2, "alpha": [0.3, 0.7], "J": [[1.0, 0.5], [0.5, 1.0]], "h": [0.2, -0.1]}
    cfg = write_config(tmp_path, {"model": model, "sizes": [30, 70], "M": 500})
    sample_file = tmp_path / "s.csv"
    assert main(["sample", "--config", cfg, "--seed", "3",
                 "--out", str(sample_file)]) == 0
    assert main(["invert", "--config", cfg, "--samples", str(sample_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    direct = mle_fit(read_samples_csv(str(sample_file)), np.array([0.3, 0.7]))
    assert np.array_equal(np.array(report["J"]), direct.J_hat)

    bare = write_config(tmp_path, {"sizes": [30, 70]}, name="bare.json")
    assert main(["invert", "--config", bare, "--samples", str(sample_file)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigParse" and "alpha" in err["message"]
    for ball in ["0.5,abc", ""]:
        assert main(["invert", "--config", cfg, "--samples", str(sample_file),
                     "--ball", ball]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigParse" and "--ball" in err["message"]


def test_invert_ball_refuses_alpha_that_contradicts_the_sample_sizes(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": REF2, "sizes": [200, 200], "M": 2000})
    sample_file = tmp_path / "s.csv"
    assert main(["sample", "--config", cfg, "--seed", "1",
                 "--out", str(sample_file)]) == 0
    skewed = write_config(tmp_path, {"alpha": [0.3, 0.7]}, name="skewed.json")
    out = tmp_path / "fit.json"
    assert main(["invert", "--config", skewed, "--samples", str(sample_file),
                 "--ball", "0.36,-0.02,0.5", "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "BadSizes"
    assert not out.exists()


def test_invert_ball_refuses_a_one_species_alpha_that_contradicts_the_sample_size(
        tmp_path, capsys):
    # a single block is the whole sample: its fraction is 1, not 0.5
    cfg = write_config(tmp_path, {"model": CW12, "sizes": [400], "M": 2000})
    sample_file = tmp_path / "s.csv"
    assert main(["sample", "--config", cfg, "--seed", "11",
                 "--out", str(sample_file)]) == 0
    half = write_config(tmp_path, {"alpha": [0.5]}, name="half.json")
    out = tmp_path / "fit.json"
    assert main(["invert", "--config", half, "--samples", str(sample_file),
                 "--ball", "0.6586,0.3", "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "BadSizes"
    assert not out.exists()


@pytest.mark.parametrize("command,doc,out,code,error", [
    ("solve", {"sizes": [100]}, "out.json", 2, "ConfigParse"),
    ("invert", {"alpha": [1.0]}, "out.json", 2, "ConfigParse"),
    ("solve", {"model": CW12}, "missing/out.json", 4, "IoError"),
], ids=["solve-without-model", "invert-without-samples", "solve-out-in-missing-dir"])
def test_config_and_io_faults_exit_2_or_4(tmp_path, capsys, command, doc, out, code, error):
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / out)]) == code
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert not (tmp_path / out).exists()


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["solve", "--config", str(bad)]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 4
    assert main(["solve"]) == 2

    # numeric precondition: lattice cap is tiny
    cfg = write_config(tmp_path, {"model": CW12, "sizes": [100], "M": 10,
                                  "solver": {"grid_points": 3}})
    cfg_bad_sizes = write_config(tmp_path, {"model": REF2,
                                            "sizes": [100, 120], "M": 10},
                                 name="cfg2.json")
    out = tmp_path / "x.csv"
    assert main(["sample", "--config", cfg_bad_sizes, "--seed", "1",
                 "--out", str(out)]) == 3

    # sampling without a seed is a config error
    capsys.readouterr()
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2


@pytest.mark.parametrize("bad", [
    {"grid_points": 2.5}, {"max_iter": 0}, {"newton_max_iter": -1},
    {"tol": float("nan")}, {"dedup_radius": -1}, {"newton_trigger": float("inf")},
    {"damping": 0}, {"damping": 1.5},
])
def test_bad_solver_options_exit_2(tmp_path, capsys, bad):
    cfg = write_config(tmp_path, {"model": CW12, "solver": bad})
    assert main(["solve", "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigParse"


@pytest.mark.parametrize("command,doc", [
    ("limits", {"model": CW12, "sizes": [100], "conditioned": {"radius": 0.3}}),
    ("limits", {"model": CW12, "sizes": [100],
                "conditioned": {"center": ["x"], "radius": 0.3}}),
    ("limits", {"model": CW12, "sizes": [100],
                "conditioned": {"center": [0.66, 0.1], "radius": 0.3}}),
    ("pressure", {"model": REF2, "N_values": ["abc"]}),
    ("pressure", {"model": REF2, "N_values": [2.7]}),
    ("pressure", {"model": REF2, "N_values": 200}),
    ("sample", {"model": CW12, "sizes": [100], "M": "x"}),
    ("sample", {"model": CW12, "sizes": [100], "M": -3}),
    ("sample", {"model": CW12, "sizes": [100], "M": 10, "seed": "abc"}),
    ("phase", {"J_grid": ["q"]}),
    ("phase", {"J_grid": [0.5, 0.6], "h": "x"}),
    ("sample", {"model": CW12, "sizes": [100], "M": True}),
    ("limits", {"model": CW12, "sizes": [100], "conditioned": [0.66, 0.3]}),
])
def test_ill_typed_config_scalars_exit_2(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, doc)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out.json")]
    assert main(argv + (["--seed", "1"] if "seed" not in doc else [])) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigParse"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("bad", [{"J": [[float("nan")]]}, {"h": [float("inf")]}])
def test_non_finite_model_exit_2(tmp_path, capsys, bad):
    cfg = write_config(tmp_path, {"model": {**CW12, **bad}})
    assert main(["solve", "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonFiniteParameter"


def test_invert_weak_coupling_is_not_a_config_error(tmp_path, capsys):
    # J=0.05 at N=50 estimates J_11 <= 0, which is no valid model but is
    # a data outcome: it must not exit 2
    weak = {"n": 1, "alpha": [1.0], "J": [[0.05]], "h": [0.0]}
    cfg = write_config(tmp_path, {"model": weak, "sizes": [50], "M": 200})
    sample_file = tmp_path / "weak.csv"
    assert main(["sample", "--config", cfg, "--seed", "1",
                 "--out", str(sample_file)]) == 0
    capsys.readouterr()
    assert main(["invert", "--config", cfg, "--samples", str(sample_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["J"][0][0] <= 0.0
    assert np.isfinite(report["log_likelihood"])


@pytest.mark.parametrize("n,sizes,row", [(2, "[3]", "1,1"), (1, "[0]", "0")])
def test_invert_bad_size_metadata_exit_2(tmp_path, capsys, n, sizes, row):
    sample_file = tmp_path / "bad.csv"
    sample_file.write_text(f"# meanfield-lab samples v1\n# n={n}\n# N={sizes}\n"
                           f"# seed=1\n{row}\n{row}\n")
    cfg = write_config(tmp_path, {"alpha": [1.0 / n] * n})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["invert", "--config", cfg, "--samples", str(sample_file)]) == 2
    assert not caught
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigParse"


def test_error_json_on_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["solve", "--config", str(bad)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigParse"
    assert err["exit_code"] == 2


def test_console_module_entrypoint(tmp_path):
    cfg = write_config(tmp_path, {"J_grid": [0.5], "h": 0.0})
    out = tmp_path / "t.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "meanfield_lab.cli", "phase",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()


def reference_csv(header, rows):
    """Cell by cell: integers as they are, finite floats at 17 digits, else nan."""
    def cell(v):
        if isinstance(v, float):
            return format(v, ".17g") if math.isfinite(v) else "nan"
        return str(v)
    return "".join(",".join(map(cell, row)) + "\n" for row in [header] + rows)


def test_csv_template_matches_per_cell_formatting():
    rng = np.random.Generator(np.random.PCG64(7))
    floats = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-320, 301, (300, 3))
    floats[:8, 0] = [-0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-320, 1e300, 0.1]
    floats[5, 2] = math.nan
    sizes = np.arange(300, dtype=np.int64) * 1000 - 7
    header = ["N", "a", "b", "c"]
    rows = [[int(n)] + row for n, row in zip(sizes, floats.tolist())]
    assert _csv(header, sizes, floats) == reference_csv(header, rows)
    assert _csv(header[1:], *floats.T) == reference_csv(header[1:], floats.tolist())
    assert _csv(header, sizes[:0], floats[:0]) == "N,a,b,c\n"


@pytest.mark.parametrize("command,doc", [
    ("solve", {"model": CW12, "solver": [1]}),
    ("solve", {"model": CW12, "solver": "abc"}),
    ("solve", {"model": CW12, "solver": {"grid_points": True}}),
    ("invert", {"alpha": ["x"]}),
    ("solve", {"model": {**CW12, "n": 1.7}}),
    ("solve", {"model": {**CW12, "n": True}}),
    ("solve", {"model": {**CW12, "h": ["0.0"]}}),
    ("solve", {"model": {**CW12, "J": [[True]]}}),
    ("solve", {"model": {**CW12, "measure": {"atoms": [["-1", 0.5], [1.0, "0.5"]]}}}),
])
def test_ill_typed_documents_exit_2(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.json")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigParse"
    assert not (tmp_path / "out.json").exists()


def test_an_unknown_solver_option_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": CW12, "solver": {"grid_size": 5}})
    assert main(["solve", "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigParse" and "grid_size" in err["message"]


def test_limits_without_a_ball_refuses_two_global_maxima(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {**CW12, "h": [0.0]}, "sizes": [100]})
    assert main(["limits", "--config", cfg, "--out", str(tmp_path / "l.json")]) == 3
    assert "several global maxima" in json.loads(capsys.readouterr().err)["message"]


def test_weak_antiferromagnet_runs_end_to_end(tmp_path, capsys):
    # D J D is not positive definite: the direct route is skipped, nothing refused
    af = {"n": 2, "alpha": [0.5, 0.5], "J": [[0.5, -0.6], [-0.6, 0.5]], "h": [0.1, 0.0]}
    cfg = write_config(tmp_path, {"model": af, "N_values": [200, 800, 3200],
                                  "sizes": [100, 100]})
    assert main(["solve", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method_agreement"] is None
    assert [m["k"] for m in report["maxima"]] == [1]
    assert main(["pressure", "--config", cfg]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    for row in rows:
        _, p_n, _, lower, upper = map(float, row.split(","))
        assert lower <= p_n <= upper
    assert len(rows) == 3
    assert main(["limits", "--config", cfg, "--out", str(tmp_path / "l.json")]) == 0
    assert json.loads((tmp_path / "l.json").read_text())["law"]["kind"] == "gaussian"
