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
from meanfield_lab.cli import dumps17, main

from conftest import make_cw, make_ref2

CW12 = {"n": 1, "alpha": [1.0], "J": [[1.2]], "h": [0.0]}
REF2 = {"n": 2, "alpha": [0.5, 0.5], "J": [[1.0, 0.5], [0.5, 1.0]],
        "h": [0.2, -0.1]}


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
