"""The bipartite mean-field model: two species of equal size, no coupling within a species.

alpha = (1/2, 1/2), J_11 = J_22 = 0, J_12 != 0; Gallo & Contucci solved its pressure
(Math. Phys. Electron. J. 14, 2008).  Every model here keeps away from the critical
line alpha_1 alpha_2 J_12^2 = 1 and from the Neel point.
"""

import json
import warnings

import numpy as np
import pytest

from meanfield_lab import finite_pressure, model_from_dict, pressure_limit, validate_model
from meanfield_lab.cli import main


def _bipartite(J12, h):
    return {"n": 2, "alpha": [0.5, 0.5], "J": [[0.0, J12], [J12, 0.0]], "h": [h, h]}


def _model(J12, h):
    return validate_model(model_from_dict(_bipartite(J12, h)))


@pytest.fixture(autouse=True)
def _warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("h", [0.0, 0.3])
@pytest.mark.parametrize("J12", [2.5, -2.5])
def test_the_limit_is_the_extrapolated_lattice_pressure(J12, h):
    # p_N = p + a/N + b/N^2 + ...: two Richardson steps on N = 100 .. 800
    model = _model(J12, h)
    p = [finite_pressure(model, [N, N]) for N in (100, 200, 400, 800)]
    once = [2.0 * fine - coarse for coarse, fine in zip(p, p[1:])]
    twice = (4.0 * once[2] - once[1]) / 3.0
    assert abs(pressure_limit(model).limit_value - twice) <= 1e-6


def test_the_gauge_x2_to_minus_x2_maps_ferro_to_antiferro_at_zero_field():
    ferro, antiferro = _model(2.5, 0.0), _model(-2.5, 0.0)
    assert abs(finite_pressure(ferro, [200, 200])
               - finite_pressure(antiferro, [200, 200])) <= 1e-15
    assert abs(pressure_limit(ferro).limit_value
               - pressure_limit(antiferro).limit_value) <= 1e-15


def _run(tmp_path, command, doc, *argv):
    config, out = tmp_path / f"{command}.json", tmp_path / f"{command}.out"
    config.write_text(json.dumps(doc))
    assert main([command, "--config", str(config), *argv, "--out", str(out)]) == 0
    return out


def test_the_cli_runs_the_antiferromagnet_end_to_end_and_takes_back_its_estimate(tmp_path):
    model = _bipartite(-2.5, 0.3)
    solved = json.loads(_run(tmp_path, "solve", {"model": model}).read_text())
    maxima = sorted(m["x"] for m in solved["maxima"])
    assert np.allclose(maxima, [[-0.5827, 0.7733], [0.7733, -0.5827]], atol=1e-4)
    samples = _run(tmp_path, "sample", {"model": model, "sizes": [400, 400], "M": 20000},
                   "--seed", "3")
    _run(tmp_path, "limits", {"model": model, "sizes": [400, 400],
                              "conditioned": {"center": maxima[1], "radius": 0.3}})
    ball = ",".join(map(str, maxima[1] + [0.3]))
    estimate = json.loads(_run(tmp_path, "invert", {"model": model}, "--samples",
                               str(samples), "--ball", ball).read_text())
    assert abs(estimate["J"][0][1] - (-2.5)) < 0.25
    assert min(np.diag(estimate["J"])) < 0          # so the last solve takes one
    _run(tmp_path, "solve", {"model": {**model, "J": estimate["J"], "h": estimate["h"]}})
