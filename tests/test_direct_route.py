"""The direct route of the pressure cross-check: its work, its basins, its independence.

``solver._max_f_direct`` climbs f by ``_ascent._ascend``.  These tests pin
the work it does (Hessian evaluations and rows), check that its merge of
climbers never loses the global peak, that it calls nothing of the
fixed-point route, and that an overflowing f gives no agreement figure.
"""

import json
import math

import numpy as np
import pytest

from meanfield_lab import (
    FiniteMeasure,
    ModelSpec,
    SolverOptions,
    pressure_limit,
    solve_fixed_points,
    validate_model,
)
from meanfield_lab import _ascent, solver
from meanfield_lab.cli import main

from conftest import make_cw

EPS = np.finfo(float).eps


def make_crit2():
    return validate_model(ModelSpec(n=2, alpha=(0.5, 0.5),
                                    J=((2.0, 0.0), (0.0, 2.0)), h=(0.0, 0.0)))


def make_ref4():
    return validate_model(ModelSpec(
        n=4, alpha=(0.1, 0.2, 0.3, 0.4),
        J=((2.0, 0.3, -0.2, 0.1), (0.3, 1.5, 0.4, 0.0),
           (-0.2, 0.4, 1.0, 0.2), (0.1, 0.0, 0.2, 1.2)),
        h=(0.1, -0.2, 0.05, 0.0)))


def ferromagnet(h):
    """n species of weight 1/n with alpha J = 1.2 I + 0.01: one maximum per sign pattern."""
    n = len(h)
    J = n * (1.2 * np.eye(n) + 0.01)
    return validate_model(ModelSpec(n=n, alpha=(1.0 / n,) * n, J=tuple(map(tuple, J)),
                                    h=tuple(h)))


def hessian_rows(monkeypatch, model):
    """Rows of each ``_hessian_f`` call the direct route makes on ``model``."""
    rows = []
    hessian = solver._hessian_f

    def spy(m, X):
        rows.append(len(X))
        return hessian(m, X)

    monkeypatch.setattr(solver, "_hessian_f", spy)
    solver._max_f_direct(model)
    return rows


def ascend_from(model, starts):
    """``_ascend`` on the model's f from the given one-species starts."""
    return _ascent._ascend(lambda X: solver._f_batch(model, X),
                           lambda X: solver._grad_f_batch(model, X),
                           lambda X: solver._hessian_f(model, X),
                           np.array(starts, dtype=float)[:, None])


# --- work -------------------------------------------------------------------


@pytest.mark.parametrize("model_fn", [lambda: make_cw(1.0, 0.0), make_crit2],
                         ids=["cw10", "crit2"])
def test_a_degenerate_maximum_takes_few_hessians(monkeypatch, model_fn):
    # the step ratio holds at 2/3 there: the unscaled ascent took 22
    assert len(hessian_rows(monkeypatch, model_fn())) <= 10


def test_climbers_of_one_peak_are_merged(monkeypatch):
    # all 625 grid rows of ref4 climb to its one maximum: 2180 rows unmerged
    assert sum(hessian_rows(monkeypatch, make_ref4())) <= 1000


# --- basins -----------------------------------------------------------------


@pytest.mark.parametrize("h,grid", [((0.03, -0.01), 11),
                                    ((0.03, -0.01, 0.02, -0.02, 0.01), 3)],
                         ids=["n2", "n5"])
def test_the_global_peak_of_many_is_found(h, grid):
    model = ferromagnet(h)
    res = pressure_limit(model, SolverOptions(grid_points=grid))
    peaks = [p for p in res.fixed_points
             if np.linalg.eigvalsh(solver._curvature(model, p.x)[0]).min() > 0]
    assert len(peaks) == 2 ** len(h) and len(res.maxima) == 1
    assert res.method_agreement <= 4.0 * EPS * (1.0 + abs(res.limit_value))


@pytest.mark.parametrize("model,starts", [
    # starts on either side of the minimum of f at x = 0.005, in one cell: the
    # Hessian is indefinite there, and the lower start climbs to the global peak
    (make_cw(1.2, -0.001), [0.0045, 0.0073]),
    # peaks at 0.0033 and 0.4658, in one cell of side 1/2; the second is higher
    # by 5.6e-7, though its climber is lower than the first's after one step
    (make_cw(3.30297, 1e-4, measure=FiniteMeasure(
        atoms=((-1.0, 0.15), (0.0, 0.7), (1.0, 0.15)))), [0.001, 0.49]),
], ids=["saddle", "two-peaks"])
def test_a_merge_keeps_the_climber_of_each_basin(model, starts):
    limit = max(p.f_value for p in solve_fixed_points(model))
    assert abs(ascend_from(model, starts) - limit) <= 4.0 * EPS * (1.0 + abs(limit))


# --- independence and overflow ----------------------------------------------


def test_the_direct_route_at_degenerate_maxima_uses_no_fixed_point_code(monkeypatch):
    models = [make_cw(1.0, 0.0), make_crit2()]
    want = [pressure_limit(m).limit_value for m in models]

    def refuse(*args, **kwargs):
        raise AssertionError("the direct route called the fixed-point route")

    for name in ("mean_field_map", "_map_rows", "_map_defect", "_newton_polish",
                 "_deflated", "solve_fixed_points"):
        monkeypatch.setattr(solver, name, refuse)
    for model, limit in zip(models, want):
        assert abs(solver._max_f_direct(model) - limit) <= 4.0 * EPS * (1.0 + abs(limit))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")      # f's own overflow, still warned
def test_an_overflowing_direct_value_is_no_check(monkeypatch, tmp_path, capsys):
    # f reads inf - inf there: the gap was inf, after 60 halvings on nan trials per step
    model = make_cw(1e308, 1e308)
    calls = []
    f_batch = solver._f_batch
    monkeypatch.setattr(solver, "_f_batch", lambda m, X: calls.append(len(X)) or f_batch(m, X))
    assert not math.isfinite(solver._max_f_direct(model))
    assert len(calls) <= 3
    res = pressure_limit(model)
    assert res.limit_value == 1.5e308 and math.isnan(res.method_agreement)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"n": 1, "alpha": [1.0], "J": [[1e308]],
                                         "h": [1e308]}}))
    assert main(["solve", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["method_agreement"] is None


def eight_decoupled_species():
    """alpha = 1/8 each, J = 0.5 I, h = 0.1: eight copies of cw at J = 0.0625, h = 0.1."""
    return {"n": 8, "alpha": [0.125] * 8, "J": (0.5 * np.eye(8)).tolist(), "h": [0.1] * 8}


def test_a_direct_grid_past_the_start_cap_is_no_check(monkeypatch):
    # 5^8 = 390625 starts: _ascend took them all, with 8 x 8 Hessians
    def refuse(*args, **kwargs):
        raise AssertionError("the direct route climbed past the start cap")

    cw = pressure_limit(make_cw(0.0625, 0.1)).limit_value
    monkeypatch.setattr(solver, "_ascend", refuse)
    doc = eight_decoupled_species()
    model = validate_model(ModelSpec(n=8, alpha=tuple(doc["alpha"]),
                                     J=tuple(map(tuple, doc["J"])), h=tuple(doc["h"])))
    res = pressure_limit(model, SolverOptions(grid_points=1))
    assert math.isnan(res.method_agreement)
    assert abs(res.limit_value - cw) <= 1e-15


def test_solve_with_a_direct_grid_past_the_start_cap_prints_no_agreement(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": eight_decoupled_species(),
                               "solver": {"grid_points": 1}}))
    assert main(["solve", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["method_agreement"] is None
