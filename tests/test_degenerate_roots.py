"""Degenerate roots end on a deflated Newton candidate.

Newton is only linear at a root of multiplicity 2k - 1: each step shrinks by
(2k - 2)/(2k - 1).  A row that shows that signature moves to the simple root
of kappa_(2k-1) and keeps it only if it is a root to rounding level with a
singular Jacobian (``solver._deflated``).  These tests pin the gain, the
wrong answers it mends and the models where the candidate must be refused.
"""

import json
import warnings

import numpy as np
import pytest

from meanfield_lab import (
    FiniteMeasure,
    ModelSpec,
    SolverOptions,
    log_partition,
    pressure_limit,
    solve_fixed_points,
    validate_model,
)
from meanfield_lab import solver
from meanfield_lab.cli import main
from meanfield_lab.errors import DomainError, UnsupportedDegeneracy

from conftest import MU0_J1001, make_cw

CW10 = {"n": 1, "alpha": [1.0], "J": [[1.0]], "h": [0.0]}
CRIT2 = {"n": 2, "alpha": [0.5, 0.5], "J": [[2.0, 0.0], [0.0, 2.0]], "h": [0.0, 0.0]}
# atoms (-1, 0.3), (0.5, 0.5), (2, 0.2): kappa_3 of the tilted measure vanishes
# where its mean is 0.5 and its variance 1/J, a k = 2 maximum at x = 0.5
SKEWED = {"n": 1, "alpha": [1.0], "J": [[0.8980536560709589]], "h": [-0.3138717919994247],
          "measure": {"atoms": [[-1.0, 0.3], [0.5, 0.5], [2.0, 0.2]]}}
OVERFLOWING = {"n": 1, "alpha": [1.0], "J": [[0.001]], "h": [8.78e307]}


def model_of(doc):
    measure = doc.get("measure")
    extra = {} if measure is None else {
        "site_measure": FiniteMeasure(atoms=tuple(map(tuple, measure["atoms"])))}
    return validate_model(ModelSpec(n=doc["n"], alpha=tuple(doc["alpha"]),
                                    J=tuple(map(tuple, doc["J"])), h=tuple(doc["h"]),
                                    **extra))


def rank_one():
    return validate_model(ModelSpec(n=2, alpha=(0.5, 0.5), J=((1.0, 1.0), (1.0, 1.0)),
                                    h=(0.0, 0.0)))


def three_atoms(e):
    """Atoms (-1, e), (0, 1 - 2e), (1, e) at J = 1/(2e): critical at x = 0."""
    measure = FiniteMeasure(atoms=((-1.0, e), (0.0, 1.0 - 2.0 * e), (1.0, e)))
    return make_cw(1.0 / (2.0 * e), 0.0, measure=measure)


def write_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("doc", [CW10, CRIT2], ids=["cw10", "crit2"])
def test_degenerate_roots_take_a_few_newton_steps(monkeypatch, doc):
    # the linear crawl to 1e-8 took 46 steps
    steps = []
    real = solver._map_defect

    def counted(*args):
        steps.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(solver, "_map_defect", counted)
    points = solve_fixed_points(model_of(doc))
    assert len(steps) <= 8
    assert len(points) == 1
    assert np.all(points[0].x == 0.0) and points[0].residual == 0.0


@pytest.mark.parametrize("model_fn", [lambda: model_of(CW10), lambda: model_of(CRIT2),
                                      rank_one], ids=["cw10", "crit2", "rank-one"])
def test_an_even_grid_finds_a_degenerate_root_once_and_exactly(model_fn):
    # no start lies on 0; the crawl stopped at +-8.3e-9, farther apart than
    # dedup_radius, and gave 2, 4 and 2 points
    points = solve_fixed_points(model_fn(), SolverOptions(grid_points=10))
    assert len(points) == 1
    assert np.all(points[0].x == 0.0) and points[0].residual == 0.0


@pytest.mark.parametrize("doc,sizes", [(CW10, [400]), (CRIT2, [40, 40])],
                         ids=["cw10", "crit2"])
def test_cli_limits_at_an_even_grid_has_one_maximum(tmp_path, doc, sizes):
    cfg = write_config(tmp_path, {"model": doc, "sizes": sizes,
                                  "solver": {"grid_points": 10}})
    out = tmp_path / "law.json"
    assert main(["limits", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["k"] == 2
    assert report["center"] == [0] * len(sizes)


@pytest.mark.parametrize("J", [1.0 + 1e-8, 1.0 + 1e-10])
def test_just_above_the_critical_coupling_three_points_stay(J):
    # x = 0 is a simple root there: its Jacobian 1 - J is not singular
    points = solve_fixed_points(make_cw(J, 0.0))
    assert len(points) == 3
    assert points[1].x[0] == 0.0
    assert points[0].x[0] == -points[2].x[0]
    assert points[2].x[0] == pytest.approx(np.sqrt(3.0 * (J - 1.0)), rel=1e-3)


def test_the_magnetization_at_j_1001_stays():
    points = solve_fixed_points(make_cw(1.001, 0.0))
    assert len(points) == 3
    assert points[2].x[0] == pytest.approx(MU0_J1001, rel=1e-12)


def test_a_tiny_field_keeps_its_root():
    # x = 0 leaves the defect tanh(1e-17) = 1e-17, far above rounding there
    points = solve_fixed_points(make_cw(1.0, 1e-17))
    assert [p.x[0] for p in points] == [3.107232505933323e-06]


def test_a_field_of_minus_1e_minus_300_is_not_captured():
    points = solve_fixed_points(make_cw(1.0, -1e-300))
    assert [p.x[0] for p in points] == [-7.4067275568096525e-09, 7.4067275568096525e-09]


@pytest.mark.parametrize("J,h,accepted", [(1.0, 0.0, True), (1.001, 0.0, False),
                                          (1.0, 1e-17, False)])
def test_a_candidate_is_a_root_to_rounding_with_a_singular_jacobian(J, h, accepted):
    model = make_cw(J, h)
    C, ok = solver._deflated(model, np.array([[1e-3]]), np.array([[5e-4]]),
                             np.array([2.0 / 3.0]), *model.row_couplings())
    assert C.tolist() == [[0.0]]
    assert ok.tolist() == [accepted]


def test_a_skewed_atom_measure_has_one_quartic_maximum(tmp_path, capsys):
    res = pressure_limit(model_of(SKEWED))
    assert [c.k for c in res.maxima] == [2]
    assert abs(res.maxima[0].point.x[0] - 0.5) <= 1e-15
    assert main(["solve", "--config", write_config(tmp_path, {"model": SKEWED})]) == 0
    assert len(json.loads(capsys.readouterr().out)["maxima"]) == 1


@pytest.mark.parametrize("e,k", [(0.25, 2), (0.2, 2), (1.0 / 6.0, 3)])
def test_a_symmetric_atom_measure_has_one_maximum_at_zero(e, k):
    res = pressure_limit(three_atoms(e))
    assert [c.k for c in res.maxima] == [k]
    assert abs(res.maxima[0].point.x[0]) <= 1e-15
    assert res.method_agreement <= 1e-9


SPIN1 = FiniteMeasure(atoms=((-1.0, 1.0 / 3.0), (0.0, 1.0 / 3.0), (1.0, 1.0 / 3.0)))


def two_species(J, measure=None, h=(0.0, 0.0)):
    extra = {} if measure is None else {"site_measure": measure}
    return validate_model(ModelSpec(n=2, alpha=(0.5, 0.5), J=J, h=h, **extra))


def test_a_critical_two_species_spin1_model_has_one_quartic_maximum():
    # J = 3 I: D J D kappa_2 = I at 0, where kappa_4 = -2/3 in each species
    res = pressure_limit(two_species(((3.0, 0.0), (0.0, 3.0)), SPIN1))
    assert [c.k for c in res.maxima] == [2]
    assert res.maxima[0].point.x.tolist() == [0.0, 0.0]
    form = res.maxima[0].quartic_form
    assert np.max(np.abs(np.array(form.coeffs) + 1.0 / 72.0)) <= 1e-12
    assert np.max(np.abs(np.array(form.rays) - 1.5 * np.eye(2))) <= 1e-12


def test_each_species_of_a_decoupled_skewed_model_takes_its_own_candidate():
    # the candidate ran Newton on kappa_3 in species 0 alone: 101 fixed points and a
    # "fold" where there is one quartic maximum per species
    J, h = SKEWED["J"][0][0], SKEWED["h"][0]
    atoms = FiniteMeasure(atoms=tuple(map(tuple, SKEWED["measure"]["atoms"])))
    res = pressure_limit(two_species(((2.0 * J, 0.0), (0.0, 2.0 * J)), atoms, (h, h)))
    assert len(res.fixed_points) == 1
    assert np.max(np.abs(res.fixed_points[0].x - 0.5)) <= 1e-15
    assert [c.k for c in res.maxima] == [2]
    assert abs(res.limit_value - pressure_limit(model_of(SKEWED)).limit_value) <= 1e-15


@pytest.mark.parametrize("J,measure", [
    (((1.5, 1.5), (1.5, 1.5)), SPIN1), (((1.0, 1.0), (1.0, 1.0)), None),
    (((3.0, 0.0), (0.0, 1.0)), SPIN1), (((2.0, 0.0), (0.0, 2.0 / 3.0)), None),
], ids=["rank-one-spin1", "rank-one", "diag-spin1", "diag"])
def test_a_partially_degenerate_maximum_is_refused_under_either_measure(J, measure):
    # each spin-1 model's +-1 analogue scales J by the spin-1 variance 2/3 at 0
    with pytest.raises(UnsupportedDegeneracy):
        pressure_limit(two_species(J, measure))


def test_overflowing_lattice_weights_raise_without_a_warning(tmp_path):
    cfg = write_config(tmp_path, {"model": OVERFLOWING, "N_values": [60]})
    two = {"n": 2, "alpha": [0.5, 0.5], "J": [[0.001, 0.0], [0.0, 0.001]],
           "h": [8.78e307, -8.78e307]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["pressure", "--config", cfg]) == 3
        for doc, sizes in ((OVERFLOWING, [60]), (two, [30, 30])):
            with pytest.raises(DomainError):
                log_partition(model_of(doc), sizes)
