"""Each input check raises its typed error on an input that reaches it."""

import json

import numpy as np
import pytest

from meanfield_lab import cli
from meanfield_lab.errors import (
    ConfigParse,
    DimensionMismatch,
    DegenerateMeasure,
    DomainError,
    InconsistentRows,
    IoError,
    NotPositiveDefiniteResult,
    SingularSystem,
    Unnormalized,
)
from meanfield_lab.exact import SampleSet, read_samples_csv
from meanfield_lab.inverse import (
    EmpiricalMoments,
    estimate_moments,
    invert_conditioned,
    invert_cw,
    invert_multi,
)
from meanfield_lab.limits import (
    DeltaMixture,
    Gaussian,
    covariance_tilde,
    law_cdf_1d,
    law_density,
    susceptibility_matrix,
)
from meanfield_lab.model import (
    FiniteMeasure,
    ModelSpec,
    hamiltonian_density,
    model_from_dict,
    validate_model,
)
from meanfield_lab.solver import (
    HomogeneousForm,
    MaximumClassification,
    StationaryPoint,
    classify_maximum,
    cw_phase_scan,
    functional_f,
    mean_field_map,
)

from conftest import make_cw, make_ref2

REF2_DOC = {"n": 2, "alpha": [0.5, 0.5], "J": [[1.0, 0.5], [0.5, 1.0]], "h": [0.2, -0.1]}


def _k1_at_zero():
    """A hand-made type-1 classification at x = 0."""
    point = StationaryPoint(x=np.zeros(1), residual=0.0, f_value=0.0, fbar_value=0.0)
    return MaximumClassification(point=point, k=1, hessian=np.array([[-0.2]]))


def _samples(sums, sizes):
    return SampleSet(sizes=np.array(sizes), seed=0, sums=np.array(sums))


def _moments(mean):
    mean = np.array(mean, dtype=float)
    return EmpiricalMoments(mean=mean, second=np.outer(mean, mean) + 0.01 * np.eye(len(mean)),
                            sizes=np.full(len(mean), 100), sample_count=10)


CASES = {     # (call, class, what the message says)
    "gaussian-not-symmetric": (
        lambda: Gaussian(cov=[[1.0, 0.5], [0.0, 1.0]]),
        NotPositiveDefiniteResult, "symmetric"),
    "gaussian-not-positive-definite": (
        lambda: Gaussian(cov=[[1.0, 2.0], [2.0, 1.0]]),
        NotPositiveDefiniteResult, "positive definite"),
    "mixture-weight-not-positive": (
        lambda: DeltaMixture(points=[[-0.5], [0.5]], weights=[1.0, 0.0]),
        Unnormalized, "positive"),
    "mixture-weights-not-normalized": (
        lambda: DeltaMixture(points=[[-0.5], [0.5]], weights=[0.5, 0.4]),
        Unnormalized, "sum to 1"),
    "susceptibility-at-a-critical-point": (
        lambda: susceptibility_matrix(make_cw(1.0, 0.0), [0.0]),
        SingularSystem, "singular"),
    "covariance-at-a-minimum": (
        lambda: covariance_tilde(make_cw(1.2, 0.0), [0.0], _k1_at_zero()),
        NotPositiveDefiniteResult, "curvature is not positive definite"),
    "density-at-a-point-of-the-wrong-dimension": (
        lambda: law_density(Gaussian(cov=np.eye(2)), [0.0]),
        DimensionMismatch, "dimension 2"),
    "cdf-of-a-two-dimensional-law": (
        lambda: law_cdf_1d(Gaussian(cov=np.eye(2)), 0.0),
        DimensionMismatch, "one-dimensional"),
    "measure-weight-not-positive": (
        lambda: FiniteMeasure(atoms=((-1.0, 1.5), (1.0, -0.5))),
        DegenerateMeasure, "positive"),
    "sizes-of-the-wrong-length": (
        lambda: make_ref2().check_sizes([20]),
        DimensionMismatch, "expected 2 species sizes"),
    "ball-center-of-the-wrong-length": (
        lambda: invert_conditioned(_samples([[2], [4]], [10]), [0.1, 0.2], 0.5, [1.0]),
        DimensionMismatch, "one entry per species"),
    "model-shapes": (
        lambda: validate_model(ModelSpec(n=2, alpha=(1.0,), J=((1.0,),), h=(0.0,))),
        DimensionMismatch, "shape"),
    "unvalidated-model": (
        lambda: hamiltonian_density(ModelSpec(n=1, alpha=(1.0,), J=((1.0,),), h=(0.0,)),
                                    [0.5]),
        TypeError, "ValidatedModel"),
    "model-document-not-an-object": (
        lambda: model_from_dict([REF2_DOC]),
        ConfigParse, "JSON object"),
    "measure-not-an-object": (
        lambda: model_from_dict({**REF2_DOC, "measure": [[-1, 0.5], [1, 0.5]]}),
        ConfigParse, "must be an object"),
    "measure-atom-not-a-pair": (
        lambda: model_from_dict({**REF2_DOC, "measure": {"atoms": [[-1, 0.5], [1]]}}),
        ConfigParse, "pairs"),
    "alpha-not-a-list": (
        lambda: model_from_dict({**REF2_DOC, "alpha": 0.5}),
        ConfigParse, "must be a list"),
    "sample-rows-of-the-wrong-width": (
        lambda: estimate_moments(_samples([[2, 0], [4, 2]], [10])),
        InconsistentRows, "species count"),
    "two-species-moments-to-invert-cw": (
        lambda: invert_cw(_moments([0.1, 0.2])),
        DimensionMismatch, "n=1"),
    "alpha-of-the-wrong-shape": (
        lambda: invert_multi(_moments([0.1, 0.2]), [1.0]),
        DimensionMismatch, "one entry per species"),
}


@pytest.mark.parametrize("call, error, match", CASES.values(), ids=CASES.keys())
def test_a_bad_input_raises_its_typed_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_a_form_of_odd_degree_is_not_definite():
    assert HomogeneousForm(3, (-1.0,), ((1.0,),)).definiteness_fault(1) == \
        "form degree 3 is not even"


# numpy's untyped ValueError (a matmul or broadcast fault) came out of each of these
WRONG_ROWS = {"three-entries": [0.1, 0.2, 0.3], "three-axes": np.zeros((2, 2, 2))}


@pytest.mark.parametrize("x", WRONG_ROWS.values(), ids=WRONG_ROWS.keys())
def test_the_map_refuses_x_that_is_neither_a_point_nor_rows(x):
    with pytest.raises(DimensionMismatch, match="a point or rows of 2 entries"):
        mean_field_map(make_ref2(), x)


@pytest.mark.parametrize("x", WRONG_ROWS.values(), ids=WRONG_ROWS.keys())
def test_f_refuses_x_that_is_neither_a_point_nor_rows(x):
    with pytest.raises(DimensionMismatch, match="a point or rows of 2 entries"):
        functional_f(make_ref2(), x)


NON_FINITE_X = {"nan-point": [np.nan, 0.0], "inf-point": [0.0, np.inf],
                "nan-in-a-row": [[0.1, 0.2], [np.nan, 0.0]],
                "inf-in-a-row": [[0.1, 0.2], [0.0, -np.inf]]}


@pytest.mark.parametrize("function", [mean_field_map, functional_f], ids=["map", "f"])
@pytest.mark.parametrize("x", NON_FINITE_X.values(), ids=NON_FINITE_X.keys())
def test_the_map_and_f_refuse_a_non_finite_x(function, x):
    # the map returned nan (or tanh's +-1 at inf); f warned and returned nan
    with pytest.raises(DomainError, match="x must be finite"):
        function(make_ref2(), x)


def test_a_ragged_coupling_matrix_is_a_dimension_mismatch():
    # numpy's untyped ValueError came out of the conversion of J
    with pytest.raises(DimensionMismatch, match="J shape"):
        validate_model(ModelSpec(n=2, alpha=(0.5, 0.5), J=((1.0,), (1.0, 2.0)), h=(0.0, 0.0)))


def test_the_row_rule_refuses_a_sum_of_the_int64_minimum():
    # np.abs of -2^63 is -2^63, which passed |S| <= N
    rows = [[2], [np.iinfo(np.int64).min], [4]]
    with pytest.raises(InconsistentRows, match="exceed the block sizes"):
        _samples(rows, [40]).check_rows()


@pytest.mark.parametrize("x, error", [([0.1, 0.2, 0.3], DimensionMismatch),
                                      ([np.nan, 0.0], DomainError)],
                         ids=["wrong-length", "nan"])
def test_classification_checks_the_point(x, error):
    # a nan point raised UnsupportedDegeneracy ("all even terms ... vanish"), the wrong fault
    point = StationaryPoint(x=np.array(x), residual=0.0, f_value=0.0, fbar_value=0.0)
    with pytest.raises(error, match="point"):
        classify_maximum(make_ref2(), point)


@pytest.mark.parametrize("v", [[1.0, 0.0, 0.0], np.ones((4, 3)), 1.0],
                         ids=["three-entries", "rows-of-three", "scalar"])
def test_a_form_refuses_v_whose_last_axis_is_not_the_rays_length(v):
    form = HomogeneousForm(4, (-1.0, -1.0), ((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(DimensionMismatch, match="rays' length"):
        form(v)


@pytest.mark.parametrize("grid", [1.2, [[0.5, 1.0]]], ids=["scalar", "two-axes"])
def test_the_phase_scan_refuses_a_grid_that_is_not_one_dimensional(grid):
    with pytest.raises(DimensionMismatch, match="one-dimensional"):
        cw_phase_scan(grid, 0.0)


@pytest.mark.parametrize("text, error, match",
                         [(None, IoError, "cannot read"),
                          ("# n=one\n# N=[10]\n# seed=0\n2\n", ConfigParse,
                           "bad sample metadata")],
                         ids=["missing-file", "bad-metadata"])
def test_a_bad_sample_file_raises_its_typed_error(tmp_path, text, error, match):
    path = tmp_path / "samples.csv"
    if text is not None:
        path.write_text("# meanfield-lab samples v1\n" + text)
    with pytest.raises(error, match=match):
        read_samples_csv(str(path))


def test_an_unexpected_exception_exits_5(tmp_path, capsys, monkeypatch):
    def broken(args, doc):
        raise RuntimeError("not a library error")

    monkeypatch.setitem(cli._COMMANDS, "solve", broken)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model": REF2_DOC}))
    assert cli.main(["solve", "--config", str(config)]) == 5
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["exit_code"]) == ("RuntimeError", 5)
