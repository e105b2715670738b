import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from meanfield_lab import (
    DeltaMixture,
    FiniteMeasure,
    Gaussian,
    HigherOrder,
    HomogeneousForm,
    ModelSpec,
    build_limit_law,
    classify_maximum,
    covariance_tilde,
    ks_distance,
    law_cdf_1d,
    law_density,
    law_from_dict,
    law_to_dict,
    normalized_sum_law,
    pressure_limit,
    StationaryPoint,
    solve_fixed_points,
    susceptibility_cw,
    susceptibility_matrix,
    validate_model,
)
from meanfield_lab.errors import (
    DegenerateMaximum,
    DimensionMismatch,
    DomainError,
    EmptySample,
    MixedTypes,
    NonFiniteParameter,
    NonUniqueMaximum,
    NotK1,
    NotPositiveDefiniteResult,
    Unnormalized,
)
from meanfield_lab import limits
from meanfield_lab.limits import _log_form_integral, _log_weight

from conftest import CHI_J12, MU0_J12, make_cw, make_ref2


def solve_mu(model):
    res = pressure_limit(model)
    assert len(res.maxima) == 1
    return res.maxima[0]


# --- scalar susceptibility ----------------------------------------------------


def test_susceptibility_cw_values():
    assert susceptibility_cw(0.0, 0.0, 0.0) == pytest.approx(1.0)
    assert susceptibility_cw(0.5, 0.0, 0.0) == pytest.approx(2.0)
    assert susceptibility_cw(1.2, 0.0, MU0_J12) == pytest.approx(CHI_J12, abs=1e-12)


def test_susceptibility_cw_degenerate():
    with pytest.raises(DegenerateMaximum):
        susceptibility_cw(1.0, 0.0, 0.0)


@pytest.mark.parametrize("J, h", [(math.nan, 0.0), (-math.inf, 0.0), (math.inf, 0.0),
                                  (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf)])
def test_susceptibility_cw_refuses_non_finite_coupling_or_field(J, h):
    # the formula gives nan at J = nan and 0.0 at J = -inf: neither is an answer
    with pytest.raises(NonFiniteParameter):
        susceptibility_cw(J, h, 0.5)


def test_susceptibility_divergence_rate():
    # chi ~ (1 - J)^-1 as J -> 1 at zero field
    chi = susceptibility_cw(0.999, 0.0, 0.0)
    assert abs(chi * (1.0 - 0.999) - 1.0) < 0.01


# --- susceptibility matrix ----------------------------------------------------


def test_susceptibility_matrix_nearly_decoupled():
    model = validate_model(ModelSpec(n=2, alpha=(0.5, 0.5),
                                     J=((1e-12, 0.0), (0.0, 1e-12)),
                                     h=(0.3, -0.2)))
    mu = np.array([math.tanh(0.3), math.tanh(-0.2)])
    chi = susceptibility_matrix(model, mu)
    P = np.diag(1.0 - mu ** 2)
    assert np.max(np.abs(chi - P)) < 1e-9


def test_susceptibility_matrix_scalar_reduction():
    model = make_cw(0.8, 0.3)
    mu = solve_mu(model).point.x
    chi = susceptibility_matrix(model, mu)
    assert chi[0, 0] == pytest.approx(
        susceptibility_cw(0.8, 0.3, mu[0]), abs=1e-12)


def test_susceptibility_matrix_matches_finite_differences():
    from conftest import susceptibility_finite_differences

    model = make_ref2()
    mu = solve_mu(model).point.x
    chi = susceptibility_matrix(model, mu)
    fd = susceptibility_finite_differences(model)
    assert np.max(np.abs(chi - fd) / np.abs(chi)) < 1e-5


def test_susceptibility_matrix_fixed_point_relation():
    model = make_ref2()
    mu = solve_mu(model).point.x
    chi = susceptibility_matrix(model, mu)
    P = np.diag(1.0 - mu ** 2)
    residual = chi - P @ (np.eye(2) + model.J @ np.diag(model.alpha) @ chi)
    assert np.max(np.abs(residual)) <= 1e-10


def test_susceptibility_matrix_weighted_reciprocity():
    model = validate_model(ModelSpec(n=2, alpha=(0.3, 0.7),
                                     J=((1.4, -0.6), (-0.6, 1.1)),
                                     h=(0.25, 0.1)))
    mu = solve_mu(model).point.x
    chi = susceptibility_matrix(model, mu)
    weighted = np.diag(model.alpha) @ chi
    assert np.max(np.abs(weighted - weighted.T)) <= 1e-9


# --- covariance of the rescaled sums ------------------------------------------


def test_covariance_tilde_scalar_equals_chi():
    model = make_cw(0.8, 0.3)
    cls = solve_mu(model)
    cov = covariance_tilde(model, cls.point.x, cls)
    chi = susceptibility_cw(0.8, 0.3, cls.point.x[0])
    assert cov[0, 0] == pytest.approx(chi, abs=1e-12)


def test_covariance_tilde_matches_susceptibility_entries():
    for model in [make_ref2(),
                  validate_model(ModelSpec(n=2, alpha=(0.3, 0.7),
                                           J=((1.4, -0.6), (-0.6, 1.1)),
                                           h=(0.25, 0.1)))]:
        cls = solve_mu(model)
        cov = covariance_tilde(model, cls.point.x, cls)
        chi = susceptibility_matrix(model, cls.point.x)
        assert np.max(np.abs(np.diag(cov) - np.diag(chi))) <= 1e-9
        cross = chi[0, 1] * chi[1, 0]
        assert cross >= 0
        assert abs(abs(cov[0, 1]) - math.sqrt(cross)) <= 1e-9
        eigs = np.linalg.eigvalsh(cov)
        assert np.all(eigs > 0)


def test_covariance_tilde_identity_on_grid():
    # (-lambda)^-1 - J^-1 equals the closed-form susceptibility
    for J in np.arange(0.2, 0.95, 0.1):
        for h in np.arange(-1.0, 1.01, 0.25):
            model = make_cw(J, h)
            cls = solve_mu(model)
            lam = cls.strength
            identity = 1.0 / (-lam) - 1.0 / J
            chi = susceptibility_cw(J, h, cls.point.x[0])
            assert identity == pytest.approx(chi, abs=1e-10)


def test_covariance_tilde_requires_k1():
    model = make_cw(1.0, 0.0)
    cls = classify_maximum(model, solve_fixed_points(model)[0])
    with pytest.raises(NotK1):
        covariance_tilde(model, cls.point.x, cls)


# --- limit law construction -----------------------------------------------------


def test_critical_law_is_quartic_exponential():
    model = make_cw(1.0, 0.0)
    cls = classify_maximum(model, solve_fixed_points(model)[0])
    law = build_limit_law(model, cls)
    assert isinstance(law, HigherOrder) and law.k == 2
    # density proportional to exp(-x^4 / 12)
    for x in [0.0, 0.5, 1.3]:
        assert law.form(np.array([x])) == pytest.approx(-x ** 4 / 12.0, abs=1e-9)
    # normalizer against the closed form 12^(1/4) Gamma(1/4) / 2
    closed = math.log(12.0 ** 0.25 * math.gamma(0.25) / 2.0)
    assert law.log_normalizer == pytest.approx(closed, abs=1e-10)


def test_delta_mixture_above_critical_coupling():
    law = build_limit_law(make_cw(1.2, 0.0))
    assert isinstance(law, DeltaMixture)
    assert law.points[:, 0] == pytest.approx([-MU0_J12, MU0_J12], abs=1e-9)
    assert law.weights == pytest.approx([0.5, 0.5], abs=1e-12)


def test_delta_mixture_unique_maximum():
    law = build_limit_law(make_cw(1.2, 0.1))
    assert isinstance(law, DeltaMixture)
    assert law.weights == pytest.approx([1.0])


def test_gaussian_law_with_field():
    model = make_cw(1.2, 0.1)
    cls = solve_mu(model)
    law = build_limit_law(model, cls)
    assert isinstance(law, Gaussian)
    chi = susceptibility_cw(1.2, 0.1, cls.point.x[0])
    assert law.cov[0, 0] == pytest.approx(chi, abs=1e-10)


def test_sum_law_requires_unique_maximum():
    model = make_cw(1.2, 0.0)
    pts = solve_fixed_points(model)
    cls = classify_maximum(model, pts[-1])
    with pytest.raises(NonUniqueMaximum):
        build_limit_law(model, cls)
    law = build_limit_law(model, cls, conditioned=True)
    assert isinstance(law, Gaussian)
    assert law.cov[0, 0] == pytest.approx(CHI_J12, abs=1e-9)


# --- degenerate normalisers ---------------------------------------------------


def make_decoupled_critical(n):
    """n species at alpha = 1/n, J = n I, h = 0: one type-2 maximum at 0."""
    J = tuple(tuple(float(n) if i == j else 0.0 for j in range(n)) for i in range(n))
    return validate_model(ModelSpec(n=n, alpha=(1.0 / n,) * n, J=J, h=(0.0,) * n))


def log_quartic_product(coeffs):
    """ln of the product over l of the integral of exp(c_l x^4), by Gamma."""
    return sum(math.lgamma(0.25) - math.log(2.0) - 0.25 * math.log(-c) for c in coeffs)


def test_crit2_normaliser_matches_product_closed_form():
    model = make_decoupled_critical(2)
    cls = solve_mu(model)
    law = build_limit_law(model, cls)
    assert isinstance(law, HigherOrder) and law.dim == 2
    assert law.log_normalizer == pytest.approx(2.4322040131702645, rel=1e-12)


def test_three_species_normaliser_is_the_sum_over_axes():
    model = make_decoupled_critical(3)
    cls = solve_mu(model)
    law = build_limit_law(model, cls)
    axes = [float(law.form(e)) for e in np.eye(3)]
    assert law.log_normalizer == pytest.approx(log_quartic_product(axes), rel=1e-12)


@pytest.mark.parametrize("A", [
    [[1.0, 0.4], [-0.3, 1.2]],
    [[1.0, 0.3, -0.2], [0.1, 0.8, 0.4], [-0.5, 0.2, 1.3]],
])
def test_normaliser_of_a_coupled_form_follows_the_linear_map(A):
    # Q(A x) for a decoupled Q integrates to Z / |det A|
    A = np.array(A)
    coeffs = (-1.0 / 12.0, -0.3, -0.05)[:len(A)]
    coupled = HomogeneousForm(4, coeffs, tuple(tuple(r) for r in np.eye(len(A)) @ A))
    want = log_quartic_product(coeffs) - math.log(abs(np.linalg.det(A)))
    assert _log_form_integral(coupled, len(A)) == pytest.approx(want, rel=1e-12)


def test_normaliser_refuses_a_form_positive_somewhere():
    form = HomogeneousForm(4, (-1.0, 0.5), ((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(NotPositiveDefiniteResult):
        _log_form_integral(form, 2)


def test_type_three_normaliser_matches_the_closed_form():
    # weights (1/6, 2/3, 1/6) at J = 3, x = 0: exp(-0.225 x^6), whose integral
    # is 2 Gamma(7/6) / 0.225^(1/6)
    meas = FiniteMeasure(atoms=((-1.0, 1.0 / 6.0), (0.0, 2.0 / 3.0), (1.0, 1.0 / 6.0)))
    model = make_cw(3.0, 0.0, measure=meas)
    point = StationaryPoint(x=np.zeros(1), residual=0.0, f_value=math.nan,
                            fbar_value=None)
    law = build_limit_law(model, classify_maximum(model, point), conditioned=True)
    assert isinstance(law, HigherOrder) and law.k == 3
    assert law.log_normalizer == pytest.approx(0.8667302925397505, abs=1e-14)
    closed = math.log(2.0 * math.gamma(7.0 / 6.0)) - math.log(0.225) / 6.0
    assert closed == pytest.approx(0.8667302925397505, abs=1e-15)


def test_normaliser_and_mixture_weight_are_one_number():
    model = make_cw(1.0, 0.0)
    cls = classify_maximum(model, solve_fixed_points(model)[0])
    law = build_limit_law(model, cls)
    assert law.log_normalizer == _log_weight(model, cls)
    assert law.log_normalizer == 1.2161020065851322


@pytest.mark.parametrize("n", [4, 5])
def test_normaliser_of_a_coupled_form_follows_the_linear_map_at_four_and_five(n):
    rng = np.random.Generator(np.random.PCG64(2024))
    A = np.eye(n) + 0.4 * rng.standard_normal((n, n))
    coeffs = (-1.0 / 12.0, -0.3, -0.05, -0.2, -0.7)[:n]
    coupled = HomogeneousForm(4, coeffs, tuple(tuple(r) for r in A))
    want = log_quartic_product(coeffs) - math.log(abs(np.linalg.det(A)))
    assert _log_form_integral(coupled, n) == pytest.approx(want, rel=1e-12)


def test_normaliser_refuses_a_form_that_vanishes_on_a_line_at_once():
    form = HomogeneousForm(4, (-1.0,), ((1.0, 0.0),))      # -x^4 on R^2
    start = time.perf_counter()
    with pytest.raises(NotPositiveDefiniteResult):
        _log_form_integral(form, 2)
    assert time.perf_counter() - start < 0.01


def test_normaliser_refuses_dependent_rays():
    form = HomogeneousForm(4, (-1.0, -2.0), ((1.0, 2.0), (-0.5, -1.0)))
    with pytest.raises(NotPositiveDefiniteResult):
        _log_form_integral(form, 2)


# --- one solve per law -----------------------------------------------------------


def _no_solve(*args, **kwargs):
    raise AssertionError("the solver ran again")


@pytest.mark.parametrize("model_fn", [make_ref2, lambda: make_cw(1.0, 0.0),
                                      lambda: make_decoupled_critical(2)],
                         ids=["ref2", "cw10", "crit2"])
def test_a_carried_classification_builds_its_law_without_a_solve(model_fn, monkeypatch):
    model = model_fn()
    cls = pressure_limit(model).maxima[0]
    # a hand-made classification of the same point is checked by a fresh _global_maxima
    want = law_to_dict(build_limit_law(model, classify_maximum(model, cls.point)))
    monkeypatch.setattr("meanfield_lab.solver.solve_fixed_points", _no_solve)
    assert law_to_dict(build_limit_law(model, cls)) == want


def test_a_carried_classification_of_two_global_maxima_is_refused_without_a_solve(
        monkeypatch):
    model = make_cw(1.2, 0.0)
    cls = pressure_limit(model).maxima[-1]
    monkeypatch.setattr("meanfield_lab.solver.solve_fixed_points", _no_solve)
    with pytest.raises(NonUniqueMaximum):
        build_limit_law(model, cls)


@pytest.mark.parametrize("model_fn", [lambda: make_cw(1.2, 0.0),
                                      lambda: make_decoupled_critical(2)],
                         ids=["cw12", "crit2"])
def test_the_mixture_skips_the_direct_route(model_fn, monkeypatch):
    model = model_fn()
    want = build_limit_law(model)
    monkeypatch.setattr("meanfield_lab.solver._max_f_direct", _no_solve)
    with pytest.raises(AssertionError):
        pressure_limit(model)            # the patch is live where the route runs
    got = build_limit_law(model)
    assert got.points.tobytes() == want.points.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


def test_a_hand_made_classification_skips_the_direct_route(ref2, monkeypatch):
    cls = replace(pressure_limit(ref2).maxima[0], global_types=None)
    want = build_limit_law(ref2, cls)
    monkeypatch.setattr("meanfield_lab.solver._max_f_direct", _no_solve)
    with pytest.raises(AssertionError):
        pressure_limit(ref2)             # the patch is live where the route runs
    assert build_limit_law(ref2, cls).cov.tobytes() == want.cov.tobytes()


def test_carried_types_of_mixed_kinds_are_refused_without_a_solve(monkeypatch):
    model = make_cw(1.0, 0.0)
    cls = replace(pressure_limit(model).maxima[0], global_types=(1, 2))
    monkeypatch.setattr("meanfield_lab.solver.solve_fixed_points", _no_solve)
    with pytest.raises(MixedTypes):
        build_limit_law(model, cls)


def test_a_conditioned_degenerate_classification_without_a_form_is_refused():
    model = make_cw(1.0, 0.0)
    cls = replace(pressure_limit(model).maxima[0], quartic_form=None)
    assert cls.k == 2
    with pytest.raises(MixedTypes):
        build_limit_law(model, cls, conditioned=True)


def test_only_the_maxima_of_pressure_limit_are_global():
    model = make_cw(1.2, 0.0)
    maxima = pressure_limit(model).maxima
    assert [c.is_global for c in maxima] == [True, True]
    assert [c.global_types for c in maxima] == [(1, 1), (1, 1)]
    assert not classify_maximum(model, maxima[0].point).is_global


def test_solver_and_limits_draw_no_random_numbers():
    import meanfield_lab.limits as limits_module
    import meanfield_lab.solver as solver_module
    for module in (solver_module, limits_module):
        source = Path(module.__file__).read_text()
        for name in ("np.random", "PCG64", "default_rng"):
            assert name not in source, (module.__name__, name)


TWO_RAYS = [[-0.25, [1.0, 0.0]], [-0.5, [0.3, 1.0]]]
QUARTIC_LAW = {"kind": "higher_order", "k": 2,
               "coeffs": {"degree": 4, "terms": TWO_RAYS}, "log_normalizer": 1.5}


def law_doc(**changes):
    """QUARTIC_LAW with keys replaced (``degree`` and ``terms`` inside
    ``coeffs``), or removed where the new value is None."""
    doc = {**QUARTIC_LAW, "coeffs": dict(QUARTIC_LAW["coeffs"])}
    for key, value in changes.items():
        target = doc["coeffs"] if key in ("degree", "terms") else doc
        if value is None:
            del target[key]
        else:
            target[key] = value
    return doc


def test_law_from_dict_reads_a_two_ray_quartic_law():
    law = law_from_dict(law_doc())
    assert isinstance(law, HigherOrder) and law.dim == 2
    assert law_to_dict(law) == QUARTIC_LAW


@pytest.mark.parametrize("doc", [
    law_doc(terms=[]),
    law_doc(terms=[[-0.25, [1.0, 0.0]], [-0.5, [1.0]]]),
    law_doc(terms=[[-0.25, [1.0, 0.0], 3.0]]),
    law_doc(terms=[[-0.25, [1.0, "x"]]]),
    law_doc(terms=None),
    law_doc(coeffs=None),
    law_doc(k=None),
    law_doc(log_normalizer=None),
    law_doc(degree=6),
    law_doc(k=1, degree=2),
    {"kind": "gaussian"},
    {"kind": "gaussian", "cov": [[1.0, 0.0], [0.0]]},
    {"kind": "delta_mixture", "points": [[0.0]]},
    {"kind": "cauchy"},
])
def test_law_from_dict_refuses_shape_and_key_faults(doc):
    with pytest.raises(DimensionMismatch):
        law_from_dict(doc)


@pytest.mark.parametrize("terms", [
    [[-0.25, [1.0, 0.0]], [-0.5, [math.nan, 1.0]]],
    [[-0.25, [1.0, 0.0]], [math.inf, [0.0, 1.0]]],
    [[-0.25, [1.0, 0.0]], [0.5, [0.0, 1.0]]],
    [[-0.25, [1.0, 0.0]], [-0.5, [2.0, 0.0]]],
    [[-0.25, [1.0, 0.0]]],
    TWO_RAYS + [[-1.0, [1.0, 1.0]]],
])
def test_law_from_dict_refuses_forms_that_fail_the_ray_certificate(terms):
    with pytest.raises(NotPositiveDefiniteResult):
        law_from_dict(law_doc(terms=terms))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_law_from_dict_refuses_a_non_finite_log_normalizer(value):
    with pytest.raises(Unnormalized):
        law_from_dict(law_doc(log_normalizer=value))


@pytest.mark.parametrize("cov", [[[math.inf]], [[math.nan]],
                                 [[1.0, math.nan], [math.nan, 1.0]]])
def test_law_from_dict_refuses_a_non_finite_covariance(cov):
    with pytest.raises(NotPositiveDefiniteResult):
        law_from_dict({"kind": "gaussian", "cov": cov})


@pytest.mark.parametrize("points", [
    [[math.nan], [0.5]],
    [[-0.5], [math.inf]],
    [-0.5, 0.5],
    [[], []],
    [[-0.5], [0.0], [0.5]],
    [[[-0.5]], [[0.5]]],
])
def test_law_from_dict_refuses_misshaped_or_non_finite_mixture_points(points):
    with pytest.raises(DimensionMismatch):
        law_from_dict({"kind": "delta_mixture", "points": points,
                       "weights": [0.5, 0.5]})


@pytest.mark.parametrize("weights", [[math.nan, 0.5], [0.5, math.inf],
                                     [math.nan, math.nan]])
def test_law_from_dict_refuses_non_finite_mixture_weights(weights):
    with pytest.raises(Unnormalized):
        law_from_dict({"kind": "delta_mixture", "points": [[-0.5], [0.5]],
                       "weights": weights})


# --- evaluation -------------------------------------------------------------------


def test_gaussian_density_at_origin():
    law = Gaussian(cov=np.array([[1.0]]))
    assert law_density(law, [0.0]) == pytest.approx(1.0 / math.sqrt(2 * math.pi))


def test_higher_order_density_symmetric():
    model = make_cw(1.0, 0.0)
    cls = classify_maximum(model, solve_fixed_points(model)[0])
    law = build_limit_law(model, cls)
    for x in [0.3, 1.1, 2.7]:
        assert law_density(law, [x]) == pytest.approx(law_density(law, [-x]),
                                                      abs=1e-12)


def test_mixture_point_mass():
    law = DeltaMixture(points=np.array([[-0.5], [0.5]]),
                       weights=np.array([0.5, 0.5]))
    assert law_density(law, [0.5]) == pytest.approx(0.5)
    assert law_density(law, [0.1]) == 0.0
    assert law_cdf_1d(law, 0.0) == pytest.approx(0.5)


def test_gaussian_cdf_matches_ndtr():
    law = Gaussian(cov=np.array([[4.0]]))
    xs = np.linspace(-5, 5, 11)
    assert law_cdf_1d(law, xs) == pytest.approx(ndtr(xs / 2.0))


def test_higher_order_cdf_matches_quadrature():
    model = make_cw(1.0, 0.0)
    cls = classify_maximum(model, solve_fixed_points(model)[0])
    law = build_limit_law(model, cls)
    Z = math.exp(law.log_normalizer)
    for x in [-1.5, -0.2, 0.0, 0.4, 2.0]:
        oracle, _ = integrate.quad(
            lambda t: math.exp(-t ** 4 / 12.0) / Z, -np.inf, x)
        assert law_cdf_1d(law, x) == pytest.approx(oracle, abs=1e-10)


def test_ks_distance_self_is_zero():
    law = Gaussian(cov=np.array([[1.5]]))
    assert ks_distance(law, law) == 0.0


def test_ks_distance_detects_scale_mismatch():
    a = Gaussian(cov=np.array([[1.0]]))
    b = Gaussian(cov=np.array([[2.0]]))
    assert ks_distance(a, b) > 0.05


def test_ks_distance_dimension_guard():
    g2 = Gaussian(cov=np.eye(2))
    with pytest.raises(DimensionMismatch):
        ks_distance(np.array([0.0, 1.0]), g2)


def test_ks_distance_refuses_a_two_dimensional_observation():
    law = Gaussian(cov=np.array([[1.0]]))
    with pytest.raises(DimensionMismatch):
        ks_distance(Gaussian(cov=np.eye(2)), law)
    with pytest.raises(DimensionMismatch):
        ks_distance(normalized_sum_law(make_ref2(), [10, 10], [0.0, 0.0], k=1), law)


def test_ks_distance_refuses_an_empty_sample():
    with pytest.raises(EmptySample):
        ks_distance(np.array([]), Gaussian(cov=np.array([[1.0]])))


def test_ks_distance_refuses_nan_samples():
    law = Gaussian(cov=np.array([[1.0]]))
    with pytest.raises(DomainError):
        ks_distance(np.array([0.0, math.nan]), law)
    assert ks_distance(np.array([math.inf, 0.0]), law) == 0.5


@pytest.mark.parametrize("mu", [1.5, -1.5, math.nan, math.inf])
def test_susceptibility_cw_refuses_mu_outside_the_cube(mu):
    # mu = 1.5 at J = 0.5 returned -0.769
    with pytest.raises(DomainError):
        susceptibility_cw(0.5, 0.0, mu)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_susceptibility_matrix_refuses_a_non_finite_point(bad):
    # nan raised numpy's LinAlgError "SVD did not converge"
    with pytest.raises(DomainError):
        susceptibility_matrix(make_ref2(), [bad, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_covariance_tilde_refuses_a_non_finite_point(bad):
    # nan gave an all-nan covariance and inf the zero matrix
    model = make_ref2()
    cls = pressure_limit(model).maxima[0]
    with pytest.raises(DomainError):
        covariance_tilde(model, [bad, 0.0], cls)
    with pytest.raises(DimensionMismatch):
        covariance_tilde(model, [0.0], cls)


# --- serialization ----------------------------------------------------------------


@pytest.mark.parametrize("law_fn", [
    lambda: Gaussian(cov=np.array([[2.0, 0.3], [0.3, 1.0]])),
    lambda: build_limit_law(make_cw(1.0, 0.0),
                            classify_maximum(make_cw(1.0, 0.0),
                                             solve_fixed_points(make_cw(1.0, 0.0))[0])),
    lambda: build_limit_law(make_cw(1.2, 0.0)),
])
def test_law_serialization_roundtrip(law_fn):
    law = law_fn()
    again = law_from_dict(law_to_dict(law))
    assert type(again) is type(law)
    if isinstance(law, Gaussian):
        assert np.array_equal(again.cov, law.cov)
    elif isinstance(law, HigherOrder):
        assert again.log_normalizer == law.log_normalizer
        x = np.array([0.7] * again.dim)
        assert again.form(x) == law.form(x)
    else:
        assert np.array_equal(again.points, law.points)
        assert np.array_equal(again.weights, law.weights)


def test_gaussian_refuses_an_empty_covariance():
    with pytest.raises(DimensionMismatch):
        Gaussian(cov=np.zeros((0, 0)))


def test_gaussian_owns_its_covariance():
    cov = np.array([[2.0]])
    law = Gaussian(cov=cov)
    assert cov.flags.writeable and not law.cov.flags.writeable
    cov[0, 0] = 5.0
    assert law.cov[0, 0] == 2.0
    from_list = Gaussian(cov=[[2.0]])
    assert law_to_dict(from_list) == {"kind": "gaussian", "cov": [[2.0]]}
    assert law_cdf_1d(from_list, 0.0) == 0.5


def test_delta_mixture_owns_its_arrays():
    points, weights = np.array([[-0.5], [0.5]]), np.array([0.25, 0.75])
    law = DeltaMixture(points=points, weights=weights)
    assert points.flags.writeable and weights.flags.writeable
    assert not (law.points.flags.writeable or law.weights.flags.writeable)
    weights[0] = 0.5
    assert law.weights.tolist() == [0.25, 0.75]
    from_lists = DeltaMixture(points=[[-0.5], [0.5]], weights=[0.25, 0.75])
    assert law_to_dict(from_lists) == {"kind": "delta_mixture",
                                       "points": [[-0.5], [0.5]],
                                       "weights": [0.25, 0.75]}


# --- finite-size agreement ----------------------------------------------------------


@pytest.mark.parametrize("model_fn,sizes", [
    (lambda: make_cw(0.5, 0.0), [2000]),
    (lambda: make_cw(0.8, 0.3), [2000]),
    (make_ref2, [1000, 1000]),
])
def test_finite_size_variance_agreement(model_fn, sizes):
    model = model_fn()
    cls = solve_mu(model)
    law = build_limit_law(model, cls)
    assert isinstance(law, Gaussian)
    exact = normalized_sum_law(model, sizes, cls.point.x, k=1)
    rel = np.abs(exact.cov() - law.cov) / np.abs(law.cov)
    assert np.max(rel) < 0.05


def test_two_species_conditioned_covariance():
    # coexisting vector maxima at zero field: conditioning near one of
    # them makes the rescaled sums Gaussian with the response covariance
    model = validate_model(ModelSpec(n=2, alpha=(0.5, 0.5),
                                     J=((2.0, 0.4), (0.4, 2.0)),
                                     h=(0.0, 0.0)))
    res = pressure_limit(model)
    assert len(res.maxima) == 2
    assert all(c.k == 1 for c in res.maxima)

    mixture = build_limit_law(model)
    assert mixture.weights == pytest.approx([0.5, 0.5], abs=1e-12)
    # the diagonal decouples: mu* solves the J_eff = 1.2 scalar problem
    plus = [c for c in res.maxima if c.point.x[0] > 0][0]
    assert plus.point.x == pytest.approx([MU0_J12, MU0_J12], abs=1e-10)

    cov = covariance_tilde(model, plus.point.x, plus)
    law = build_limit_law(model, plus, conditioned=True)
    assert np.max(np.abs(law.cov - cov)) <= 1e-12
    exact = normalized_sum_law(model, [1500, 1500], plus.point.x, k=1,
                               condition_ball=0.25)
    rel = np.max(np.abs(exact.cov() - cov) / np.abs(cov))
    assert rel < 0.05


def test_ks_distance_empirical_samples_path():
    rng = np.random.default_rng(0)
    law = Gaussian(cov=np.array([[1.0]]))
    close = ks_distance(rng.standard_normal(20_000), law)
    assert close < 0.02
    far = ks_distance(2.0 * rng.standard_normal(20_000), law)
    assert far > 0.1


def test_higher_order_cdf_limits():
    model = make_cw(1.0, 0.0)
    cls = classify_maximum(model, solve_fixed_points(model)[0])
    law = build_limit_law(model, cls)
    assert law_cdf_1d(law, -50.0) == pytest.approx(0.0, abs=1e-14)
    assert law_cdf_1d(law, 0.0) == pytest.approx(0.5, abs=1e-14)
    assert law_cdf_1d(law, 50.0) == pytest.approx(1.0, abs=1e-14)


# --- one curvature for every quadratic maximum -------------------------------------


def test_covariance_is_the_rescaled_susceptibility():
    model = make_ref2()
    cls = solve_mu(model)
    d = np.sqrt(model.alpha)
    cov = covariance_tilde(model, cls.point.x, cls)
    want = d[:, None] * susceptibility_matrix(model, cls.point.x) / d[None, :]
    assert np.max(np.abs(cov - want) / np.abs(cov)) <= 1e-14


def test_covariance_is_evaluated_at_the_given_mu():
    model = make_ref2()
    cls = solve_mu(model)
    mu = cls.point.x + np.array([0.01, -0.01])
    d = np.sqrt(model.alpha)
    cov = covariance_tilde(model, mu, cls)
    want = d[:, None] * susceptibility_matrix(model, mu) / d[None, :]
    assert np.max(np.abs(cov - want) / np.abs(cov)) <= 1e-14


def test_covariance_refuses_a_mu_of_the_wrong_length():
    model = make_ref2()
    cls = solve_mu(model)
    with pytest.raises(DimensionMismatch):
        covariance_tilde(model, np.zeros(3), cls)


def test_weak_antiferromagnet_law_matches_the_exact_covariance():
    # D J D has eigenvalues (-0.05, 0.55); the law is still Gaussian
    model = validate_model(ModelSpec(n=2, alpha=(0.5, 0.5), J=((0.5, -0.6), (-0.6, 0.5)),
                                     h=(0.1, 0.0)))
    cls = solve_mu(model)
    law = build_limit_law(model, cls)
    assert isinstance(law, Gaussian)
    exact = normalized_sum_law(model, [2000, 2000], cls.point.x, k=1).cov()
    assert np.max(np.abs(exact - law.cov) / np.abs(law.cov)) < 0.01


def test_ks_distance_between_two_quartic_laws():
    def quartic(a):
        form = HomogeneousForm(4, (-a,), ((1.0,),))
        return HigherOrder(k=2, form=form, log_normalizer=_log_form_integral(form, 1))

    from scipy.special import gammainc

    t = np.geomspace(1e-8, 1e3, 200001)
    oracle = 0.5 * np.max(np.abs(gammainc(0.25, t) - gammainc(0.25, 2.0 * t)))
    assert ks_distance(quartic(1.0 / 12.0), quartic(1.0 / 12.0)) == 0.0
    assert ks_distance(quartic(1.0 / 12.0), quartic(1.0 / 6.0)) == pytest.approx(
        oracle, abs=1e-3)


def test_ks_distance_between_two_mixtures():
    a = DeltaMixture(points=[[-0.5], [0.5]], weights=[0.5, 0.5])
    b = DeltaMixture(points=[[-0.5], [0.5]], weights=[0.3, 0.7])
    assert ks_distance(a, a) == 0.0
    assert ks_distance(a, b) == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("order", [[0, 1, 2], [2, 1, 0]], ids=["ascending", "descending"])
def test_mixture_cdf_is_the_weight_below_each_point(order):
    atoms, weights = np.array([-0.7, 0.1, 0.4])[order], np.array([0.25, 0.45, 0.3])[order]
    law = DeltaMixture(points=atoms[:, None], weights=weights)
    xs = np.array([-1.0, -0.7, -0.3, 0.1, 0.2, 0.4, 0.5, 10.0])
    want = np.array([weights[atoms <= x].sum() for x in xs])
    assert np.array_equal(law_cdf_1d(law, xs), want)
    assert law_cdf_1d(law, xs.reshape(2, 4)).shape == (2, 4)
    assert law_cdf_1d(law, 0.1) == want[3]
    assert math.isnan(law_cdf_1d(law, math.nan))      # as the Gaussian's and quartic's CDFs


@pytest.mark.parametrize("h1", [14.0, 40.0])
def test_strong_field_response_keeps_its_relative_accuracy(h1):
    # var_1 = sech^2(u_1) is ~1e-12 or ~1e-35, so M = diag(1/var) - D J D is
    # badly scaled; the response must still be accurate entry by entry
    model = validate_model(ModelSpec(n=2, alpha=(0.5, 0.5), J=((1.0, 0.5), (0.5, 1.0)),
                                     h=(h1, 0.1)))
    cls = solve_mu(model)
    mu = cls.point.x
    P = np.diag(1.0 / np.cosh(model.J @ (model.alpha * mu) + model.h) ** 2)
    chi = susceptibility_matrix(model, mu)
    residual = chi - P @ (np.eye(2) + model.J @ np.diag(model.alpha) @ chi)
    assert np.all(np.abs(residual) <= 1e-12 * np.abs(chi))
    d = np.sqrt(model.alpha)
    cov = covariance_tilde(model, mu, cls)
    assert np.max(np.abs(cov - d[:, None] * chi / d[None, :]) / np.abs(cov)) <= 1e-14


def test_ks_distance_skips_the_blocks_a_ball_leaves_empty():
    # cw J = 1.2 at [20000]: 5 blocks of 2^12 points, of which the ball keeps none in 3
    model = make_cw(1.2, 0.0)
    plus = max(pressure_limit(model).maxima, key=lambda c: c.point.x[0])
    z = normalized_sum_law(model, [20000], plus.point.x, k=1, condition_ball=0.3)
    assert [len(probs) == 0 for _, probs in z.blocks()] == [True] * 3 + [False] * 2
    law = build_limit_law(model, plus, conditioned=True)
    whole = limits._ks(np.cumsum(z.probs), law_cdf_1d(law, z.points[:, 0]))
    assert ks_distance(z, law) == whole


def test_ks_distance_of_a_point_mass_past_the_largest_grid_is_one():
    # the grid span 10 * 1e308 was inf, so linspace warned and the statistic was nan
    import warnings

    far = DeltaMixture(points=np.array([[1e308]]), weights=np.array([1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ks_distance(far, Gaussian(cov=np.array([[1.0]]))) == 1.0
        assert ks_distance(Gaussian(cov=np.array([[1.0]])), far) == 1.0
