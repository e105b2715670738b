import math

import numpy as np
import pytest

from meanfield_lab import (
    EmpiricalMoments,
    SampleSet,
    empirical_susceptibility,
    estimate_moments,
    exact_moments,
    exact_sample,
    invert_conditioned,
    invert_cw,
    invert_multi,
    mle_fit,
    pressure_limit,
    susceptibility_matrix,
)
from meanfield_lab.errors import (
    BadSizes,
    ConfigParse,
    EmptyCondition,
    EmptySample,
    InconsistentRows,
    MagnetizationSaturated,
    SingularChi,
    ZeroVariance,
)
from meanfield_lab.inverse import _sample_log_likelihood

from conftest import MU0_J12, make_cw, make_ref2

TINY_J = 1e-15


def moments_from_exact(model, sizes, count=10):
    mom = exact_moments(model, sizes)
    return EmpiricalMoments(mean=mom.mean, second=mom.second,
                            sizes=mom.sizes, sample_count=count)


# --- moment estimation -----------------------------------------------------


def test_moments_identical_rows():
    sums = np.tile([4, -2], (5, 1))
    s = SampleSet(sizes=np.array([8, 8]), seed=0, sums=sums)
    mom = estimate_moments(s)
    assert mom.mean == pytest.approx([0.5, -0.25])
    assert mom.second == pytest.approx(np.outer(mom.mean, mom.mean))


def test_moments_opposite_rows():
    sums = np.array([[8, 8], [-8, -8]])
    s = SampleSet(sizes=np.array([8, 8]), seed=0, sums=sums)
    mom = estimate_moments(s)
    assert mom.mean == pytest.approx([0.0, 0.0])
    assert mom.second == pytest.approx(np.ones((2, 2)))


def test_moments_match_exact_engine():
    model = make_ref2()
    sizes = [100, 100]
    M = 50_000
    sample = exact_sample(model, sizes, M, seed=7)
    mom = estimate_moments(sample)
    truth = exact_moments(model, sizes)
    for l in range(2):
        se = math.sqrt((truth.second[l, l] - truth.mean[l] ** 2) / M)
        assert abs(mom.mean[l] - truth.mean[l]) <= 4.0 * se


def test_moments_errors():
    with pytest.raises(EmptySample):
        estimate_moments(SampleSet(sizes=np.array([4]), seed=0,
                                   sums=np.empty((1, 1), dtype=np.int64)))
    with pytest.raises(InconsistentRows):
        estimate_moments(SampleSet(sizes=np.array([4]), seed=0,
                                   sums=np.array([[5], [1]])))
    with pytest.raises(InconsistentRows):
        # odd sums are unreachable with an even spin count
        estimate_moments(SampleSet(sizes=np.array([4]), seed=0,
                                   sums=np.array([[1], [2]])))


# --- susceptibility estimate ---------------------------------------------------


def test_empirical_susceptibility_frozen_sample():
    sums = np.tile([4], (5, 1))
    mom = estimate_moments(SampleSet(sizes=np.array([8]), seed=0, sums=sums))
    with pytest.raises(ZeroVariance):
        empirical_susceptibility(mom)


def test_empirical_susceptibility_decoupled_closed_form():
    model = make_cw(TINY_J, 0.45)
    for N in (50, 500):
        mom = moments_from_exact(model, [N])
        chi = empirical_susceptibility(mom)
        assert chi[0, 0] == pytest.approx(1.0 - math.tanh(0.45) ** 2, abs=1e-12)


# --- single-species inversion ----------------------------------------------------


def test_invert_cw_exact_moments():
    est = invert_cw(moments_from_exact(make_cw(0.5, 0.2), [500]))
    assert abs(est.J_hat[0, 0] - 0.5) <= 0.05
    assert abs(est.h_hat[0] - 0.2) <= 0.02


def test_invert_cw_bernoulli_moments():
    # independent spins: mean tanh(h), N Var(m) = 1 - tanh^2(h)
    t = math.tanh(0.3)
    N = 1000
    mom = EmpiricalMoments(mean=np.array([t]),
                           second=np.array([[t * t + (1 - t * t) / N]]),
                           sizes=np.array([N]), sample_count=10)
    est = invert_cw(mom)
    assert abs(est.J_hat[0, 0]) < 0.01
    assert est.h_hat[0] == pytest.approx(0.3, abs=0.01)


def test_invert_cw_saturated():
    mom = EmpiricalMoments(mean=np.array([1.0]), second=np.array([[1.0]]),
                           sizes=np.array([10]), sample_count=5)
    with pytest.raises(MagnetizationSaturated):
        invert_cw(mom)


# --- multi-species inversion ------------------------------------------------------


def test_invert_multi_limit_roundtrip():
    # feed the limiting mean and the response matrix: the formulas are
    # mutual algebraic inverses
    model = make_ref2()
    res = pressure_limit(model)
    mu = res.maxima[0].point.x
    chi = susceptibility_matrix(model, mu)
    sizes = np.array([1000, 1000])
    second = np.outer(mu, mu) + chi / sizes[None, :]
    mom = EmpiricalMoments(mean=mu, second=second, sizes=sizes, sample_count=10)
    est = invert_multi(mom, model.alpha)
    assert np.max(np.abs(est.J_hat - model.J)) <= 1e-10
    assert np.max(np.abs(est.h_hat - model.h)) <= 1e-10


def test_invert_multi_finite_size_band():
    model = make_ref2()
    est = invert_multi(moments_from_exact(model, [200, 200]), model.alpha)
    assert np.max(np.abs(est.J_hat - model.J)) <= 0.1
    assert np.max(np.abs(est.h_hat - model.h)) <= 0.05


def test_invert_multi_sampled_band_deterministic():
    model = make_ref2()
    sample = exact_sample(model, [200, 200], 50_000, seed=20210613)
    est = mle_fit(sample, model.alpha)
    assert np.max(np.abs(est.J_hat - model.J)) <= 0.1
    assert np.max(np.abs(est.h_hat - model.h)) <= 0.05
    est2 = mle_fit(exact_sample(model, [200, 200], 50_000, seed=20210613),
                   model.alpha)
    assert np.array_equal(est.J_hat, est2.J_hat)
    assert np.array_equal(est.h_hat, est2.h_hat)


def test_bias_shrinks_with_system_size():
    model = make_ref2()
    bias = []
    for N in (200, 400):
        est = invert_multi(moments_from_exact(model, [N, N]), model.alpha)
        bias.append(np.max(np.abs(est.J_hat - model.J)))
    assert bias[0] / bias[1] >= 1.5


def test_permutation_equivariance():
    model = make_ref2()
    sample = exact_sample(model, [200, 200], 2000, seed=3)
    est = invert_multi(estimate_moments(sample), model.alpha)
    perm = [1, 0]
    swapped = SampleSet(sizes=sample.sizes[perm], seed=3,
                        sums=sample.sums[:, perm])
    est_p = invert_multi(estimate_moments(swapped), model.alpha[perm])
    # pivoting inside the matrix inverse is not permutation-equivariant
    # bitwise, so "exact" here means machine precision
    np.testing.assert_allclose(est_p.J_hat, est.J_hat[np.ix_(perm, perm)],
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(est_p.h_hat, est.h_hat[perm], rtol=0, atol=1e-13)


# --- conditioned inversion ---------------------------------------------------------


def test_conditioned_infinite_radius_matches_unconditioned():
    model = make_ref2()
    sample = exact_sample(model, [100, 100], 5000, seed=8)
    full = invert_multi(estimate_moments(sample), model.alpha)
    cond = invert_conditioned(sample, [0.0, 0.0], math.inf, model.alpha)
    assert np.array_equal(full.J_hat, cond.J_hat)
    assert np.array_equal(full.h_hat, cond.h_hat)


def test_conditioned_recovers_spontaneous_phase():
    model = make_cw(1.2, 0.0)
    sample = exact_sample(model, [1000], 50_000, seed=42)
    est = invert_conditioned(sample, [MU0_J12], 0.3, model.alpha)
    assert abs(est.J_hat[0, 0] - 1.2) <= 0.1
    assert abs(est.h_hat[0]) <= 0.05


def test_conditioned_empty_ball():
    model = make_cw(1.0, 0.0)
    sample = exact_sample(model, [100], 100, seed=2)
    with pytest.raises(EmptyCondition):
        invert_conditioned(sample, [9.0], 0.1, model.alpha)


@pytest.mark.parametrize("center,radius", [
    ([math.nan], 0.3), ([math.inf], 0.3), ([-math.inf], 0.3), ([MU0_J12], math.nan),
    ([MU0_J12], -1.0),
])
def test_conditioned_inversion_refuses_a_bad_ball_as_a_config_error(center, radius):
    # these used to raise EmptyCondition, a data outcome (CLI exit 3)
    with pytest.raises(ConfigParse, match="finite center and a radius >= 0"):
        invert_conditioned(_cw12_sample(), center, radius, [1.0])


# --- maximum likelihood ---------------------------------------------------------------


def test_mle_equals_moment_inversion():
    model = make_ref2()
    sample = exact_sample(model, [50, 50], 4000, seed=13)
    est = mle_fit(sample, model.alpha)
    direct = invert_multi(estimate_moments(sample), model.alpha)
    assert np.array_equal(est.J_hat, direct.J_hat)
    assert np.array_equal(est.h_hat, direct.h_hat)
    assert est.log_likelihood is not None


def test_mle_scalar_path_equals_invert_cw():
    model = make_cw(0.7, 0.1)
    sample = exact_sample(model, [100], 4000, seed=14)
    est = mle_fit(sample, model.alpha)
    direct = invert_cw(estimate_moments(sample))
    assert np.array_equal(est.J_hat, direct.J_hat)
    assert np.array_equal(est.h_hat, direct.h_hat)


def test_mle_likelihood_peaks_at_estimate():
    model = make_ref2()
    sample = exact_sample(model, [50, 50], 4000, seed=13)
    est = mle_fit(sample, model.alpha)
    at_fit = est.log_likelihood
    bumped = _sample_log_likelihood(sample, est.J_hat + 0.1, est.h_hat,
                                    model.alpha)
    assert at_fit >= bumped
    shifted = _sample_log_likelihood(sample, est.J_hat, est.h_hat + 0.05,
                                     model.alpha)
    assert at_fit >= shifted


def test_mle_weak_coupling_scores_non_model_estimate():
    # J=0.05, N=50, M=200 estimates J_11 <= 0: not a valid model, but the
    # likelihood of the sample under it is still defined
    model = make_cw(0.05, 0.0)
    sample = exact_sample(model, [50], 200, seed=1)
    est = mle_fit(sample, model.alpha)
    J, h = float(est.J_hat[0, 0]), float(est.h_hat[0])
    assert J <= 0.0
    # oracle: the binomial sum over the 51 values of S, in plain Python
    N, S = 50, sample.sums[:, 0].astype(float)
    ln_z = math.log(sum(math.comb(N, k) * math.exp(J * (2 * k - N) ** 2 / (2 * N)
                                                   + h * (2 * k - N))
                        for k in range(N + 1)))
    want = float(np.sum(J * S ** 2 / (2 * N) + h * S)) - len(S) * ln_z
    assert est.log_likelihood == pytest.approx(want, rel=1e-12)


def test_sample_log_likelihood_checks_sizes():
    sample = exact_sample(make_ref2(), [20, 20], 50, seed=2)
    J, h = np.eye(2), np.zeros(2)
    with pytest.raises(BadSizes):
        _sample_log_likelihood(sample, J, h, np.array([0.4, 0.6]))
    with pytest.raises(BadSizes):
        _sample_log_likelihood(sample, J, h, np.array([1.0]))
    empty_block = SampleSet(sizes=np.array([0]), seed=0, sums=np.zeros((3, 1), dtype=np.int64))
    with pytest.raises(BadSizes):
        _sample_log_likelihood(empty_block, np.eye(1), np.zeros(1), np.array([1.0]))


def test_invert_multi_refuses_perfectly_correlated_species():
    sums = np.array([[2, 2], [0, 0], [-2, -2], [4, 4]])
    samples = SampleSet(sizes=np.array([10, 10]), seed=0, sums=sums)
    with pytest.raises(SingularChi):
        invert_multi(estimate_moments(samples), [0.5, 0.5])


@pytest.mark.parametrize("mean", [(1.0, 0.2), (0.1, -1.0)])
def test_invert_multi_refuses_a_saturated_species(mean):
    mean = np.array(mean)
    mom = EmpiricalMoments(mean=mean, second=np.outer(mean, mean) + 0.01 * np.eye(2),
                           sizes=np.array([100, 100]), sample_count=10)
    with pytest.raises(MagnetizationSaturated):
        invert_multi(mom, [0.5, 0.5])


@pytest.mark.parametrize("fit", [
    lambda sample, alpha: invert_multi(estimate_moments(sample), alpha),
    lambda sample, alpha: invert_conditioned(sample, [0.36, -0.02], 0.5, alpha),
    lambda sample, alpha: mle_fit(sample, alpha),
], ids=["invert_multi", "invert_conditioned", "mle_fit"])
def test_inverse_refuses_alpha_that_contradicts_the_block_sizes(fit):
    # alpha is fixed by the sample's block sizes; (0.3, 0.7) against [200, 200]
    # used to return J ~ ((1.66, 0.58), (0.58, 0.71)) with no error
    sample = exact_sample(make_ref2(), [200, 200], 2000, seed=1)
    with pytest.raises(BadSizes):
        fit(sample, np.array([0.3, 0.7]))


def _cw12_sample():
    return exact_sample(make_cw(1.2, 0.0), [400], 2000, seed=11)


@pytest.mark.parametrize("fit", [
    lambda sample, alpha: invert_conditioned(sample, [0.6586], 0.3, alpha),
    lambda sample, alpha: mle_fit(sample, alpha),
], ids=["invert_conditioned", "mle_fit"])
def test_one_species_inverse_refuses_alpha_that_contradicts_the_block_size(fit):
    # a single block is the whole sample: its fraction is 1, not 0.5
    with pytest.raises(BadSizes):
        fit(_cw12_sample(), [0.5])


@pytest.mark.parametrize("moments", [
    lambda: moments_from_exact(make_cw(0.5, 0.2), [500]),
    lambda: estimate_moments(_cw12_sample()),
], ids=["exact", "sampled"])
def test_invert_cw_is_invert_multi_at_one_species(moments):
    mom = moments()
    est, multi = invert_cw(mom), invert_multi(mom, [1.0])
    for name in ("J_hat", "h_hat", "chi_hat"):
        assert np.array_equal(getattr(est, name), getattr(multi, name))
    assert est.diagnostics == multi.diagnostics
    assert est.diagnostics["asymmetry"] == 0.0


def test_mle_fit_past_the_lattice_cap_reports_no_likelihood():
    # 20001^2 ~ 4.0e8 lattice points: over the cap, so the fit has no likelihood
    sums = np.array([[0, 0], [2, -2], [-2, 2], [4, 4], [-4, 0], [0, 6]])
    sample = SampleSet(sizes=np.array([20000, 20000]), seed=0, sums=sums)
    est = mle_fit(sample, [0.5, 0.5])
    assert est.log_likelihood is None
    assert np.array_equal(est.J_hat,
                          invert_multi(estimate_moments(sample), [0.5, 0.5]).J_hat)
