import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanfield_lab import (
    FiniteMeasure,
    ModelSpec,
    entropy_I,
    exact_moments,
    exact_sample,
    finite_pressure,
    log_count,
    log_partition,
    magnetization_law,
    normalized_sum_law,
    pressure_limit,
    read_samples_csv,
    validate_model,
    write_samples_csv,
)
from meanfield_lab.errors import (
    BadSizes,
    ConfigParse,
    EmptyCondition,
    LatticeTooLarge,
    OffLattice,
    UnsupportedMeasure,
)
from meanfield_lab.exact import (
    MagLattice,
    SampleSet,
    _lattice_log_weights,
    _lse,
)

from conftest import (
    CHI_J12,
    MU0_J12,
    brute_force_log_partition,
    make_cw,
    make_ref2,
)

TINY_J = 1e-15


# --- counting --------------------------------------------------------------


def test_log_count_edges():
    assert log_count(4, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert log_count(4, 0.0) == pytest.approx(math.log(6.0), abs=1e-12)


def test_log_count_big_binomial():
    # oracle: exact big-integer binomial
    want = math.log(math.comb(1000, 600))
    assert log_count(1000, 0.2) == pytest.approx(want, abs=1e-9)


def test_log_count_off_lattice():
    with pytest.raises(OffLattice):
        log_count(4, 0.3)
    with pytest.raises(OffLattice):
        log_count(4, 1.5)


def test_counting_bounds():
    # ln A <= N ln2 - N I(m) and ln A >= N ln2 - N I(m) - ln(3 sqrt(N))
    for N in [2, 3, 5, 10, 100, 487, 2000]:
        m = np.arange(-N, N + 1, 2) / N
        ln_a = log_count(N, m)
        upper = N * math.log(2.0) - N * entropy_I(m)
        assert np.all(ln_a <= upper + 1e-9)
        assert np.all(ln_a >= upper - math.log(3.0 * math.sqrt(N)))


# --- partition function ------------------------------------------------------


def test_log_partition_decoupled_spins():
    model = validate_model(ModelSpec(n=2, alpha=(0.4, 0.6),
                                     J=((TINY_J, 0.0), (0.0, TINY_J)),
                                     h=(0.3, -0.8)))
    got = log_partition(model, [20, 30])
    want = 20 * math.log(math.cosh(0.3)) + 30 * math.log(math.cosh(0.8))
    assert got == pytest.approx(want, abs=1e-9)


def test_log_partition_brute_force_cw():
    model = make_cw(1.0, 0.0)
    got = log_partition(model, [10])
    want = brute_force_log_partition(model, [10])
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("J,h,sizes", [(1.2, 0.3, (12,)), (0.7, -0.5, (9,))])
def test_log_partition_brute_force_grid(J, h, sizes):
    model = make_cw(J, h)
    assert log_partition(model, sizes) == pytest.approx(
        brute_force_log_partition(model, sizes), abs=1e-9)


def test_log_partition_brute_force_two_species():
    model = make_ref2()
    got = log_partition(model, [7, 7])
    want = brute_force_log_partition(model, [7, 7])
    assert got == pytest.approx(want, abs=1e-9)


def test_log_partition_field_flip_symmetry():
    base = dict(n=2, alpha=(0.5, 0.5), J=((1.0, -0.3), (-0.3, 1.0)))
    plus = validate_model(ModelSpec(h=(0.4, -0.2), **base))
    minus = validate_model(ModelSpec(h=(-0.4, 0.2), **base))
    assert log_partition(plus, [10, 10]) == log_partition(minus, [10, 10])


def test_log_partition_lattice_cap():
    with pytest.raises(LatticeTooLarge):
        log_partition(make_cw(1.0, 0.0), [100], cap=50)


def test_log_partition_requires_binary():
    meas = FiniteMeasure(atoms=((-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)))
    with pytest.raises(UnsupportedMeasure):
        log_partition(make_cw(1.0, 0.0, measure=meas), [10])


def test_sizes_must_match_fractions():
    with pytest.raises(BadSizes):
        log_partition(make_ref2(), [10, 12])


# --- finite pressure -----------------------------------------------------------


def test_finite_pressure_decoupled_zero():
    model = make_cw(TINY_J, 0.0)
    for N in [10, 100, 1000]:
        assert finite_pressure(model, [N]) == pytest.approx(0.0, abs=1e-12)


def test_finite_pressure_monotone_approach():
    model = make_cw(0.5, 0.1)
    limit = pressure_limit(model).limit_value
    gaps = [abs(finite_pressure(model, [N]) - limit)
            for N in [100, 200, 400, 800]]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_finite_pressure_sandwich():
    model = make_ref2()
    limit = pressure_limit(model).limit_value
    for N in [100, 400, 1600]:
        sizes = model.species_sizes(N)
        p_n = finite_pressure(model, sizes)
        lower = limit - (math.log(3.0) + 0.5 * float(np.sum(np.log(sizes)))) / N
        upper = limit + float(np.sum(np.log(sizes + 1))) / N
        assert lower <= p_n <= upper


# --- magnetization law ------------------------------------------------------------


def test_law_two_fair_coins():
    law = magnetization_law(make_cw(TINY_J, 0.0), [2])
    probs = law.probabilities()
    assert probs == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)


def test_law_normalization():
    from scipy.special import logsumexp
    for model, sizes in [(make_cw(1.2, 0.0), [500]), (make_ref2(), [40, 40])]:
        law = magnetization_law(model, sizes)
        assert abs(logsumexp(law.log_weights)) <= 1e-10


def test_law_flip_symmetric_without_field():
    model = make_cw(1.3, 0.0)
    law = magnetization_law(model, [64])
    assert np.array_equal(law.log_weights, law.log_weights[::-1])


def test_law_concentrates_at_spontaneous_magnetization():
    # lobe width is sqrt(chi/N); 0.2 is 3 sigma at N=400
    law = magnetization_law(make_cw(1.2, 0.0), [400])
    pts = law.points()[:, 0]
    probs = law.probabilities().ravel()
    near_plus = probs[np.abs(pts - MU0_J12) <= 0.2].sum()
    assert 0.45 < near_plus <= 0.5


def test_lobe_mass_regression_n2000():
    # frozen from this engine: the +-0.05 window is 1.68 sigma at N=2000,
    # so each lobe carries 0.45214 of the mass, not 1/2
    law = magnetization_law(make_cw(1.2, 0.0), [2000])
    pts = law.points()[:, 0]
    probs = law.probabilities().ravel()
    mass = probs[np.abs(pts - MU0_J12) <= 0.05].sum()
    assert mass == pytest.approx(0.452139351612880, abs=1e-10)


# --- moments ------------------------------------------------------------------------


def test_moments_zero_mean_without_field():
    mom = exact_moments(make_cw(1.1, 0.0), [50])
    assert mom.mean[0] == pytest.approx(0.0, abs=1e-14)


def test_moments_decoupled_bernoulli():
    # oracle: independent spins have mean tanh(h) and N Var = 1 - tanh^2
    model = make_cw(TINY_J, 0.37)
    for N in [10, 100, 1000]:
        mom = exact_moments(model, [N])
        t = math.tanh(0.37)
        assert mom.mean[0] == pytest.approx(t, abs=1e-12)
        n_var = N * (mom.second[0, 0] - mom.mean[0] ** 2)
        assert n_var == pytest.approx(1.0 - t * t, abs=1e-12)


def test_moments_variance_matches_susceptibility():
    mom = exact_moments(make_cw(0.5, 0.0), [2000])
    n_var = 2000 * (mom.second[0, 0] - mom.mean[0] ** 2)
    assert abs(n_var - 2.0) / 2.0 < 0.05


def test_moments_second_matrix_consistency():
    mom = exact_moments(make_ref2(), [30, 30])
    assert np.array_equal(mom.second, mom.second.T)
    assert np.all(np.diag(mom.second) >= mom.mean ** 2 - 1e-15)
    assert np.all(np.abs(mom.second) <= 1.0 + 1e-12)


def make_ref3():
    return validate_model(ModelSpec(
        n=3, alpha=(0.2, 0.3, 0.5),
        J=((2.0, 0.3, -0.2), (0.3, 1.5, 0.4), (-0.2, 0.4, 1.0)),
        h=(0.1, -0.2, 0.05)))


def test_moments_three_species_brute_force():
    # oracle: every one of the 2^10 configurations, weighted by exp(-H);
    # with n=3 each pairwise marginal sums over a third axis
    model = make_ref3()
    sizes = np.array([2, 3, 5])
    N = int(sizes.sum())
    species = np.repeat(np.arange(3), sizes)
    spins = np.array(list(itertools.product((-1.0, 1.0), repeat=N)))
    S = np.stack([spins[:, species == l].sum(axis=1) for l in range(3)], axis=1)
    energy = np.einsum("bi,ij,bj->b", S, model.J, S) / (2.0 * N) + S @ model.h
    p = np.exp(energy - energy.max())
    p /= p.sum()
    m = S / sizes
    mom = exact_moments(model, sizes)
    assert np.max(np.abs(mom.mean - p @ m)) <= 1e-13
    assert np.max(np.abs(mom.second - (p[:, None] * m).T @ m)) <= 1e-13
    assert np.array_equal(mom.second, mom.second.T)


@pytest.mark.parametrize("model,sizes", [
    (make_cw(1.3, 0.0), [40]),          # two tied maxima at +-m
    (make_cw(1.2, 0.0), [8]),
    (make_cw(1.2, 0.0), [2000]),
    (make_cw(0.7, -0.5), [9]),
    (make_ref2(), [40, 40]),
    (make_ref3(), [20, 30, 50]),
])
def test_log_sum_exp_matches_scipy_bitwise(model, sizes):
    from scipy.special import logsumexp

    W = _lattice_log_weights(model.J, model.h, MagLattice(np.asarray(sizes)),
                             10 ** 8)
    want = logsumexp(W)
    assert log_partition(model, sizes) == float(want)
    assert magnetization_law(model, sizes).log_weights.tobytes() == (W - want).tobytes()
    if model.n == 1 and model.h[0] == 0.0:
        assert np.count_nonzero(W == W.max()) == 2


def test_lse_tied_maximum():
    from scipy.special import logsumexp

    # here both ln(sum exp(W - max)) + max and a sum that leaves out only
    # one of the tied maxima miss scipy's last bit
    W = np.array([-0.1, -0.84, 0.88, -2.36, 0.88])
    assert _lse(W) == float(logsumexp(W))
    assert _lse(np.zeros(7)) == math.log(7.0)


# --- sampling -----------------------------------------------------------------------


def test_sample_empty():
    s = exact_sample(make_cw(1.0, 0.0), [10], 0, seed=1)
    assert s.sums.shape == (0, 1)


def test_sample_deterministic():
    model = make_ref2()
    a = exact_sample(model, [20, 20], 500, seed=9)
    b = exact_sample(model, [20, 20], 500, seed=9)
    assert np.array_equal(a.sums, b.sums)
    c = exact_sample(model, [20, 20], 500, seed=10)
    assert not np.array_equal(a.sums, c.sums)


def test_sample_block_boundary_stability():
    # crossing the internal block size must not perturb earlier draws
    model = make_cw(1.0, 0.2)
    small = exact_sample(model, [50], 1000, seed=3)
    large = exact_sample(model, [50], (1 << 16) + 1000, seed=3)
    assert np.array_equal(small.sums, large.sums[:1000])


def test_sample_clt_band():
    model = make_cw(TINY_J, 0.0)
    M = 100_000
    s = exact_sample(model, [100], M, seed=21)
    m = s.magnetizations().ravel()
    sigma = 1.0 / math.sqrt(100)
    assert abs(m.mean()) <= 3.0 * sigma / math.sqrt(M)


def test_sample_two_lobes():
    s = exact_sample(make_cw(1.2, 0.0), [1000], 10_000, seed=5)
    m = s.magnetizations().ravel()
    plus = np.mean(np.abs(m - MU0_J12) < 0.15)
    minus = np.mean(np.abs(m + MU0_J12) < 0.15)
    assert 0.45 <= plus <= 0.55
    assert 0.45 <= minus <= 0.55
    assert plus + minus > 0.985


def test_sampler_frequencies_match_law():
    # chi^2-style: per-cell 4 standard errors, small cells pooled
    model = make_cw(0.9, 0.1)
    sizes = [60]
    law = magnetization_law(model, sizes)
    probs = law.probabilities().ravel()
    M = 200_000
    s = exact_sample(model, sizes, M, seed=11)
    sums_axis = law.lattice.sum_axis(0)
    counts = np.array([(s.sums[:, 0] == v).sum() for v in sums_axis])
    big = probs * M >= 10
    se = np.sqrt(M * probs * (1 - probs))
    assert np.all(np.abs(counts[big] - M * probs[big]) <= 4.0 * se[big])
    pooled_p = probs[~big].sum()
    pooled_c = counts[~big].sum()
    if pooled_p > 0:
        pooled_se = math.sqrt(M * pooled_p * (1 - pooled_p))
        assert abs(pooled_c - M * pooled_p) <= 4.0 * max(pooled_se, 1.0)


# --- normalized sum law ----------------------------------------------------------


def test_normalized_law_clt_variance():
    law = normalized_sum_law(make_cw(TINY_J, 0.0), [2000], [0.0], k=1)
    assert abs(law.variance() - 1.0) < 0.01


def test_normalized_law_conditioned_variance():
    law = normalized_sum_law(make_cw(1.2, 0.0), [2000], [MU0_J12], k=1,
                             condition_ball=0.3)
    assert abs(law.variance() - CHI_J12) / CHI_J12 < 0.05


def test_normalized_law_empty_condition():
    with pytest.raises(EmptyCondition):
        normalized_sum_law(make_cw(1.0, 0.0), [100], [5.0], k=1,
                           condition_ball=0.5)


def test_normalized_law_mean_shift():
    law = normalized_sum_law(make_cw(TINY_J, 0.4), [400],
                             [math.tanh(0.4)], k=1)
    assert abs(law.mean()[0]) < 0.05


# --- sample files -----------------------------------------------------------------


def test_sample_csv_roundtrip(tmp_path):
    model = make_ref2()
    s = exact_sample(model, [20, 20], 100, seed=4)
    path = tmp_path / "s.csv"
    write_samples_csv(s, str(path))
    again = read_samples_csv(str(path))
    assert np.array_equal(again.sums, s.sums)
    assert np.array_equal(again.sizes, s.sizes)
    assert again.seed == s.seed
    header = path.read_text().splitlines()[0]
    assert header == "# meanfield-lab samples v1"


def test_sample_csv_empty_roundtrip(tmp_path):
    s = exact_sample(make_cw(1.0, 0.0), [10], 0, seed=1)
    path = tmp_path / "empty.csv"
    write_samples_csv(s, str(path))
    again = read_samples_csv(str(path))
    assert again.sums.shape == (0, 1)


def test_sample_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not a sample file\n")
    with pytest.raises(ConfigParse):
        read_samples_csv(str(path))


def test_sample_csv_golden_bytes(tmp_path):
    s = SampleSet(sizes=np.array([3, 5]), seed=7,
                  sums=np.array([[1, -3], [-3, 5], [3, 1]]))
    path = tmp_path / "golden.csv"
    write_samples_csv(s, str(path))
    assert path.read_bytes() == (b"# meanfield-lab samples v1\n# n=2\n"
                                 b"# N=[3, 5]\n# seed=7\n1,-3\n-3,5\n3,1\n")
    empty = SampleSet(sizes=np.array([4]), seed=0, sums=np.empty((0, 1), dtype=np.int64))
    write_samples_csv(empty, str(path))
    assert path.read_bytes() == b"# meanfield-lab samples v1\n# n=1\n# N=[4]\n# seed=0\n"


def test_sample_csv_blank_lines_skipped(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# meanfield-lab samples v1\n# n=2\n# N=[3, 5]\n# seed=7\n"
                    "1,-3\n\n  \n-3,5\n\n")
    assert read_samples_csv(str(path)).sums.tolist() == [[1, -3], [-3, 5]]


@pytest.mark.parametrize("body", [
    "1,-3\n3\n",               # ragged row
    "1,-3,1\n3,1,1\n",         # every row has the wrong column count
    "1,-3\n1.5,1\n",           # non-integer cell
    "1,-3\n# seed=8\n",        # metadata after the body
])
def test_sample_csv_bad_rows(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text("# meanfield-lab samples v1\n# n=2\n# N=[3, 5]\n# seed=7\n" + body)
    with pytest.raises(ConfigParse):
        read_samples_csv(str(path))


@settings(max_examples=25, deadline=None)
@given(J=st.floats(0.05, 2.5), h=st.floats(-1.5, 1.5),
       N=st.integers(2, 120))
def test_law_properties_random_models(J, h, N):
    from scipy.special import logsumexp

    model = make_cw(J, h)
    law = magnetization_law(model, [N])
    assert abs(logsumexp(law.log_weights)) <= 1e-10
    mom = exact_moments(model, [N])
    assert abs(mom.mean[0]) <= 1.0 + 1e-12
    assert mom.mean[0] ** 2 <= mom.second[0, 0] + 1e-14
    # the mean follows the field's sign
    if h > 1e-9:
        assert mom.mean[0] > 0
    elif h < -1e-9:
        assert mom.mean[0] < 0


@settings(max_examples=25, deadline=None)
@given(N=st.integers(1, 3000), data=st.data())
def test_log_count_bounded_by_entropy(N, data):
    k = data.draw(st.integers(0, N))
    m = (2 * k - N) / N
    assert log_count(N, m) <= N * math.log(2.0) - N * entropy_I(m) + 1e-9


def test_sizes_stay_the_callers_own():
    sizes = np.array([10])
    log_partition(make_cw(0.5, 0.0), sizes)
    law = magnetization_law(make_cw(0.5, 0.0), sizes)
    assert sizes.flags.writeable
    sizes[0] = 12
    assert law.lattice.sizes.tolist() == [10]
