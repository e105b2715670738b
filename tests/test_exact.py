import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanfield_lab import (
    FiniteMeasure,
    ModelSpec,
    entropy_I,
    exact,
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
    DimensionMismatch,
    DomainError,
    EmptyCondition,
    LatticeTooLarge,
    OffLattice,
    UnsupportedMeasure,
)
from meanfield_lab import _moments
from meanfield_lab import exact as exact_module
from meanfield_lab.exact import (
    _BLOCK,
    MagLattice,
    SampleSet,
    _lattice_log_weights,
    _Leaves,
    _log_factorial,
    _lse,
    _pairwise,
    _Weights,
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


@pytest.mark.parametrize("m", [math.nan, [0.0, math.nan]])
def test_log_count_refuses_a_nan_mean(m):
    # every comparison of the lattice test was False for nan, so nan came back
    with pytest.raises(OffLattice):
        log_count(10, m)


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


def test_log_partition_lattice_cap(monkeypatch):
    monkeypatch.setattr(exact_module, "LATTICE_CAP", 50)
    with pytest.raises(LatticeTooLarge):
        log_partition(make_cw(1.0, 0.0), [100])


def test_log_partition_requires_binary():
    meas = FiniteMeasure(atoms=((-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)))
    with pytest.raises(UnsupportedMeasure):
        log_partition(make_cw(1.0, 0.0, measure=meas), [10])


@pytest.mark.parametrize("entry,args", [
    (log_partition, ()), (finite_pressure, ()), (magnetization_law, ()),
    (exact_moments, ()), (exact_sample, (10, 1)), (normalized_sum_law, ([0.0], 1)),
])
def test_each_lattice_entry_point_names_itself_when_it_refuses_a_measure(entry, args):
    # exact_sample and normalized_sum_law named magnetization_law, finite_pressure
    # named log_partition: functions their caller never called
    meas = FiniteMeasure(atoms=((-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)))
    with pytest.raises(UnsupportedMeasure) as err:
        entry(make_cw(1.0, 0.0, measure=meas), [10], *args)
    assert str(err.value).startswith(entry.__name__ + " ")


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

    W = _lattice_log_weights(model.J, model.h, MagLattice(np.asarray(sizes)))
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


def _full_array_weights(J, h, sizes):
    """The lattice log-weights as one whole-array expression, term by term."""
    lattice = MagLattice(np.asarray(sizes))
    n, N = lattice.n, lattice.total
    S = [lattice.sum_axis(l).astype(float) for l in range(n)]
    W = np.full(lattice.shape, -N * math.log(2.0))
    for l in range(n):
        T = _log_factorial(np.arange(sizes[l] + 1.0))
        counts = T[sizes[l]] - (T + T[::-1])
        W += (counts + h[l] * S[l] + J[l, l] * S[l] ** 2 / (2.0 * N)).reshape(
            [-1 if a == l else 1 for a in range(n)])
    for l in range(n):
        for s in range(l + 1, n):
            W += ((J[l, s] / N) * np.multiply.outer(S[l], S[s])).reshape(
                [len(S[a]) if a in (l, s) else 1 for a in range(n)])
    return W


@pytest.mark.parametrize("sizes", [[200000], [3, 70000], [70000, 3], [60, 90, 150],
                                   [5, 6, 7, 8]])
def test_row_blocks_reproduce_the_full_array_weights(sizes):
    # blocks of many rows, one row longer than a block, and n = 4
    rng = np.random.default_rng(len(sizes) * 1000 + sizes[0])
    n = len(sizes)
    A = rng.normal(size=(n, n))
    J, h = (A + A.T) / 2.0, rng.uniform(-0.3, 0.3, n)
    W = _lattice_log_weights(J, h, MagLattice(np.asarray(sizes)))
    assert W.tobytes() == _full_array_weights(J, h, sizes).tobytes()


@pytest.mark.parametrize("model,sizes", [
    (make_cw(1.2, 0.0), [200000]),      # two tied maxima in different blocks
    (make_ref2(), [1600, 1600]),
    (make_ref3(), [60, 90, 150]),
])
def test_streamed_sums_match_scipy_bitwise_across_blocks(model, sizes):
    from scipy.special import logsumexp

    lattice = MagLattice(np.asarray(sizes))
    W = _lattice_log_weights(model.J, model.h, lattice)
    assert W.size > 2 * _BLOCK
    want = logsumexp(W)
    assert log_partition(model, sizes) == float(want)
    law = magnetization_law(model, sizes)
    assert law.log_weights.tobytes() == (W - want).tobytes()
    if model.n == 1:
        assert np.count_nonzero(W == W.max()) == 2

    # the full-array moment formula: per-axis and pairwise marginals of P
    P = np.exp(law.log_weights)
    del law, W
    axes = [lattice.mag_axis(l) for l in range(model.n)]

    def marginal(keep):
        other = tuple(a for a in range(model.n) if a not in keep)
        return P.sum(axis=other) if other else P

    mean, second = np.empty(model.n), np.empty((model.n, model.n))
    for l, m in enumerate(axes):
        mean[l] = m @ marginal((l,))
        second[l, l] = (m * m) @ marginal((l,))
        for s in range(l + 1, model.n):
            second[l, s] = second[s, l] = m @ marginal((l, s)) @ axes[s]
    mom = exact_moments(model, sizes)
    if model.n <= 2:
        assert mom.mean.tobytes() == mean.tobytes()
        assert mom.second.tobytes() == second.tobytes()
    else:
        assert np.max(np.abs(mom.mean - mean) / np.abs(mean)) <= 1e-13
        assert np.max(np.abs(mom.second - second) / np.abs(second)) <= 1e-13


def test_pairwise_walk_sums_in_numpys_order():
    # blocks shorter and longer than a leaf; the summands are of one order
    # of magnitude, so another summation order often moves the last bits
    sizes = [1000, 100000, 30000, _BLOCK, 7, 250000, 40001, 513459]
    for seed in range(6):
        W = np.random.default_rng(seed).uniform(-3.0, 0.0, size=sum(sizes))
        blocks = np.split(W, np.cumsum(sizes)[:-1])
        E = np.exp(W - W.max())
        E[W == W.max()] = 0.0
        leaves = _Leaves(blocks, np.array([b.max() for b in blocks]), W.size, max(sizes))
        assert _pairwise(leaves, W.size) == E.sum()
        assert leaves.tops == 1


def test_exp_is_exactly_zero_below_the_floor_that_leaves_skip():
    below = np.concatenate([np.linspace(-1e5, exact_module._EXP_ZERO, 2_000_001), [-1e308]])
    assert not np.any(np.exp(below))
    # a block across the floor, subnormal results in it too, takes exp's values
    W = np.linspace(-800.0, 0.0, 3 * _BLOCK)
    blocks = np.split(W, 3)
    leaves = _Leaves(blocks, np.array([b.max() for b in blocks]), W.size, _BLOCK)
    want = np.exp(W)
    want[-1] = 0.0                              # the maximum, counted in tops
    assert np.any((want > 0) & (want < np.finfo(float).tiny))
    got = np.concatenate([leaves.take(b.size).copy() for b in blocks])
    assert got.tobytes() == want.tobytes() and leaves.tops == 1


def test_streamed_sums_hold_no_lattice_sized_array():
    import tracemalloc

    from meanfield_lab.inverse import _sample_log_likelihood

    ref2 = make_ref2()
    sample = SampleSet(sizes=np.array([3000, 3000]), seed=0,
                       sums=np.array([[0, 0], [2, -2], [40, 12], [-6, 8]]))
    calls = {
        "log_partition ref2 [3000, 3000]":          # 9 M points, 72 MB of weights
            lambda: log_partition(ref2, [3000, 3000]),
        "exact_moments ref3 [120, 180, 300]":       # 6.6 M points
            lambda: exact_moments(make_ref3(), [120, 180, 300]),
        "_sample_log_likelihood [3000, 3000]":
            lambda: _sample_log_likelihood(sample, ref2.J, ref2.h, ref2.alpha),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"{name}: tracemalloc peak {peak / 1e6:.1f} MB"


def test_two_weight_streams_zipped_in_one_thread_keep_their_own_blocks():
    # two streams once shared one per-thread buffer, so zipped blocks compared equal
    lattice = MagLattice(np.array([300, 300]))
    other = validate_model(ModelSpec(n=2, alpha=(0.5, 0.5), J=((1.5, -0.3), (-0.3, 0.8)),
                                     h=(0.0, 0.3)))
    models = [make_ref2(), other]
    alone = [[W.copy() for W in _Weights(m.J, m.h, lattice)] for m in models]
    streams = [_Weights(m.J, m.h, lattice) for m in models]
    for i, (W0, W1) in enumerate(zip(*streams)):
        assert W0.tobytes() == alone[0][i].tobytes()
        assert W1.tobytes() == alone[1][i].tobytes()
    assert i + 1 == len(alone[0]) == len(alone[1]) > 1


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


def test_the_pass_block_size_moves_no_sum_law_or_draw(monkeypatch):
    # _BLOCK sizes the lattice passes only; the sampler draws streams of _STREAM
    cw, ref2 = make_cw(1.2, 0.0), make_ref2()

    def outputs():
        return [np.float64(log_partition(ref2, [300, 300])).tobytes(),
                np.float64(log_partition(cw, [200000])).tobytes(),
                magnetization_law(ref2, [300, 300]).log_weights.tobytes(),
                exact_sample(ref2, [300, 300], 3 * 2 ** 10 + 5, seed=4).sums.tobytes()]

    before = outputs()
    monkeypatch.setattr(exact, "_BLOCK", 2 ** 10)
    assert outputs() == before


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


def _low_corner():
    """Two species pushed to the (+, +) corner: the CDF starts with zeros, then subnormals."""
    return validate_model(ModelSpec(n=2, alpha=(0.5, 0.5), J=((1.0, 0.5), (0.5, 1.0)),
                                    h=(1.0, 1.0)))


def _searchsorted_sums(model, sizes, uniforms) -> np.ndarray:
    """Reference draws: the whole-lattice CDF searched for each uniform, then unravelled."""
    law = magnetization_law(model, sizes)
    cdf = np.cumsum(np.exp(law.log_weights.reshape(-1)))
    cdf[-1] = 1.0
    flat = np.searchsorted(cdf, uniforms, side="right")
    return np.column_stack([law.lattice.sum_axis(l)[i] for l, i in
                            enumerate(np.unravel_index(flat, law.lattice.shape))])


SAMPLER_CASES = {
    "n1-N1": (make_cw(1.0, 0.0), [1]),
    "cw12": (make_cw(1.2, 0.0), [1000]),
    "ref2": (make_ref2(), [500, 500]),          # several pass blocks
    "ref3": (make_ref3(), [60, 90, 150]),
    "low-corner": (_low_corner(), [200, 200]),
}


@pytest.mark.parametrize("case", SAMPLER_CASES)
def test_the_guide_table_draws_what_a_whole_lattice_searchsorted_draws(case):
    model, sizes = SAMPLER_CASES[case]
    M, seed = (1 << 16) + 4465, 8          # two streams, the last chunk short
    assert M % exact._CHUNK
    uniforms = np.concatenate([
        np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))
        .random(min(1 << 16, M - start)) for stream, start in enumerate(range(0, M, 1 << 16))])
    got = exact_sample(model, sizes, M, seed).sums
    assert got.tobytes() == _searchsorted_sums(model, sizes, uniforms).tobytes()


@pytest.mark.parametrize("case", ["n1-N1", "cw12", "low-corner"])
def test_the_guide_search_is_exact_at_cell_edges_and_on_cdf_entries(monkeypatch, case):
    # uniforms PCG64 would hardly ever draw: every cell edge k/K, each CDF entry below 1
    # and its two neighbours, 0 and the largest double below 1
    model, sizes = SAMPLER_CASES[case]
    law = magnetization_law(model, sizes)
    cdf = np.cumsum(np.exp(law.log_weights.reshape(-1)))
    if case == "low-corner":
        assert cdf[0] == 0.0 and np.any((cdf > 0.0) & (cdf < np.finfo(float).tiny))
    inner = cdf[cdf < 1.0]
    uniforms = np.concatenate([np.arange(exact._GUIDE) / exact._GUIDE, inner,
                               np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
                               [0.0, np.nextafter(1.0, 0.0)]])
    uniforms = uniforms[uniforms < 1.0]
    left = iter(np.split(uniforms, range(1 << 16, uniforms.size, 1 << 16)))

    class Replay:
        def __init__(self, bit_generator):
            self.stream = next(left)

        def random(self, count):
            out, self.stream = self.stream[:count], self.stream[count:]
            return out

    monkeypatch.setattr(np.random, "Generator", Replay)
    got = exact_sample(model, sizes, uniforms.size, seed=0).sums
    assert got.tobytes() == _searchsorted_sums(model, sizes, uniforms).tobytes()


def _cells_past_the_probe_depth(model, sizes) -> int:
    """Guide cells wider than the probes that cover 15/16 of the cells: their draws search."""
    cdf = np.cumsum(np.exp(magnetization_law(model, sizes).log_weights.reshape(-1)))
    cdf[-1] = 1.0
    guide = np.searchsorted(cdf, np.arange(exact._GUIDE) / exact._GUIDE, side="right")
    steps = np.frexp(np.diff(guide, append=cdf.size - 1))[1]
    return int(np.count_nonzero(steps > np.sort(steps)[exact._GUIDE * 15 // 16 - 1]))


@pytest.mark.parametrize("case", ["ref2", "ref3"])
def test_draws_past_the_probe_depth_are_exact_at_cell_edges_and_on_cdf_entries(monkeypatch,
                                                                                case):
    # ref2 [500, 500] has 103 cells 9-18 probes wide against a depth of 3
    assert _cells_past_the_probe_depth(*SAMPLER_CASES[case]) > 0
    test_the_guide_search_is_exact_at_cell_edges_and_on_cdf_entries(monkeypatch, case)


SPLIT_CASES = {
    "few-points": (make_cw(3.0, 0.5), [2000]),     # the mass sits on a few points
    "flat": (make_cw(0.0, 0.0), [4000]),           # binomial(4000, 1/2)
}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_peaked_and_flat_laws_draw_what_a_whole_lattice_searchsorted_draws(case):
    # 15/16 of their cells hold one point, so the probe depth is 0 and every other draw searches
    model, sizes = SPLIT_CASES[case]
    assert _cells_past_the_probe_depth(model, sizes) > 0
    M, seed = (1 << 16) + 4465, 5
    uniforms = np.concatenate([
        np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))
        .random(min(1 << 16, M - start)) for stream, start in enumerate(range(0, M, 1 << 16))])
    got = exact_sample(model, sizes, M, seed).sums
    assert got.tobytes() == _searchsorted_sums(model, sizes, uniforms).tobytes()


def test_the_sampler_holds_its_cdf_a_guide_table_and_one_chunk_of_draws():
    # the draws (3.2 MB) and the CDF (2.0 MB); a whole stream of indices and their
    # unravelled coordinates took the peak to 9.07 MB, and sorting every uniform to 14.6 MB
    peak = _peak_bytes(lambda: exact_sample(make_ref2(), [500, 500], 200_000, seed=0))
    assert peak <= 9e6, f"tracemalloc peak {peak / 1e6:.2f} MB"


# --- normalized sum law ----------------------------------------------------------


def test_normalized_law_clt_variance():
    law = normalized_sum_law(make_cw(TINY_J, 0.0), [2000], [0.0], k=1)
    assert abs(law.variance() - 1.0) < 0.01


def test_normalized_law_conditioned_variance():
    law = normalized_sum_law(make_cw(1.2, 0.0), [2000], [MU0_J12], k=1,
                             condition_ball=0.3)
    assert abs(law.variance() - CHI_J12) / CHI_J12 < 0.05


def test_normalized_law_variance_is_one_dimensional():
    law = normalized_sum_law(make_ref2(), [10, 10], [0.0, 0.0], k=1)
    with pytest.raises(DimensionMismatch):
        law.variance()


def test_normalized_law_empty_condition():
    with pytest.raises(EmptyCondition):
        normalized_sum_law(make_cw(1.0, 0.0), [100], [5.0], k=1,
                           condition_ball=0.5)


@pytest.mark.parametrize("J,sizes,center", [
    (((-1e308,),), [60], [1.0]),
    (((-1e308, 0.0), (0.0, 1.0)), [30, 30], [1.0, 0.0]),
], ids=["n1", "n2"])
def test_a_ball_of_minus_inf_weights_captures_no_mass(J, sizes, center):
    # an antiferromagnetic species makes the diagonal term even in S: at |m_1| = 1
    # it is -inf, while the weights at m_1 = 0 stay finite
    n = len(sizes)
    model = validate_model(ModelSpec(n=n, alpha=(1.0 / n,) * n, J=J, h=(0.0,) * n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyCondition, match="captures no probability mass"):
            normalized_sum_law(model, sizes, center, k=1, condition_ball=0.01)


@pytest.mark.parametrize("k", [0, -1, 1.5, True])
def test_normalized_law_type_must_be_a_positive_integer(k):
    # k = 0 divided by zero; -1 and 1.5 rescaled the law by N^(-1/2), N^(1/3)
    with pytest.raises(ConfigParse):
        normalized_sum_law(make_cw(0.5, 0.0), [10], [0.0], k=k)


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


def test_sample_files_are_written_and_read_a_block_of_rows_at_a_time(tmp_path):
    # the benchmark's ref2 sample: 200 000 rows, a 3.2 MB array and a 1.5 MB file
    s = exact_sample(make_ref2(), [500, 500], 200_000, seed=11)
    path = str(tmp_path / "s.csv")
    read = []
    write_peak = _peak_bytes(lambda: write_samples_csv(s, path))
    read_peak = _peak_bytes(lambda: read.append(read_samples_csv(path)))
    assert np.array_equal(read[0].sums, s.sums)
    assert write_peak <= 6e6, f"write_samples_csv peak {write_peak / 1e6:.1f} MB"
    assert read_peak <= 6e6, f"read_samples_csv peak {read_peak / 1e6:.1f} MB"


@pytest.mark.parametrize("body", ["", "\n  \n\n"])
def test_a_sample_file_without_rows_reads_without_warnings(tmp_path, body):
    path = tmp_path / "empty.csv"
    path.write_text("# meanfield-lab samples v1\n# n=2\n# N=[3, 5]\n# seed=7\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_samples_csv(str(path)).sums.shape == (0, 2)


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


# --- special functions without scipy ----------------------------------------------


def ulps_apart(a, b):
    """Distance in units in the last place between two arrays of positive doubles."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


def test_log_factorial_equals_scipy_gammaln_bitwise_to_5000():
    from scipy.special import gammaln

    k = np.arange(5001.0)
    assert _log_factorial(k).tobytes() == gammaln(k + 1.0).tobytes()


def test_log_factorial_close_to_scipy_gammaln_up_to_1e7():
    # numpy's log may miss the C library's by one ulp; (x - 1/2) ln x turns
    # that into at most two ulp of ln k!, as at k = 351496 on AVX-512 hosts
    from scipy.special import gammaln

    k = np.unique(np.concatenate([np.round(np.geomspace(1.0, 1e7, 3000)),
                                  [11, 12, 998, 999, 1000, 351496, 1e7]]))
    assert ulps_apart(_log_factorial(k), gammaln(k + 1.0)).max() <= 2
    # past 1e8 both take the bare Stirling sum
    far = np.array([1e8 - 1, 1e8, 1e8 + 1, 1e12])
    assert ulps_apart(_log_factorial(far), gammaln(far + 1.0)).max() <= 2


def test_log_count_takes_any_order_and_agrees_with_the_lattice_table():
    N = 1200
    T = _log_factorial(np.arange(N + 1.0))
    k = np.array([[600, 0], [1200, 37], [999, 12]])
    m = (2.0 * k - N) / N
    assert log_count(N, m).tobytes() == (T[N] - (T[k] + T[N - k])).tobytes()
    assert log_count(N, m[1, 1]) == float(T[N] - (T[37] + T[N - 37]))


def test_non_integral_sizes_are_refused():
    ref2 = make_ref2()
    for bad in ([200.9, 200.9], [float("nan")] * 2, [float("inf")] * 2,
                ["a", "b"], [True, True]):
        with pytest.raises(BadSizes):
            finite_pressure(ref2, bad)
    with pytest.raises(DimensionMismatch):
        finite_pressure(ref2, [[200], [200, 1]])
    # integral floats are sizes; p_N divides by the validated total
    p = finite_pressure(ref2, np.array([200.0, 200.0]))
    assert p == log_partition(ref2, [200, 200]) / 400.0


@pytest.mark.parametrize("M", [-1, -3, 2.5, 10.0, "10", None, True])
def test_sample_count_must_be_a_non_negative_integer(M):
    with pytest.raises(ConfigParse):
        exact_sample(make_cw(0.5, 0.0), [10], M, seed=1)


# ref2 at [20000, 20000] has 20001^2 ~ 4e8 lattice points and ref3 at [400, 600, 1000]
# 2.4e8, over the one cap of 1e8; the check runs before anything is allocated (the n >= 3
# moments build no weights: the cap is the lattice's own)
_ENTRY_POINTS = {
    "finite_pressure": lambda m, sizes: finite_pressure(m, sizes),
    "magnetization_law": lambda m, sizes: magnetization_law(m, sizes),
    "exact_moments": lambda m, sizes: exact_moments(m, sizes),
    "exact_sample": lambda m, sizes: exact_sample(m, sizes, 10, seed=1),
    "normalized_sum_law": lambda m, sizes: normalized_sum_law(m, sizes, [0.0] * m.n, k=1),
}


@pytest.mark.parametrize("name,n", [(e, n) for n in (2, 3) for e in _ENTRY_POINTS],
                         ids=[e if n == 2 else f"{e}-n3" for n in (2, 3) for e in _ENTRY_POINTS])
def test_every_lattice_entry_point_refuses_a_lattice_over_the_cap(monkeypatch, name, n):
    def allocation(*args, **kwargs):
        raise AssertionError("allocated before the cap")

    monkeypatch.setattr(exact_module, "_axis_term", allocation)
    monkeypatch.setattr(_moments, "_axis_term", allocation)
    model, sizes = (make_ref2(), [20000, 20000]) if n == 2 else (make_ref3(), [400, 600, 1000])
    with pytest.raises(LatticeTooLarge):
        _ENTRY_POINTS[name](model, sizes)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_sample_seed_must_be_a_non_negative_integer(seed):
    # 1.5 drew seed 1's stream and recorded seed=1; True was taken as 1;
    # -1 raised numpy's untyped ValueError
    with pytest.raises(ConfigParse):
        exact_sample(make_cw(0.5, 0.0), [10], 5, seed=seed)


def test_sample_seed_may_be_a_numpy_integer():
    sample = exact_sample(make_cw(0.5, 0.0), [10], 5, seed=np.int64(3))
    assert sample.seed == 3
    assert np.array_equal(sample.sums, exact_sample(make_cw(0.5, 0.0), [10], 5, seed=3).sums)


@pytest.mark.parametrize("center", [[math.nan], [math.inf]])
def test_normalized_law_refuses_a_non_finite_center(center):
    # a nan centre gave a law whose every point was nan
    with pytest.raises(DomainError):
        normalized_sum_law(make_cw(0.5, 0.0), [10], center, k=1)


@pytest.mark.parametrize("center,error", [([math.nan], DomainError),
                                          ([0.0, 0.0], DimensionMismatch)])
def test_normalized_law_refuses_a_bad_center_before_any_lattice_work(monkeypatch, center,
                                                                     error):
    # the whole magnetization law was built first, then refused
    def lattice_work(*args, **kwargs):
        raise AssertionError("lattice work started")

    monkeypatch.setattr(exact_module, "_lattice_log_weights", lattice_work)
    with pytest.raises(error):
        normalized_sum_law(make_cw(0.5, 0.0), [10], center, k=1)


# --- the lattice-backed sum law and rows longer than a block -------------------------


def _peak_bytes(call) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _lopsided():
    """Two species with alpha (0.01, 0.99): rows of axis 0 are 99 times longer than axis 0."""
    return validate_model(ModelSpec(n=2, alpha=(0.01, 0.99), J=((1.0, 0.5), (0.5, 1.0)),
                                    h=(0.1, 0.0)))


def _twin2():
    """Two species with two symmetric maxima at x = (m, m), m = tanh(1.25 m)."""
    return validate_model(ModelSpec(n=2, alpha=(0.5, 0.5), J=((1.5, 1.0), (1.0, 1.5)),
                                    h=(0.0, 0.0)))


def test_rows_longer_than_a_block_are_cut_along_axis_1_bit_for_bit(monkeypatch):
    cases = [(_lopsided(), [20, 1980], [0.3, 0.2], 0.5),
             (make_ref3(), [20, 30, 50], [0.1, -0.3, 0.0], 0.4)]

    def run(model, sizes, center, ball):
        law = normalized_sum_law(model, sizes, center, k=1, condition_ball=ball)
        return (log_partition(model, sizes), magnetization_law(model, sizes).log_weights,
                law.points, law.probs)

    whole = [run(*case) for case in cases]
    monkeypatch.setattr(exact, "_BLOCK", 1 << 10)
    for (model, sizes, center, ball), want in zip(cases, whole):
        lattice = MagLattice(np.asarray(sizes))
        keys = _Weights(model.J, model.h, lattice).keys()
        assert any(key[1] != slice(0, lattice.shape[1]) for key in keys)    # rows are cut
        for got, old in zip(run(model, sizes, center, ball), want):
            assert np.asarray(got).tobytes() == np.asarray(old).tobytes()
        # the moments add up the cut rows in another order
        mom = exact_moments(model, sizes)
        monkeypatch.setattr(exact, "_BLOCK", 1 << 16)
        ref = exact_moments(model, sizes)
        monkeypatch.setattr(exact, "_BLOCK", 1 << 10)
        assert np.allclose(mom.mean, ref.mean, rtol=1e-13, atol=0)
        assert np.allclose(mom.second, ref.second, rtol=1e-13, atol=0)


def test_log_partition_on_rows_longer_than_a_block_holds_a_few_blocks():
    # rows of 199961 points; each was one block, and the pass held six rows (9.6 MB)
    model = validate_model(ModelSpec(n=2, alpha=(0.0002, 0.9998), J=((1.0, 0.5), (0.5, 1.0)),
                                     h=(0.1, 0.0)))
    peak = _peak_bytes(lambda: log_partition(model, [40, 199960]))
    assert peak <= 3e6, f"tracemalloc peak {peak / 1e6:.2f} MB"


def test_three_species_log_partition_folds_each_blocks_prefix_on_its_own_rows():
    # -N ln 2 + axis_0 + axis_1 was held over all 4001 x 201 rows of the first two axes
    # (6.4 MB; the pass peaked at 8.65 MB)
    sizes = [4000, 200, 1]
    model = validate_model(ModelSpec(n=3, alpha=tuple(s / 4201 for s in sizes),
                                     J=((2.0, 0.3, -0.2), (0.3, 1.5, 0.4), (-0.2, 0.4, 1.0)),
                                     h=(0.1, -0.2, 0.05)))
    peak = _peak_bytes(lambda: log_partition(model, sizes))
    assert peak < 4e6, f"tracemalloc peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("ball", [None, 0.3])
def test_sum_law_and_its_covariance_hold_about_one_float_per_point(ball):
    # the (points, n) table and the two (points, n) temporaries of cov() took
    # 56 B per point, 72 B with a ball
    ref2 = make_ref2()
    center = pressure_limit(ref2).maxima[0].point.x
    normalized_sum_law(ref2, [20, 20], center, k=1, condition_ball=ball).cov()
    peak = _peak_bytes(lambda: normalized_sum_law(ref2, [1000, 1000], center, k=1,
                                                  condition_ball=ball).cov())
    assert peak <= 10 * 1001 ** 2, f"{peak / 1001 ** 2:.1f} B per point"


def _fsum_cov(law) -> np.ndarray:
    """The covariance of the law's listed points, every sum a math.fsum."""
    pts, p = law.points, law.probs
    n = pts.shape[1]
    d = pts - np.array([math.fsum((p * pts[:, l]).tolist()) for l in range(n)])
    return np.array([[math.fsum((p * d[:, i] * d[:, j]).tolist()) for j in range(n)]
                     for i in range(n)])


@pytest.mark.parametrize("case", ["ref2-300", "ref2-1000", "crit2-300", "twin2-ball"])
def test_exact_cov_is_symmetric_and_matches_an_fsum_reference(case):
    # the (points, n) product summed by BLAS was 3.6e-14 off on ref2 [300, 300]
    # and 4.9e-14 off on crit2, and not symmetric on ref2 [1000, 1000] or crit2
    crit2 = validate_model(ModelSpec(n=2, alpha=(0.5, 0.5), J=((2.0, 0.0), (0.0, 2.0)),
                                     h=(0.0, 0.0)))
    ref2 = make_ref2()
    mu = pressure_limit(ref2).maxima[0].point.x
    plus = max(pressure_limit(_twin2()).maxima, key=lambda c: c.point.x[0]).point.x
    model, sizes, center, k, ball = {
        "ref2-300": (ref2, [300, 300], mu, 1, None),
        "ref2-1000": (ref2, [1000, 1000], mu, 1, None),
        "crit2-300": (crit2, [300, 300], [0.0, 0.0], 2, None),
        "twin2-ball": (_twin2(), [200, 200], plus, 1, 0.3)}[case]
    law = normalized_sum_law(model, sizes, center, k=k, condition_ball=ball)
    cov = law.cov()
    assert np.array_equal(cov, cov.T)
    assert np.max(np.abs(cov - _fsum_cov(law))) <= 4.4e-16


@pytest.mark.parametrize("model,sizes,center,ball", [
    (_twin2(), [200, 200], [0.7, 0.7], 0.3),       # ten mask chunks
    (make_cw(1.2, 0.0), [20000], [MU0_J12], 0.3),
    (make_ref3(), [20, 30, 50], [0.1, -0.3, 0.0], 0.4),
    (make_ref2(), [300, 300], [0.35, 0.0], None),
])
def test_sum_law_lists_the_points_and_probs_of_the_table_formula(model, sizes, center, ball):
    law = normalized_sum_law(model, sizes, center, k=1, condition_ball=ball)
    mag = magnetization_law(model, sizes)
    z, lw = mag.points(), mag.log_weights.ravel()
    if ball is not None:
        mask = np.linalg.norm(z - np.array(center)[None, :], axis=1) <= ball
        z, lw = z[mask], lw[mask]
        lw = lw - _lse(lw)
    z = (z - np.array(center)) * mag.lattice.sizes ** 0.5
    assert law.points.tobytes() == z.tobytes()
    assert law.probs.tobytes() == np.exp(lw).tobytes()


@pytest.mark.parametrize("J,h,ball", [(0.5, 0.1, None), (0.5, 0.1, 0.004), (0.5, 0.0, None)])
def test_one_species_moments_sum_the_nonzero_window_with_the_whole_lattice_bits(
        monkeypatch, J, h, ball):
    # math.fsum is exact, so the zeros of P outside its nonzero window add nothing
    model = make_cw(J, h)
    mu = pressure_limit(model).maxima[0].point.x
    law = normalized_sum_law(model, [200000], mu, k=1, condition_ball=ball)
    z, P = law.axis(0), law.P
    mean = math.fsum((z * P).tolist())
    var = math.fsum((P * (z - mean) ** 2).tolist())
    terms = []
    fsum = exact_module._fsum
    monkeypatch.setattr(exact_module, "_fsum",
                        lambda chunks: fsum(c for c in chunks if terms.append(c.size) or True))
    got_mean, got_cov = law._moments()
    assert np.array([mean]).tobytes() == got_mean.tobytes()
    assert np.array([[var]]).tobytes() == got_cov.tobytes()
    nonzero = np.flatnonzero(P)
    assert sum(terms) == 2 * (nonzero[-1] + 1 - nonzero[0]) < P.size // 4


@pytest.mark.parametrize("center,radius", [
    ([math.nan], 0.3), ([math.inf], 0.3), ([MU0_J12], math.nan), ([MU0_J12], -1.0),
])
def test_normalized_law_refuses_a_bad_ball_as_a_config_error_before_any_work(
        monkeypatch, center, radius):
    def work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(exact_module, "magnetization_law", work)
    with pytest.raises(ConfigParse, match="finite center and a radius >= 0"):
        normalized_sum_law(make_cw(1.2, 0.0), [100], center, k=1, condition_ball=radius)


def test_normalized_law_takes_an_infinite_ball_as_no_bound():
    model = make_cw(1.2, 0.0)
    whole = normalized_sum_law(model, [100], [MU0_J12], k=1)
    law = normalized_sum_law(model, [100], [MU0_J12], k=1, condition_ball=math.inf)
    assert law.mask.all() and law.P.tobytes() == whole.P.tobytes()


# --- overflowing lattice weights and the two passes of the n >= 3 moments -------------


def _overflowing_ref3():
    ref3 = make_ref3()
    return validate_model(ModelSpec(n=3, alpha=tuple(ref3.alpha), J=tuple(map(tuple, ref3.J)),
                                    h=(8.78e307, -0.2, 0.05)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")      # numpy's overflow, before the guard
@pytest.mark.parametrize("entry", ["log_partition", "finite_pressure", "magnetization_law",
                                   "moments n=1", "moments n=3", "exact_sample",
                                   "normalized_sum_law", "likelihood"])
def test_overflowing_lattice_weights_are_a_domain_error(entry):
    # h S overflows to +inf at h = 8.78e307: ln Z was inf, p_N and the moments
    # nan, and every draw was S = 4, though the law puts all its mass at S = 60
    from meanfield_lab.inverse import _sample_log_likelihood

    big = make_cw(0.001, 8.78e307)
    sample = SampleSet(sizes=np.array([60]), seed=1, sums=np.full((3, 1), 60))
    call = {
        "log_partition": lambda: log_partition(big, [60]),
        "finite_pressure": lambda: finite_pressure(big, [60]),
        "magnetization_law": lambda: magnetization_law(big, [60]),
        "moments n=1": lambda: exact_moments(big, [60]),
        "moments n=3": lambda: exact_moments(_overflowing_ref3(), [12, 18, 30]),
        "exact_sample": lambda: exact_sample(big, [60], 5, 1),
        "normalized_sum_law": lambda: normalized_sum_law(big, [60], [1.0], k=1),
        "likelihood": lambda: _sample_log_likelihood(sample, big.J, big.h, np.array([1.0])),
    }[entry]
    with pytest.raises(DomainError, match="overflow"):
        call()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_a_block_maximum_of_inf_or_nan_is_an_overflow(bad):
    # in a later block, where Python's max over the block maxima would drop a nan
    for block in ([0.5, bad], [bad, 0.5]):
        with pytest.raises(DomainError):
            exact_module._lse_blocks(lambda: iter([np.array([-1.0, 0.0]), np.array(block)]))


def test_a_block_without_mass_is_no_overflow():
    # a maximum of -inf is a ball without mass, which its caller refuses as EmptyCondition
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exact_module._lse_blocks(lambda: iter([np.full(2, -math.inf)])) == -math.inf


def test_three_species_moments_evaluate_no_lattice_block_and_repeat_bit_for_bit(monkeypatch):
    # the marginals come from the factored weight: no block of W, no bitwise ln Z
    model, sizes = make_ref3(), [60, 90, 150]

    def refuse(*args, **kwargs):
        raise AssertionError("a lattice block or the bitwise normaliser ran")

    monkeypatch.setattr(_Weights, "block", refuse)
    monkeypatch.setattr(exact_module, "_lse_blocks", refuse)
    want, got = exact_moments(model, sizes), exact_moments(model, sizes)
    assert got.mean.tobytes() == want.mean.tobytes()
    assert got.second.tobytes() == want.second.tobytes()


@pytest.mark.parametrize("sizes,ball", [([40, 60, 100], None), ([60, 90, 150], 0.3)])
def test_three_species_exact_cov_is_symmetric_and_matches_an_fsum_reference(sizes, ball):
    # n >= 3 is the only case with a pair off axis 0, contracted from its own marginal
    ref3 = make_ref3()
    law = normalized_sum_law(ref3, sizes, pressure_limit(ref3).maxima[0].point.x, k=1,
                             condition_ball=ball)
    cov = law.cov()
    assert np.array_equal(cov, cov.T)
    assert np.max(np.abs(cov - _fsum_cov(law))) <= 4.4e-16


def test_three_species_moments_skip_leading_blocks_without_mass():
    # J_00 = -1.7e308 leaves mass only at S_0 = 0: 240 of the 246 blocks, cut along
    # axis 1, have maximum -inf, the first of them too; subtracting a running maximum
    # of -inf gave nan
    model = validate_model(ModelSpec(n=3, alpha=(1 / 16, 15 / 32, 15 / 32),
                                     J=((-1.7e308, 0.1, 0.0), (0.1, 1.0, 0.2), (0.0, 0.2, 1.0)),
                                     h=(0.0, 0.1, -0.1)))
    sizes = [40, 300, 300]
    weights = _Weights(model.J, model.h, MagLattice(np.asarray(sizes)))
    keys = list(weights.keys())
    assert len(keys) == 246 and all(k[1] != slice(0, 301) for k in keys)
    assert weights.block(keys[0]).max() == -math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = exact_moments(model, sizes)
    # the two-pass reduction's mean, which subtracted the global maximum
    want = [0.0, 0.157135258217754, -0.157135258217754]
    np.testing.assert_allclose(got.mean, want, rtol=1e-13, atol=0.0)


_SAMPLE_HEAD = "# meanfield-lab samples v1\n# n=2\n# N=[3, 5]\n# seed=7\n"


@pytest.mark.parametrize("body,newline,sums", [
    (" 1 ,  -3\n-3\t,\t5\t\n", "\n", [[1, -3], [-3, 5]]),             # spaces and tabs
    ("\f1,-3\v\n\v-3,5\f\n", "\n", [[1, -3], [-3, 5]]),               # form feeds, vertical tabs
    ("+1,01\n-0,-03\n", "\n", [[1, 1], [0, -3]]),                    # signs and leading zeros
    ("1,-3\n-3,5\n", "\r\n", [[1, -3], [-3, 5]]),                    # CRLF line ends
    ("1,-3\n-3,5\n", "\r", [[1, -3], [-3, 5]]),                      # CR-only line ends
    ("1,-3\n-3,5", "\n", [[1, -3], [-3, 5]]),                        # no final newline
    ("1,-3\n\n  \n\t\n\f\n\v\n-3,5\n\n", "\n", [[1, -3], [-3, 5]]),  # blank lines between rows
    ("1,-3\n \n\n-3,5\n", "\r\n", [[1, -3], [-3, 5]]),               # the same with CRLF
])
def test_sample_reader_accepts(tmp_path, body, newline, sums):
    path = tmp_path / "ok.csv"
    path.write_bytes((_SAMPLE_HEAD + body).replace("\n", newline).encode())
    got = read_samples_csv(str(path))
    assert got.sums.dtype == np.int64 and got.sums.tolist() == sums
    assert got.sizes.tolist() == [3, 5] and got.seed == 7


@pytest.mark.parametrize("row", [
    "1,- 3", "1,--3", "1,3e0", "1,0x3",
    "1,３",                       # a full-width digit
    "1,99999999999999999999",         # past int64
    "1,", ",3", "1,,3", "1,3,", "1;3", "1,1_0",
    "#x", "# x",                      # comments after the body
])
def test_sample_reader_refuses(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_bytes((_SAMPLE_HEAD + "1,-3\n" + row + "\n").encode())
    with pytest.raises(ConfigParse):
        read_samples_csv(str(path))


_INT64 = np.iinfo(np.int64)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("M", [0, 1, 4095, 4096, 4097, 2 ** 16 + 1])
def test_sample_writer_bytes_match_a_row_template(tmp_path, n, M):
    rng = np.random.default_rng(1000 * n + M)
    sums = rng.integers(-60, 61, size=(M, n))     # narrow columns, as lattice sums are
    if n > 1:                                     # a wide column with repeated values
        wide = rng.integers(_INT64.min, _INT64.max, size=M, dtype=np.int64, endpoint=True)
        sums[:, 1] = np.where(rng.random(M) < 0.5, wide, sums[:, 1])
    if n > 2:                                     # a narrow column at the top of int64
        sums[:, 2] += _INT64.max - 60
    edges = np.array([0, _INT64.max, -_INT64.max, _INT64.min], dtype=np.int64)
    flat = sums.reshape(-1)
    flat[:min(flat.size, 4)] = edges[:min(flat.size, 4)]
    sizes = np.arange(1, n + 1)
    path = tmp_path / "s.csv"
    write_samples_csv(SampleSet(sizes=sizes, seed=3, sums=sums), str(path))
    head = (f"# meanfield-lab samples v1\n# n={n}\n"
            f"# N=[{', '.join(str(v) for v in sizes)}]\n# seed=3\n")
    want = head + "".join([",".join(["%d"] * n) + "\n"] * M) % tuple(sums.ravel().tolist())
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("width", [exact._CHUNK - 1, exact._CHUNK])
@pytest.mark.parametrize("lo", [-3000, _INT64.min, _INT64.max - exact._CHUNK])
def test_a_column_narrower_than_a_block_formats_its_cells_once_per_file(monkeypatch, tmp_path,
                                                                        width, lo):
    # the two sides of the writer's rule: a table of cells over the column's span, or
    # each block's distinct values formatted anew
    rng = np.random.default_rng(width)
    M = 3 * exact._CHUNK + 7
    sums = np.column_stack([lo + rng.integers(0, width, size=M, endpoint=True),
                            rng.integers(-5, 6, size=M)])
    sums[[5, -5], 0] = lo, lo + width
    calls = _count_unique(monkeypatch)
    path = tmp_path / "s.csv"
    write_samples_csv(SampleSet(sizes=np.array([1, 2]), seed=3, sums=sums), str(path))
    want = "# meanfield-lab samples v1\n# n=2\n# N=[1, 2]\n# seed=3\n"
    want += "".join(["%d,%d\n"] * M) % tuple(sums.ravel().tolist())
    assert path.read_bytes() == want.encode()
    assert len(calls) == (0 if width < exact._CHUNK else 4)


def _count_unique(monkeypatch) -> list[int]:
    """The sizes of the arrays np.unique is called on from now on."""
    calls = []

    def unique(col, *args, inner=np.unique, **kwargs):
        calls.append(col.size)
        return inner(col, *args, **kwargs)

    monkeypatch.setattr(np, "unique", unique)
    return calls


@pytest.mark.parametrize("lo", [-3000, _INT64.min, _INT64.max - 2 * exact._CHUNK])
def test_a_wide_column_of_narrow_blocks_formats_each_blocks_values_from_unique(monkeypatch,
                                                                              tmp_path, lo):
    # sorted draws: the column spans more than a block's rows over the file, so it has no
    # table of cells, while each block spans fewer values than it has rows
    rng = np.random.default_rng(7)
    M = 3 * exact._CHUNK + 7
    sums = np.column_stack([np.sort(lo + rng.integers(0, 2 * exact._CHUNK, size=M)),
                            rng.integers(-5, 6, size=M)])
    sums[[0, -1], 0] = lo, lo + 2 * exact._CHUNK
    blocks = [sums[a:a + exact._CHUNK, 0] for a in range(0, M, exact._CHUNK)]
    assert all(int(b.max()) - int(b.min()) < b.size for b in blocks)
    calls = _count_unique(monkeypatch)
    path = tmp_path / "s.csv"
    write_samples_csv(SampleSet(sizes=np.array([1, 2]), seed=3, sums=sums), str(path))
    want = "# meanfield-lab samples v1\n# n=2\n# N=[1, 2]\n# seed=3\n"
    want += "".join(["%d,%d\n"] * M) % tuple(sums.ravel().tolist())
    assert path.read_bytes() == want.encode()
    assert calls == [b.size for b in blocks]


def test_a_narrow_column_is_formatted_once_per_file_though_each_block_brings_new_values(
        monkeypatch, tmp_path):
    # block k holds only the values 10k ... 10k + 9, so each block meets values no block
    # before it had; the whole span's cells are formatted once, before the first block
    M = 3 * exact._CHUNK
    sums = (np.arange(M) // exact._CHUNK * 10 + np.arange(M) % 10)[:, None]
    calls = []

    def cells(v, *args, inner=exact_module._cells):
        calls.append(v.size)
        return inner(v, *args)

    monkeypatch.setattr(exact_module, "_cells", cells)
    path = tmp_path / "s.csv"
    write_samples_csv(SampleSet(sizes=np.array([100]), seed=3, sums=sums), str(path))
    want = "# meanfield-lab samples v1\n# n=1\n# N=[100]\n# seed=3\n"
    want += "".join(["%d\n"] * M) % tuple(sums.ravel().tolist())
    assert path.read_bytes() == want.encode()
    assert calls == [30]


def test_a_column_spanning_more_values_than_the_file_has_rows_formats_its_rows_values(
        monkeypatch, tmp_path):
    # 5 rows over a span of 1000 values: the first column is narrower than a block but not
    # than the file, so its 5 values go through np.unique, not a table of 1001 cells; the
    # second spans 4 values and takes the table
    sums = np.array([[0, 2], [1000, -2], [500, 0], [0, 2], [1, 0]])
    calls = _count_unique(monkeypatch)
    path = tmp_path / "s.csv"
    write_samples_csv(SampleSet(sizes=np.array([1000, 4]), seed=3, sums=sums), str(path))
    want = "# meanfield-lab samples v1\n# n=2\n# N=[1000, 4]\n# seed=3\n"
    want += "".join(["%d,%d\n"] * 5) % tuple(sums.ravel().tolist())
    assert path.read_bytes() == want.encode()
    assert calls == [5]


class _Reached(Exception):
    pass


@pytest.mark.parametrize("n,M,refused", [
    (1, 10 ** 12, True), (2, 5 * 10 ** 7 + 1, True), (2, 5 * 10 ** 7, False),
    (2, np.int64(2 ** 62), True),                # M n overflows int64
])
def test_exact_sample_bounds_its_sums_before_any_lattice_work(monkeypatch, n, M, refused):
    def lattice_work(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(exact_module, "magnetization_law", lattice_work)
    model, sizes = (make_cw(1.2, 0.0), [10]) if n == 1 else (make_ref2(), [10, 10])
    with pytest.raises(LatticeTooLarge if refused else _Reached):
        exact_sample(model, sizes, M, seed=0)


@pytest.mark.parametrize("name", ["s.csv.gz", "s.bz2", "s.xz", "s.lzma"])
def test_a_sample_file_with_a_compressed_suffix_reads_as_plain_text(tmp_path, name):
    # numpy's file reader would decompress these names; the file is read as written
    path = tmp_path / name
    path.write_text(_SAMPLE_HEAD + "1,-3\n-3,5\n")
    assert read_samples_csv(str(path)).sums.tolist() == [[1, -3], [-3, 5]]


def test_log_count_refuses_a_non_finite_mean_without_a_warning():
    # k - rint(k) at k = inf warned "invalid value" before OffLattice
    for m in [math.inf, -math.inf, math.nan, [0.2, math.inf], 1e308]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OffLattice):
                log_count(10, m)


def _full_array_block(J, h, sizes, key):
    """``_full_array_weights`` on one block's index ranges: the same expression per entry,
    each axis vector laid on the block by an explicit reshape."""
    lattice = MagLattice(np.asarray(sizes))
    n, N = lattice.n, lattice.total
    S = [lattice.sum_axis(l).astype(float)[k] for l, k in enumerate(key)]
    W = np.full([len(s) for s in S], -N * math.log(2.0))
    for l, k in enumerate(key):
        T = _log_factorial(np.arange(sizes[l] + 1.0))
        counts = (T[sizes[l]] - (T + T[::-1]))[k]
        W += (counts + h[l] * S[l] + J[l, l] * S[l] ** 2 / (2.0 * N)).reshape(
            [-1 if a == l else 1 for a in range(n)])
    for l in range(n):
        for s in range(l + 1, n):
            W += ((J[l, s] / N) * np.multiply.outer(S[l], S[s])).reshape(
                [len(S[a]) if a in (l, s) else 1 for a in range(n)])
    return W


def test_weight_blocks_on_held_and_cut_row_lattices_keep_the_full_array_bits():
    # the axis terms and sums lie on numpy's open mesh (np.ix_): on ref2's held factors,
    # cut to each block's rows, and on the per-block factors of rows cut along axis 1
    elongated = validate_model(ModelSpec(n=2, alpha=(0.0002, 0.9998),
                                         J=((1.0, 0.5), (0.5, 1.0)), h=(0.1, 0.0)))
    for model, sizes, held, every in [(make_ref2(), [1600, 1600], True, 1),
                                      (elongated, [100, 499900], False, 37)]:
        weights = _Weights(model.J, model.h, MagLattice(np.asarray(sizes)))
        assert (weights._factors is not None) == held
        keys = list(weights.keys())[::every]
        assert held or all(key[1] != slice(0, sizes[1] + 1) for key in keys)
        for key in keys:
            want = _full_array_block(model.J, model.h, sizes, key)
            assert weights.block(key).tobytes() == want.tobytes()
