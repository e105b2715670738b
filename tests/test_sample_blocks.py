"""The sample fits walk their rows in blocks of ``_CHUNK``: the same bits and refusals as
the whole-array formulas, in bounded memory."""

import json
import tracemalloc

import numpy as np
import pytest

from meanfield_lab import (
    SampleSet,
    estimate_moments,
    exact_sample,
    invert_conditioned,
    invert_multi,
    mle_fit,
    read_samples_csv,
    write_samples_csv,
)
from meanfield_lab.cli import main
from meanfield_lab.errors import InconsistentRows
from meanfield_lab.exact import _CHUNK, LN2, MagLattice, _log_z
from meanfield_lab.inverse import _sample_log_likelihood

from conftest import MU0_J12, make_cw, make_ref2

MiB = 2 ** 20
SIZES = {1: [40], 2: [40, 60], 3: [20, 30, 50]}


def _valid_sums(rng, sizes, M):
    sizes = np.asarray(sizes)
    return 2 * rng.integers(0, sizes + 1, size=(M, len(sizes))) - sizes


@pytest.mark.parametrize("M", [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 200_000])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_likelihood_has_the_whole_array_formulas_bits(n, M):
    rng = np.random.default_rng(1000 * n + M)
    sizes = np.array(SIZES[n])
    sums = _valid_sums(rng, sizes, M)
    A = rng.normal(size=(n, n))
    J, h = A + A.T, rng.normal(size=n)
    got = _sample_log_likelihood(SampleSet(sizes=sizes, seed=0, sums=sums), J, h,
                                 sizes / sizes.sum())
    N = float(sizes.sum())
    ln_z = _log_z(J, h, MagLattice(sizes)) + N * LN2
    S = sums.astype(float)
    quad = np.zeros(M)
    for i in range(n):
        for j in range(n):
            quad += S[:, i] * J[i, j] * S[:, j]
    energies = 0.5 / N * quad + S @ h
    want = float(energies.sum() - M * ln_z)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("M", [2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, 10_000, 123_457])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_mean_has_the_whole_array_means_bits(n, M, layout):
    # numpy sums the rows of a C-order array in order, and one column or F order pairwise
    rng = np.random.default_rng(10 * n + M)
    sizes = np.array(SIZES[n])
    sums = np.asarray(_valid_sums(rng, sizes, M), order=layout)
    sample = SampleSet(sizes=sizes, seed=0, sums=sums)
    want = sample.magnetizations().mean(axis=0)
    assert estimate_moments(sample).mean.tobytes() == want.tobytes()


@pytest.mark.parametrize("M", [2, 3, _CHUNK + 1, 123_457])
@pytest.mark.parametrize("n", [4, 5])
def test_the_mean_of_four_and_five_species_has_the_whole_array_means_bits(n, M):
    rng = np.random.default_rng(10 * n + M)
    sizes = np.array([20, 30, 50, 70, 110][:n])
    sample = SampleSet(sizes=sizes, seed=0, sums=_valid_sums(rng, sizes, M))
    want = sample.magnetizations().mean(axis=0)
    assert estimate_moments(sample).mean.tobytes() == want.tobytes()


@pytest.mark.parametrize("model,sizes,center,radius", [
    (make_cw(1.2, 0.0), [400], [0.5], 0.25),            # m = 0.25 and 0.75 sit on the sphere
    (make_ref2(), [100, 100], [0.36, 0.0], 0.2),
], ids=["cw12", "ref2"])
def test_block_ball_mask_keeps_the_rows_of_the_whole_array_mask(model, sizes, center, radius):
    sample = exact_sample(model, sizes, 2 * _CHUNK + 1808, seed=5)
    m = sample.sums / sample.sizes[None, :].astype(float)
    dist = np.linalg.norm(m - np.asarray(center)[None, :], axis=1)
    mask = dist <= radius
    if len(sizes) == 1:
        assert np.any(dist == radius)
    whole = invert_multi(estimate_moments(
        SampleSet(sizes=sample.sizes, seed=sample.seed, sums=sample.sums[mask])), model.alpha)
    est = invert_conditioned(sample, center, radius, model.alpha)
    for name in ("J_hat", "h_hat", "chi_hat"):
        assert getattr(est, name).tobytes() == getattr(whole, name).tobytes()


def _two_fault_file(tmp_path, oversize=True):
    # a parity fault in the first block of rows and, past it, an oversize row in the third
    sums = np.full((3 * _CHUNK, 1), 2, dtype=np.int64)
    sums[5, 0] = 3
    if oversize:
        sums[2 * _CHUNK + 7, 0] = 12
    path = tmp_path / "faults.csv"
    write_samples_csv(SampleSet(sizes=np.array([10]), seed=0, sums=sums), str(path))
    return path


@pytest.mark.parametrize("fit", [
    estimate_moments,
    lambda s: invert_conditioned(s, [0.2], 0.5, [1.0]),
    lambda s: mle_fit(s, [1.0]),
], ids=["moments", "conditioned", "mle"])
@pytest.mark.parametrize("oversize,message", [(True, "exceed"), (False, "parity")])
def test_an_oversize_row_in_a_later_block_outranks_a_parity_fault(tmp_path, fit, oversize,
                                                                  message):
    sample = read_samples_csv(str(_two_fault_file(tmp_path, oversize)))
    with pytest.raises(InconsistentRows, match=message):
        fit(sample)


def test_cli_invert_says_exceed_on_the_two_fault_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"n": 1, "alpha": [1.0], "J": [[1.2]], "h": [0.0]}}))
    assert main(["invert", "--config", str(cfg), "--samples",
                 str(_two_fault_file(tmp_path))]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InconsistentRows" and "exceed" in err["message"]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mle_fit_holds_little_more_than_the_magnetizations():
    # 200 000 x 2 sums: 3.05 MiB of magnetizations; the whole-array passes peaked at 7.63
    model = make_ref2()
    sample = exact_sample(model, [500, 500], 200_000, seed=1)
    assert _traced_peak(lambda: mle_fit(sample, model.alpha)) <= 3.6 * MiB


def test_conditioned_inversion_never_holds_the_whole_samples_magnetizations():
    # 200 000 x 1 sums; the rows in the ball are copied and fitted; whole-array: 7.63 MiB
    model = make_cw(1.2, 0.0)
    sample = exact_sample(model, [1000], 200_000, seed=2)
    peak = _traced_peak(lambda: invert_conditioned(sample, [MU0_J12], 0.3, model.alpha))
    assert peak <= 2.5 * MiB
