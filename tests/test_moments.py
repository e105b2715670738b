"""The n >= 3 moments' tilted contractions (``_moments``) against whole-lattice sums."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from meanfield_lab import ModelSpec, _moments, exact_moments, validate_model

REF3 = {"n": 3, "alpha": (0.2, 0.3, 0.5), "h": (0.1, -0.2, 0.05),
        "J": ((2.0, 0.3, -0.2), (0.3, 1.5, 0.4), (-0.2, 0.4, 1.0))}
REF4 = {"n": 4, "alpha": (0.1, 0.2, 0.3, 0.4), "h": (0.1, -0.2, 0.05, 0.0),
        "J": ((2.0, 0.3, -0.2, 0.1), (0.3, 1.5, 0.4, 0.0), (-0.2, 0.4, 1.0, 0.2),
              (0.1, 0.0, 0.2, 1.2))}
STRONG = dict(REF3, J=((2.0, 4.0, -0.2), (4.0, 1.5, 0.4), (-0.2, 0.4, 1.0)))
INDEFINITE = dict(REF3, J=((0.5, 1.2, -0.3), (1.2, -0.8, 0.6), (-0.3, 0.6, 1.1)))
NO_MASS_OFF_2_OF_4 = {"n": 4, "alpha": (1 / 22, 15 / 44, 1 / 22, 25 / 44),
                      "h": (0.1, -0.2, 0.05, 0.0),
                      "J": ((2.0, 0.3, -0.2, 0.1), (0.3, 1.5, 0.4, 0.0),
                            (-0.2, 0.4, -1.7e308, 0.2), (0.1, 0.0, 0.2, 1.2))}
# two rows a chunk, and W spans thousands below its top: most chunks are skipped
STRONGER = dict(REF3, J=((2.0, 40.0, -40.0), (40.0, 1.5, 0.4), (-40.0, 0.4, 1.0)))
# one row a chunk, and the law spreads along the ridge S_0 = S_1: no chunk is skipped
RIDGE = {"n": 3, "alpha": (0.3, 0.3, 0.4), "h": (0.0, 0.0, 0.05),
         "J": ((-400.0, 400.0, 0.2), (400.0, -400.0, 0.3), (0.2, 0.3, 1.0))}
# sum_s |K_0s| N_s ~ 1e-308: 32 over it overflows a float
TINY_CROSS = dict(REF3, J=((2.0, 1e-307, 0.0), (1e-307, 1.5, 0.4), (0.0, 0.4, 1.0)))
NO_MASS_OFF_0 = {"n": 3, "alpha": (1 / 16, 15 / 32, 15 / 32), "h": (0.0, 0.1, -0.1),
                 "J": ((-1.7e308, 0.1, 0.0), (0.1, 1.0, 0.2), (0.0, 0.2, 1.0))}
NO_MASS_OFF_2 = dict(NO_MASS_OFF_0, alpha=(1 / 36, 5 / 12, 5 / 9),
                     J=((1.0, 0.1, 0.0), (0.1, 1.0, 0.2), (0.0, 0.2, -1.7e308)))


def _whole_lattice_moments(spec, sizes):
    """Mean and second moment from one np.longdouble array of weights on the whole
    lattice: ln C(N_l, k) as running sums of ln((N_l - k + 1) / k), the quadratic form
    summed point by point, P = exp(W - max W) / sum."""
    J, h = np.array(spec["J"], np.longdouble), np.array(spec["h"], np.longdouble)
    n, N = len(sizes), sum(sizes)
    axes, W = [], np.zeros(tuple(N_l + 1 for N_l in sizes), np.longdouble)
    for l, N_l in enumerate(sizes):
        k = np.arange(1, N_l + 1, dtype=np.longdouble)
        counts = np.concatenate([[0.0], np.cumsum(np.log((N_l - k + 1) / k))])
        S = np.arange(-N_l, N_l + 1, 2).astype(np.longdouble)
        axes.append(S.reshape([-1 if a == l else 1 for a in range(n)]))
        W += (counts + h[l] * S + J[l, l] * S * S / (2 * N)).reshape(axes[l].shape)
    for l in range(n):
        for s in range(l + 1, n):
            W += J[l, s] * axes[l] * axes[s] / N
    P = np.exp(W - W.max())
    P /= P.sum()
    m = [S / N_l for S, N_l in zip(axes, sizes)]
    mean = np.array([(P * m_l).sum() for m_l in m], dtype=float)
    second = np.array([[(P * m_l * m_s).sum() for m_s in m] for m_l in m], dtype=float)
    return mean, second


@pytest.mark.parametrize("spec,sizes", [
    (REF3, [60, 90, 150]),
    (REF4, [10, 20, 30, 40]),
    (STRONG, [50, 75, 125]),          # three chunks of rows, see below
    (INDEFINITE, [20, 30, 50]),
    (NO_MASS_OFF_0, [16, 120, 120]),  # mass only at S_0 = 0
    (NO_MASS_OFF_2, [8, 120, 160]),   # only at S_2 = 0, in the first of two column blocks
    (NO_MASS_OFF_2_OF_4, [8, 60, 8, 100]),  # ... at its row 4 of 9, two rows a column block
    (STRONGER, [40, 60, 100]),
    (RIDGE, [30, 30, 40]),
    (TINY_CROSS, [20, 30, 50]),
], ids=["ref3", "ref4", "strong", "indefinite", "no-mass-off-0", "no-mass-off-2",
        "no-mass-off-2-of-4", "stronger", "ridge", "tiny-cross"])
def test_moments_match_whole_lattice_longdouble_sums(spec, sizes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = exact_moments(validate_model(ModelSpec(**spec)), sizes)
    mean, second = _whole_lattice_moments(spec, sizes)
    assert np.max(np.abs(got.mean - mean)) <= 1e-15
    assert np.max(np.abs(got.second - second)) <= 1e-15
    assert np.array_equal(got.second, got.second.T)


def test_the_oracle_cases_run_several_chunks_and_column_blocks():
    # a chunk of h rows tilts the exponent by (h - 1)(|K_01| N_1 + |K_02| N_2) = (h - 1) 1.3
    assert _moments._height(np.array(STRONG["J"]) / 250, (51, 76, 126)) == 25
    assert _moments._height(np.array(REF3["J"]) / 300, (61, 91, 151)) == 61
    assert _moments._FLOATS // 121 < 161         # NO_MASS_OFF_2's columns take two blocks
    assert _moments._height(np.array(STRONGER["J"]) / 200, (41, 61, 101)) == 2
    assert _moments._height(np.array(TINY_CROSS["J"]) / 100, (21, 31, 51)) == 21
    assert _moments._height(np.array(RIDGE["J"]) / 100, (31, 31, 41)) == 1
    assert _moments._FLOATS // 61 // 101 == 2    # NO_MASS_OFF_2_OF_4: the first two blocks


def test_strong_couplings_skip_the_chunks_far_below_the_top(monkeypatch):
    # 21 chunks of two rows on one column block: each takes one exp for U, and one for Y
    # only where its bound comes within 300 of the top, in fewer than half of them
    model, sizes = validate_model(ModelSpec(**STRONGER)), [40, 60, 100]
    calls = []
    exp = _moments._exp
    monkeypatch.setattr(_moments, "_exp", lambda E: calls.append(E.size) or exp(E))
    skipped = exact_moments(model, sizes)
    assert 21 < len(calls) < 21 + 21 / 2
    monkeypatch.setattr(_moments, "_FLOOR", -np.inf)    # no floor: every chunk, every exp
    calls.clear()
    every = exact_moments(model, sizes)
    assert len(calls) == 42
    assert np.max(np.abs(skipped.mean - every.mean)) <= 1e-15
    assert np.max(np.abs(skipped.second - every.second)) <= 1e-15


def test_exp_is_zero_below_the_floor_and_numpys_exp_above():
    E = np.concatenate([np.linspace(-1000.0, 0.0, 100_001), [-np.inf, _moments._FLOOR]])
    want = np.where(E < _moments._FLOOR, 0.0, np.exp(E))
    assert np.array_equal(_moments._exp(E.copy()), want)
    assert np.array_equal(_moments._exp(E[E >= -300.0].copy()), np.exp(E[E >= -300.0]))


@pytest.mark.parametrize("spec,sizes", [
    (REF3, [60, 90, 150]), (REF4, [10, 20, 30, 40]), (STRONG, [50, 75, 125]),
    (NO_MASS_OFF_0, [16, 120, 120]),  # one row a chunk: all chunks but one have no mass
    (STRONGER, [40, 60, 100]),
], ids=["ref3", "ref4", "strong", "no-mass-off-0", "stronger"])
def test_rows_one_at_a_time_move_the_moments_by_at_most_1e_15(monkeypatch, spec, sizes):
    model = validate_model(ModelSpec(**spec))
    chunked = exact_moments(model, sizes)
    monkeypatch.setattr(_moments, "_TILT", 0.0)        # height 1: no tilt, one row per chunk
    rows = exact_moments(model, sizes)
    assert np.max(np.abs(rows.mean - chunked.mean)) <= 1e-15
    assert np.max(np.abs(rows.second - chunked.second)) <= 1e-15


def test_four_species_moments_hold_no_lattice_sized_array():
    sizes = [25, 50, 75, 100]                   # 10.2 M points, 81 MB of weights
    assert math.prod(N_l + 1 for N_l in sizes) >= 10 ** 7
    model = validate_model(ModelSpec(**REF4))
    tracemalloc.start()
    try:
        exact_moments(model, sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, f"tracemalloc peak {peak / 1e6:.2f} MB"
