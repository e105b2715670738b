"""The numpy special-function kernels of the limit laws, against scipy and mpmath.

scipy.special (from the ``test`` extra) is the oracle here; no module of the
package imports scipy.  The grids span every branch point of the Cephes
routines the kernels follow: ndtr's |x|/sqrt(2) = sqrt(1/2), 1 and 8 and its
underflow, and igam's x = 1, 1.1, the Lanczos window |a - x| <= 0.4 a and the
cut past which P(a, x) is exactly 1.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammainc, gammaln, ndtr

from meanfield_lab import (
    Gaussian,
    HigherOrder,
    HomogeneousForm,
    ModelSpec,
    build_limit_law,
    law_cdf_1d,
    pressure_limit,
    validate_model,
)
from meanfield_lab import _special
from meanfield_lab.limits import _log_form_integral

from conftest import make_cw

# a = 1/d: the igam arguments t = c |x|^d, dense around every branch point
T_GRID = np.unique(np.concatenate([
    [0.0], np.geomspace(1e-300, 1e-3, 2001), np.linspace(0.0, 1.5, 30001),
    np.linspace(1.5, 80.0, 15701)]))


def quartic_like(k: int, c: float) -> HigherOrder:
    form = HomogeneousForm(2 * k, (-c,), ((1.0,),))
    return HigherOrder(k=k, form=form, log_normalizer=_log_form_integral(form, 1))


@pytest.mark.parametrize("k,c", [(2, 1.0 / 12.0), (2, 3.0), (3, 0.225), (4, 0.5)])
def test_higher_order_cdf_is_within_1e15_of_scipy(k, c):
    d = 2 * k
    x = np.concatenate([-(T_GRID / c) ** (1.0 / d), (T_GRID / c) ** (1.0 / d)])
    got = law_cdf_1d(quartic_like(k, c), x)
    want = 0.5 * (1.0 + np.sign(x) * gammainc(1.0 / d, c * np.abs(x) ** d))
    assert np.max(np.abs(got - want)) <= 1e-15
    assert law_cdf_1d(quartic_like(k, c), 0.0) == 0.5


@pytest.mark.parametrize("var", [1.0, 0.7, 1.7671212078121626])
def test_gaussian_cdf_is_within_1e15_of_scipy(var):
    x = np.linspace(-40.0, 40.0, 400001) * math.sqrt(var)
    got = law_cdf_1d(Gaussian(cov=[[var]]), x)
    assert np.max(np.abs(got - ndtr(x / math.sqrt(var)))) <= 1e-15
    assert law_cdf_1d(Gaussian(cov=[[var]]), 0.0) == 0.5


def test_kernels_keep_shape_and_map_the_edges_as_scipy_does():
    x = np.array([[0.0, 0.3], [np.inf, np.nan]])
    for d in (4, 6, 8):
        got = _special.gammainc(d, x)
        assert got.shape == x.shape
        np.testing.assert_array_equal(got[[0, 1], [0, 0]], [0.0, 1.0])
        assert np.isnan(got[1, 1])
    edges = np.array([-np.inf, -40.0, 0.0, 40.0, np.inf, np.nan])
    np.testing.assert_array_equal(_special.ndtr(edges), ndtr(edges))
    assert _special.ndtr(0.5).shape == ()


def test_saturated_points_return_one_and_never_iterate(monkeypatch):
    # Q(a, t) <= t^(a-1) e^-t / Gamma(a); below 2^-54 the answer is 1.0 exactly
    iterated = []
    loop = _special._iterate
    monkeypatch.setattr(_special, "_iterate",
                        lambda step, state: iterated.append(len(state[0])) or loop(step, state))
    a = 0.25
    bound = (a - 1.0) * np.log(T_GRID[1:]) - T_GRID[1:] - math.lgamma(a)
    saturated = bound < -54.0 * math.log(2.0)
    got = _special.gammainc(4, T_GRID)
    assert np.all(got[1:][saturated] == 1.0) and np.all(gammainc(a, T_GRID[1:][saturated]) == 1.0)
    assert sum(iterated) == np.count_nonzero(~saturated) and saturated.sum() > 1000


@pytest.mark.parametrize("d", [4, 6, 8])
def test_tabled_log_gamma_is_scipys_value(d):
    # scipy's own value is up to 8e-16 relative off the true one; its bits are kept
    assert _special.log_gamma_1p(d) == gammaln(1.0 + 1.0 / d)
    with mpmath.workdps(40):
        want = float(mpmath.loggamma(1 + mpmath.mpf(1) / d))
    assert abs(_special.log_gamma_1p(d) - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("d", [10, 12])
def test_lgamma_serves_the_other_degrees(d):
    with mpmath.workdps(40):
        want = float(mpmath.loggamma(1 + mpmath.mpf(1) / d))
    assert abs(_special.log_gamma_1p(d) - want) <= 1e-13 * abs(want)


def test_normalisers_keep_their_bits():
    cw10 = build_limit_law(make_cw(1.0, 0.0), pressure_limit(make_cw(1.0, 0.0)).maxima[0])
    crit2 = validate_model(ModelSpec(n=2, alpha=(0.5, 0.5), J=((2.0, 0.0), (0.0, 2.0)),
                                     h=(0.0, 0.0)))
    law2 = build_limit_law(crit2, pressure_limit(crit2).maxima[0])
    assert cw10.log_normalizer == 1.2161020065851322
    assert law2.log_normalizer == 2.4322040131702645
