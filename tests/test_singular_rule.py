"""One rule for "singular", from rounding, near J = 1.

An eigenvalue of the curvature S M S = I - A within 16 eps (1 + max|A|) of 0
is 0 (``_cluster._eigs``), and only then.  The deflation, the tie rule, the
classifier and the limit-law layer all ask it, so just off J = 1 a maximum is
quadratic, x = 0 above J = 1 is a minimum, and the layers agree on the
variance.  The oracle is mpmath's root count of x = tanh(J x + h).
"""

import math

import mpmath
import numpy as np
import pytest

from meanfield_lab import ModelSpec, pressure_limit, validate_model
from meanfield_lab.errors import NotAMaximum, NotPositiveDefiniteResult
from meanfield_lab.limits import (
    _log_weight,
    build_limit_law,
    covariance_tilde,
    susceptibility_cw,
    susceptibility_matrix,
)
from meanfield_lab.solver import MaximumClassification, StationaryPoint

from conftest import make_cw

# two species, one of them 1e-11 from critical: k = 1, not a mixed degeneracy
NEAR2 = validate_model(ModelSpec(n=2, alpha=(0.5, 0.5), J=((2.0 - 2e-11, 0.0), (0.0, 1.0)),
                                 h=(0.0, 0.0)))


def mpmath_roots(J, h):
    """The roots of x - tanh(J x + h) in [-1, 1], at 60 digits, ascending.

    Each is bracketed by a sign change (or is a zero) on a grid of 0 and
    +-10^(-e/4), e = 0..1300, which parts every root of these models."""
    with mpmath.workdps(60):
        J, h = mpmath.mpf(J), mpmath.mpf(h)

        def F(x):
            return x - mpmath.tanh(J * x + h)

        half = [mpmath.mpf(10) ** (-mpmath.mpf(e) / 4) for e in range(1301)]
        grid = [-t for t in half] + [mpmath.mpf(0)] + half[::-1]
        values = [F(x) for x in grid]
        roots = [float(x) for x, v in zip(grid, values) if v == 0]
        for (a, fa), (b, fb) in zip(zip(grid, values), zip(grid[1:], values[1:])):
            if fa * fb < 0:
                roots.append(float(mpmath.findroot(F, (a, b), solver="anderson")))
        return sorted(roots)


def close(x, root):
    return abs(x - root) <= 1e-4 * abs(root)


@pytest.mark.parametrize("h", [0.0, -1e-300, 1e-26, 1e-24])
@pytest.mark.parametrize("J", [1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 1e-10, 1.0 - 1e-10])
def test_just_off_critical_every_maximum_is_quadratic_and_x0_never_one(J, h):
    # positions only to 1e-4: just off J = 1 Newton locates a root to
    # ~eps / (2 |J - 1|) relative (its defect's rounding)
    roots = mpmath_roots(J, h)
    assert len(roots) == (3 if J > 1 else 1)
    res = pressure_limit(make_cw(J, h))
    points = [p.x[0] for p in res.fixed_points]
    assert len(points) == len(roots)
    assert all(close(x, r) for x, r in zip(points, roots))
    # the maxima are the outer roots, which tie; above J = 1 the middle one is a minimum
    assert [c.k for c in res.maxima] == [1] * len(roots[::2])
    assert all(close(c.point.x[0], r) for c, r in zip(res.maxima, roots[::2]))


@pytest.mark.parametrize("h", [0.0, -1e-300, 1e-26, 1e-24])
def test_a_point_past_the_location_bound_is_no_maximum_at_x0(h):
    # at J = 1 + 1e-14 a maximum is located no better than its curvature can
    # tell from a fold: the answer is the two outer roots or a fold refusal
    J = 1.0 + 1e-14
    roots = mpmath_roots(J, h)
    try:
        maxima = pressure_limit(make_cw(J, h)).maxima
    except NotAMaximum:
        return
    assert [c.k for c in maxima] == [1] * len(maxima)
    assert all(close(c.point.x[0], roots[0]) or close(c.point.x[0], roots[-1])
               for c in maxima)


@pytest.mark.parametrize("model", [make_cw(1.0 - 1e-12, 0.0), NEAR2], ids=["cw", "two-species"])
def test_the_layers_agree_on_the_variance_of_a_nearly_singular_maximum(model):
    (cls,) = pressure_limit(model).maxima
    assert cls.k == 1
    x = cls.point.x
    cov = build_limit_law(model, cls).cov
    for other in (covariance_tilde(model, x, cls), susceptibility_matrix(model, x)):
        np.testing.assert_allclose(other, cov, rtol=1e-12, atol=0.0)
    if model.n == 1:
        assert cov[0, 0] == pytest.approx(1.0 / (1.0 - model.J[0, 0]), rel=1e-12)


def test_the_scalar_susceptibility_takes_the_same_rule():
    J = 1.0 - 1e-13
    assert susceptibility_cw(J, 0.0, 0.0) == 1.0 / (1.0 - J)


def test_a_mixture_weight_refuses_a_singular_curvature():
    # a hand-made k = 1 classification of the quartic point cw J = 1, x = 0
    point = StationaryPoint(x=np.zeros(1), residual=0.0, f_value=-math.log(2.0),
                            fbar_value=0.0)
    cls = MaximumClassification(point=point, k=1, hessian=np.zeros((1, 1)))
    with pytest.raises(NotPositiveDefiniteResult, match="positive definite"):
        _log_weight(make_cw(1.0, 0.0), cls)
