"""Limiting distributions of the normalized spin sums.

Three families arise: a multivariate Gaussian when the maximum is
quadratic (k=1), an exponential of a negative even homogeneous form for
degenerate maxima (k >= 2), and a weighted mixture of point masses for
the magnetization itself when several maxima coexist.  The Gaussian
covariance comes from the susceptibility relations; the mixture weights
from the sharpness of each maximum.  At a degenerate maximum that is the
normaliser of exp(Q), for every n the polar reduction Gamma(n/d)/d times
the sphere integral of (-Q)^(-n/d), on a deterministic product rule
(+-1 at n=1, Gauss-Gegenbauer layers above).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln, ndtr, roots_gegenbauer

from .errors import (
    DegenerateMaximum,
    DimensionMismatch,
    MixedTypes,
    NonPositiveDefiniteA,
    NoConvergence,
    NonUniqueMaximum,
    NotK1,
    NotPositiveDefiniteResult,
    SingularSystem,
    Unnormalized,
)
from .exact import DiscreteLaw
from .model import ValidatedModel, _require_validated
from .solver import (
    HomogeneousForm,
    MaximumClassification,
    SolverOptions,
    _unit_sphere,
    pressure_limit,
)


@dataclass(frozen=True)
class Gaussian:
    """Centered multivariate normal with the given covariance."""

    cov: np.ndarray

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise DimensionMismatch("covariance must be square")
        if np.max(np.abs(cov - cov.T)) > 1e-9:
            raise NotPositiveDefiniteResult("covariance must be symmetric")
        if np.any(np.linalg.eigvalsh(cov) <= 0):
            raise NotPositiveDefiniteResult("covariance must be positive definite")
        cov.flags.writeable = False
        object.__setattr__(self, "cov", cov)   # a read-only copy of our own

    @property
    def dim(self) -> int:
        return self.cov.shape[0]


@dataclass(frozen=True)
class HigherOrder:
    """Density proportional to exp(form(x)) for a negative even form."""

    k: int
    form: HomogeneousForm
    log_normalizer: float

    def __post_init__(self):
        if self.k < 2:
            raise DimensionMismatch("higher-order laws require k >= 2")
        sphere = _unit_sphere(self.dim, 100)
        if np.any(self.form(sphere) >= 0):
            raise NotPositiveDefiniteResult("form must be negative away from 0")

    @property
    def dim(self) -> int:
        return len(self.form.rays[0])


@dataclass(frozen=True)
class DeltaMixture:
    """Weighted point masses at the coexisting maxima."""

    points: np.ndarray      # (P, n)
    weights: np.ndarray     # (P,)

    def __post_init__(self):
        for name in ("points", "weights"):     # read-only copies of our own
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
            getattr(self, name).flags.writeable = False
        if np.any(self.weights <= 0):
            raise Unnormalized("mixture weights must be positive")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise Unnormalized("mixture weights must sum to 1")

    @property
    def dim(self) -> int:
        return self.points.shape[1]


LimitLaw = Gaussian | HigherOrder | DeltaMixture


# --- susceptibilities -----------------------------------------------------


def susceptibility_cw(J: float, h: float, mu: float) -> float:
    """Single-species field response (1 - mu^2) / (1 - J (1 - mu^2)).

    ``h`` only identifies the equilibrium branch; the value depends on it
    through ``mu`` alone.
    """
    denom = 1.0 - J * (1.0 - mu ** 2)
    if denom <= 1e-12:
        raise DegenerateMaximum("response diverges: the maximum is degenerate")
    return (1.0 - mu ** 2) / denom


def susceptibility_matrix(model: ValidatedModel, mu) -> np.ndarray:
    """Field-response matrix chi_ls = d mu_l / d h_s at an equilibrium mu.

    Solves the linear self-consistency relation
    chi = P (I + J diag(alpha) chi) with P = diag(1 - mu_l^2).
    """
    model = _require_validated(model)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (model.n,):
        raise DimensionMismatch("mu must have one entry per species")
    P = np.diag(1.0 - mu ** 2)
    system = np.eye(model.n) - P @ model.J @ np.diag(model.alpha)
    if np.linalg.cond(system) > 1e10:
        raise SingularSystem("response system is singular at this point")
    return np.linalg.solve(system, P)


def covariance_tilde(model: ValidatedModel, mu,
                     classification: MaximumClassification) -> np.ndarray:
    """Covariance of the jointly rescaled sums at a quadratic maximum.

    Computed as -Htilde^{-1} - A^{-1} with A = D_alpha J D_alpha and
    Htilde the alpha-rescaled Hessian of f at the maximum.
    """
    model = _require_validated(model)
    if classification.k != 1 or classification.hessian is None:
        raise NotK1("covariance requires a type-1 maximum")
    A = model.coupling_core()
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise NonPositiveDefiniteA("coupling core must be positive definite")
    d_inv = 1.0 / np.sqrt(model.alpha)
    Ht = d_inv[:, None] * classification.hessian * d_inv[None, :]
    result = -np.linalg.inv(Ht) - np.linalg.inv(A)
    if np.max(np.abs(result - result.T)) > 1e-9:
        raise NotPositiveDefiniteResult("covariance came out asymmetric")
    result = 0.5 * (result + result.T)
    if np.any(np.linalg.eigvalsh(result) <= 0):
        raise NotPositiveDefiniteResult("covariance is not positive definite")
    return result


# --- law construction -----------------------------------------------------


_NODE_BUDGET, _BLOCK = 1 << 22, 1 << 16   # finest rule tried; nodes per block


def _lift(nodes: np.ndarray, weights: np.ndarray, t: np.ndarray, w: np.ndarray):
    """Nodes (t, sqrt(1 - t^2) y) and weights w * w_y, y running over ``nodes``."""
    return (np.concatenate([np.repeat(t, len(nodes))[:, None],
                            np.kron(np.sqrt(1.0 - t * t)[:, None], nodes)], axis=1),
            np.kron(w, weights))


def _sphere_rule(n: int, m: int):
    """Yield (nodes, weights) blocks of a product rule on S^(n-1), 2 m^(n-1) nodes.

    S^0 is {-1, 1}, lifted from one empty point.  S^(dim-1) lifts S^(dim-2)
    through the m Gauss-Gegenbauer nodes for the weight (1 - t^2)^((dim-3)/2),
    which at dim=2 is Gauss-Chebyshev, the trapezoid rule in angle.  The
    last lift is yielded a few t at a time to bound memory.
    """
    layers = [(np.array([-1.0, 1.0]), np.ones(2))]
    layers += [roots_gegenbauer(m, (dim - 2) / 2.0) for dim in range(2, n + 1)]
    nodes, weights = np.ones((1, 0)), np.ones(1)
    for t, w in layers[:-1]:
        nodes, weights = _lift(nodes, weights, t, w)
    t, w = layers[-1]
    step = max(1, _BLOCK // len(weights))
    for i in range(0, len(t), step):
        yield _lift(nodes, weights, t[i:i + step], w[i:i + step])


def _log_form_integral(form: HomogeneousForm, n: int) -> float:
    """ln of the integral of exp(form) over R^n, by polar reduction.

    For Q negative away from 0 and homogeneous of degree d it is Gamma(n/d)/d
    times the integral of (-Q)^(-n/d) over S^(n-1), on ``_sphere_rule`` with
    m doubled from 4 until two sums agree to 1e-13 relative (exact at n=1).
    """
    deg, previous, m = form.degree, None, 4
    while 2 * m ** (n - 1) <= _NODE_BUDGET:
        total = 0.0
        for nodes, weights in _sphere_rule(n, m):
            q = -form(nodes)
            if np.any(q <= 0):
                raise NotPositiveDefiniteResult("form must be negative away from 0")
            total += float(weights @ q ** (-n / deg))
        if previous is not None and abs(total - previous) <= 1e-13 * total:
            return float(gammaln(n / deg)) - math.log(deg) + math.log(total)
        previous, m = total, 2 * m
    raise NoConvergence("sphere rule did not settle: the form may vanish on the sphere")


def _log_weight(model: ValidatedModel, cls: MaximumClassification) -> float:
    """ln of the peak-sharpness integral used as mixture weight."""
    n = model.n
    if cls.k == 1:
        d_inv = 1.0 / np.sqrt(model.alpha)
        Ht = d_inv[:, None] * cls.hessian * d_inv[None, :]
        sign, logdet = np.linalg.slogdet(-Ht)
        if sign <= 0:
            raise NotPositiveDefiniteResult("Hessian must be negative definite")
        return 0.5 * n * math.log(2.0 * math.pi) - 0.5 * logdet
    return _log_form_integral(_rescaled_form(model, cls), n)


def _rescaled_form(model: ValidatedModel, cls: MaximumClassification) -> HomogeneousForm:
    """The homogeneous expansion term evaluated at x / alpha^(1/2k)."""
    if model.n == 1:
        deg = 2 * cls.k
        coeff = cls.strength / math.factorial(deg)
        return HomogeneousForm(deg, (float(coeff),), ((1.0,),))
    if cls.quartic_form is None:
        raise MixedTypes("no homogeneous form is available for this maximum")
    scale = model.alpha ** (1.0 / (2.0 * cls.k))
    return cls.quartic_form.rescaled(scale)


def build_limit_law(model: ValidatedModel,
                    classification: MaximumClassification | None = None,
                    conditioned: bool = False,
                    opts: SolverOptions | None = None) -> LimitLaw:
    """Limiting law asserted by the limit theorems.

    With a classification: the law of the rescaled sums at that maximum,
    Gaussian for k=1 and exp(form) for k >= 2.  Unless ``conditioned``,
    the maximum must be the unique global one.  Without a classification:
    the mixture of point masses the magnetization vector converges to,
    weighted by each maximum's sharpness integral.
    """
    model = _require_validated(model)
    if classification is None:
        result = pressure_limit(model, opts)
        k_star = max(c.k for c in result.maxima)
        kept = [c for c in result.maxima if c.k == k_star]
        log_b = np.array([_log_weight(model, c) for c in kept])
        w = np.exp(log_b - log_b.max())
        w /= w.sum()
        pts = np.array([c.point.x for c in kept])
        return DeltaMixture(points=pts, weights=w)

    if not conditioned:
        result = pressure_limit(model, opts)
        if len({c.k for c in result.maxima}) > 1:
            raise MixedTypes("global maxima have differing types")
        if len(result.maxima) > 1:
            raise NonUniqueMaximum(
                "several global maxima: the unconditioned sum law is undefined")
    if classification.k == 1:
        cov = covariance_tilde(model, classification.point.x, classification)
        return Gaussian(cov=cov)
    form = _rescaled_form(model, classification)
    log_norm = _log_form_integral(form, model.n)
    return HigherOrder(k=classification.k, form=form, log_normalizer=log_norm)


# --- evaluation and comparison ---------------------------------------------


def law_density(law: LimitLaw, x) -> float:
    """Density at x (for mixtures: the point mass at x, zero off atoms)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (law.dim,):
        raise DimensionMismatch(f"x must have dimension {law.dim}")
    if isinstance(law, Gaussian):
        n = law.dim
        chol = np.linalg.cholesky(law.cov)
        z = np.linalg.solve(chol, x)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        return math.exp(-0.5 * (z @ z) - 0.5 * (n * math.log(2 * math.pi) + logdet))
    if isinstance(law, HigherOrder):
        if not math.isfinite(law.log_normalizer):
            raise Unnormalized("higher-order law has no finite normalizer")
        return math.exp(float(law.form(x)) - law.log_normalizer)
    hits = np.max(np.abs(law.points - x[None, :]), axis=1) <= 1e-12
    return float(law.weights[hits].sum())


def law_cdf_1d(law: LimitLaw, x):
    """Distribution function of a one-dimensional limit law."""
    if law.dim != 1:
        raise DimensionMismatch("cdf is defined for one-dimensional laws")
    x = np.asarray(x, dtype=float)
    if isinstance(law, Gaussian):
        out = ndtr(x / math.sqrt(float(law.cov[0, 0])))
    elif isinstance(law, HigherOrder):
        a = -float(law.form([1.0]))
        deg = law.form.degree
        out = 0.5 * (1.0 + np.sign(x) * gammainc(1.0 / deg, a * np.abs(x) ** deg))
    else:
        pts = law.points[:, 0]
        out = np.array([float(law.weights[pts <= xi].sum()) for xi in np.atleast_1d(x)])
        if np.isscalar(x) or x.ndim == 0:
            return float(out[0])
        return out
    return float(out) if out.ndim == 0 else out


def _law_scale_1d(law: LimitLaw) -> float:
    if isinstance(law, Gaussian):
        return math.sqrt(float(law.cov[0, 0]))
    if isinstance(law, HigherOrder):
        a = -float(law.form([1.0]))
        return (1.0 / a) ** (1.0 / law.form.degree)
    return float(np.max(np.abs(law.points))) + 1.0


def ks_distance(observed, law: LimitLaw) -> float:
    """Kolmogorov-Smirnov statistic against a one-dimensional limit law.

    ``observed`` may be a DiscreteLaw, a 1-d array of samples, or another
    limit law (compared on a dense grid).
    """
    if law.dim != 1:
        raise DimensionMismatch("KS comparison is one-dimensional")
    if isinstance(observed, (Gaussian, HigherOrder, DeltaMixture)):
        if observed.dim != 1:
            raise DimensionMismatch("KS comparison is one-dimensional")
        span = 10.0 * max(_law_scale_1d(observed), _law_scale_1d(law))
        grid = np.linspace(-span, span, 4001)
        return float(np.max(np.abs(law_cdf_1d(observed, grid) - law_cdf_1d(law, grid))))
    if isinstance(observed, DiscreteLaw):
        if observed.points.shape[1] != 1:
            raise DimensionMismatch("KS comparison is one-dimensional")
        pts, probs = observed.points[:, 0], observed.probs
    else:
        pts = np.asarray(observed, dtype=float).ravel()
        probs = np.full(len(pts), 1.0 / len(pts))
    order = np.argsort(pts, kind="stable")
    pts, probs = pts[order], probs[order]
    cum = np.cumsum(probs)
    F = law_cdf_1d(law, pts)
    below = np.concatenate([[0.0], cum[:-1]])
    return float(np.max(np.maximum(np.abs(F - cum), np.abs(F - below))))


# --- serialization ----------------------------------------------------------


def law_to_dict(law: LimitLaw) -> dict:
    if isinstance(law, Gaussian):
        return {"kind": "gaussian", "cov": law.cov.tolist()}
    if isinstance(law, HigherOrder):
        return {"kind": "higher_order", "k": law.k,
                "coeffs": {"degree": law.form.degree,
                           "terms": [[c, list(r)] for c, r in
                                     zip(law.form.coeffs, law.form.rays)]},
                "log_normalizer": law.log_normalizer}
    return {"kind": "delta_mixture", "points": law.points.tolist(),
            "weights": law.weights.tolist()}


def law_from_dict(doc: dict) -> LimitLaw:
    kind = doc.get("kind")
    if kind == "gaussian":
        return Gaussian(cov=doc["cov"])
    if kind == "higher_order":
        terms = doc["coeffs"]["terms"]
        form = HomogeneousForm(int(doc["coeffs"]["degree"]),
                               tuple(float(t[0]) for t in terms),
                               tuple(tuple(float(v) for v in t[1]) for t in terms))
        return HigherOrder(k=int(doc["k"]), form=form,
                           log_normalizer=float(doc["log_normalizer"]))
    if kind == "delta_mixture":
        return DeltaMixture(points=doc["points"], weights=doc["weights"])
    raise DimensionMismatch(f"unknown law kind {kind!r}")
