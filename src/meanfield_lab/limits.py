"""Limiting distributions of the normalized spin sums.

Three families arise: a multivariate Gaussian when the maximum is
quadratic (k=1), an exponential of a negative even homogeneous form for
degenerate maxima (k >= 2), and a weighted mixture of point masses for
the magnetization itself when several maxima coexist.  At a quadratic
maximum (any symmetric J) the covariance is M^{-1} for fbar's curvature
M = diag(1/var) - D J D, and with S = diag(sqrt(var)) the weight is
ln b = n/2 ln 2pi - 1/2 ln det(S M S).  At a degenerate one it is the
normaliser of exp(Q), Q(v) = sum_l c_l <R_l, v>^d with n rays in R^n.
The ray certificate (d even, every c_l < 0, R of full rank) decides
exactly whether Q is negative definite, and w = R v gives the closed form
ln Z = n ln(2 Gamma(1 + 1/d)) - (1/d) sum_l ln(-c_l) - ln|det R|.

The special functions come from ``_special``, numpy ports of the Cephes
routines behind scipy.special: ln Gamma(1 + 1/d) for the k >= 2 normaliser,
and ndtr and the incomplete gamma P(1/d, x) for ``law_cdf_1d``.  It is
imported on first use, so Gaussian laws in two or more dimensions and the
mixtures never load it.  No module of the package imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMaximum,
    DimensionMismatch,
    DomainError,
    EmptySample,
    MixedTypes,
    NonFiniteParameter,
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
    _curvature,
    _eigs,
    _global_maxima,
    pressure_limit,  # noqa: F401 - re-exported; perfbench traces it here
)


@dataclass(frozen=True)
class Gaussian:
    """Centered multivariate normal with the given covariance."""

    cov: np.ndarray

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or not cov.size:
            raise DimensionMismatch("covariance must be a non-empty square matrix")
        if not np.all(np.isfinite(cov)):
            raise NotPositiveDefiniteResult("covariance must be finite")
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
    """Density proportional to exp(form(x)), form of degree 2k with n rays in R^n."""

    k: int
    form: HomogeneousForm
    log_normalizer: float

    def __post_init__(self):
        if self.k < 2 or self.form.degree != 2 * self.k:
            raise DimensionMismatch("higher-order laws need k >= 2 and degree 2k")
        rays, coeffs = self.form.rays, self.form.coeffs
        if len({len(r) for r in rays}) != 1 or not rays[0] or len(coeffs) != len(rays):
            raise DimensionMismatch("form needs rays of one length, one coefficient each")
        fault = self.form.definiteness_fault(self.dim)
        if fault:
            raise NotPositiveDefiniteResult(fault)
        if not math.isfinite(self.log_normalizer):
            raise Unnormalized("higher-order law needs a finite log-normalizer")

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
        points, weights = self.points, self.weights
        if (weights.ndim != 1 or points.ndim != 2
                or points.shape[0] != len(weights) or points.shape[1] < 1):
            raise DimensionMismatch("points must be a (P, n) array, one row per weight")
        if not np.all(np.isfinite(points)):
            raise DimensionMismatch("mixture points must be finite")
        if not np.all(np.isfinite(weights)):
            raise Unnormalized("mixture weights must be finite")
        if np.any(weights <= 0):
            raise Unnormalized("mixture weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise Unnormalized("mixture weights must sum to 1")

    @property
    def dim(self) -> int:
        return self.points.shape[1]


LimitLaw = Gaussian | HigherOrder | DeltaMixture


# --- susceptibilities -----------------------------------------------------


def susceptibility_cw(J: float, h: float, mu: float) -> float:
    """Single-species field response (1 - mu^2) / (1 - J (1 - mu^2)).

    ``h`` only identifies the equilibrium branch; the value depends on it
    through ``mu`` alone.  A denominator (the 1x1 curvature) not positive by
    ``_eigs`` raises DegenerateMaximum, ``mu`` outside [-1, 1] or nan
    DomainError, a nan or infinite ``J`` or ``h`` NonFiniteParameter.
    """
    if not (math.isfinite(J) and math.isfinite(h)):
        raise NonFiniteParameter(f"J and h must be finite, got J={J!r}, h={h!r}")
    if not abs(mu) <= 1.0:
        raise DomainError(f"mu must lie in [-1, 1], got {mu!r}")
    denom = 1.0 - J * (1.0 - mu ** 2)
    if _eigs(np.array([[denom]]))[0] <= 0:
        raise DegenerateMaximum("response diverges: the maximum is degenerate")
    return (1.0 - mu ** 2) / denom


def susceptibility_matrix(model: ValidatedModel, mu) -> np.ndarray:
    """Field-response matrix chi_ls = d mu_l / d h_s at an equilibrium mu.

    chi = D^{-1} M^{-1} D for the curvature M at mu, D = diag(sqrt(alpha)):
    the solution of chi = P (I + J diag(alpha) chi), P = diag(var) (1 - mu^2 for +-1).
    SingularSystem where S M S is singular by ``_eigs``.
    """
    mu = _require_validated(model).check_point(mu, "mu")
    K, s = _curvature(model, mu)
    if np.any(_eigs(K) == 0):
        raise SingularSystem("response system is singular at this point")
    d = np.sqrt(model.alpha)
    return (s / d)[:, None] * np.linalg.inv(K) * (s * d)[None, :]


def covariance_tilde(model: ValidatedModel, mu,
                     classification: MaximumClassification) -> np.ndarray:
    """Covariance M^{-1} of the rescaled sums, M at ``mu`` positive definite by ``_eigs``."""
    mu = _require_validated(model).check_point(mu, "mu")
    if classification.k != 1 or classification.hessian is None:
        raise NotK1("covariance requires a type-1 maximum")
    K, s = _curvature(model, mu)
    if _eigs(K)[0] <= 0:
        raise NotPositiveDefiniteResult("curvature is not positive definite")
    cov = s[:, None] * np.linalg.inv(K) * s[None, :]
    return 0.5 * (cov + cov.T)


# --- law construction -----------------------------------------------------


def _log_form_integral(form: HomogeneousForm, n: int) -> float:
    """ln of the integral of exp(form) over R^n, in closed form.

    A form that passes the ray certificate is sum_l c_l <R_l, v>^d with
    every c_l < 0 and R nonsingular; w = R v splits the integral into n
    one-dimensional ones, each 2 Gamma(1 + 1/d) (-c_l)^(-1/d), over |det R|.
    Any other form raises NotPositiveDefiniteResult.
    """
    from ._special import log_gamma_1p

    fault = form.definiteness_fault(n)
    if fault:
        raise NotPositiveDefiniteResult(fault)
    deg = form.degree
    log_det = np.linalg.slogdet(np.asarray(form.rays))[1]
    return float(n * (math.log(2.0) + log_gamma_1p(deg))
                 - np.sum(np.log(-np.asarray(form.coeffs))) / deg - log_det)


def _log_weight(model: ValidatedModel, cls: MaximumClassification) -> float:
    """ln of the peak-sharpness integral used as mixture weight."""
    n = model.n
    if cls.k == 1:
        lam = _eigs(_curvature(model, cls.point.x)[0])
        if lam[0] <= 0:
            raise NotPositiveDefiniteResult("curvature must be positive definite")
        return 0.5 * n * math.log(2.0 * math.pi) - 0.5 * np.sum(np.log(lam))
    return _log_form_integral(_rescaled_form(model, cls), n)


def _rescaled_form(model: ValidatedModel, cls: MaximumClassification) -> HomogeneousForm:
    """The leading form of degree 2k evaluated at x / alpha^(1/2k)."""
    if cls.quartic_form is None:
        raise MixedTypes("no homogeneous form is available for this maximum")
    return cls.quartic_form.rescaled(model.alpha ** (1.0 / (2.0 * cls.k)))


def build_limit_law(model: ValidatedModel,
                    classification: MaximumClassification | None = None,
                    conditioned: bool = False) -> LimitLaw:
    """Limiting law asserted by the limit theorems.

    With a classification: the law of the rescaled sums at that maximum,
    Gaussian for k=1 and exp(form) for k >= 2.  Unless ``conditioned``,
    the maximum must be the unique global one: a classification from
    ``pressure_limit`` carries its result's global types and is decided from
    them, so it must be used with the model it came from; a hand-made one
    costs a fresh ``_global_maxima``.  Without a classification: the mixture
    of point masses the magnetization vector converges to, weighted by each
    maximum's sharpness integral.  Neither runs the direct-route check.
    """
    model = _require_validated(model)
    if classification is None:
        maxima = _global_maxima(model, None)[2]
        k_star = max(c.k for c in maxima)
        kept = [c for c in maxima if c.k == k_star]
        log_b = np.array([_log_weight(model, c) for c in kept])
        w = np.exp(log_b - log_b.max())
        w /= w.sum()
        pts = np.array([c.point.x for c in kept])
        return DeltaMixture(points=pts, weights=w)

    if not conditioned:
        types = classification.global_types or _global_maxima(model, None)[2][0].global_types
        if len(set(types)) > 1:
            raise MixedTypes("global maxima have differing types")
        if len(types) > 1:
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
        return math.exp(float(law.form(x)) - law.log_normalizer)
    hits = np.max(np.abs(law.points - x[None, :]), axis=1) <= 1e-12
    return float(law.weights[hits].sum())


def law_cdf_1d(law: LimitLaw, x):
    """Distribution function of a one-dimensional limit law."""
    from ._special import gammainc, ndtr

    if law.dim != 1:
        raise DimensionMismatch("cdf is defined for one-dimensional laws")
    x = np.asarray(x, dtype=float)
    if isinstance(law, Gaussian):
        out = ndtr(x / math.sqrt(float(law.cov[0, 0])))
    elif isinstance(law, HigherOrder):
        a = -float(law.form([1.0]))
        deg = law.form.degree
        out = 0.5 * (1.0 + np.sign(x) * gammainc(deg, a * np.abs(x) ** deg))
    else:
        order = np.argsort(law.points[:, 0])
        cum = np.cumsum(np.r_[0.0, law.weights[order]])
        out = np.where(np.isnan(x), np.nan, cum[np.searchsorted(law.points[order, 0], x, "right")])
    return float(out) if out.ndim == 0 else out


def _law_scale_1d(law: LimitLaw) -> float:
    if isinstance(law, Gaussian):
        return math.sqrt(float(law.cov[0, 0]))
    if isinstance(law, HigherOrder):
        a = -float(law.form([1.0]))
        return (1.0 / a) ** (1.0 / law.form.degree)
    return float(np.max(np.abs(law.points))) + 1.0


def _cdf_blocks(observed: DiscreteLaw, law: LimitLaw):
    """Atoms, probabilities, exact CDF, the law's CDF and the KS term, block by block.

    The atoms of a one-species lattice ascend, so the exact CDF is a cumsum
    carried across ``observed.blocks()``: the carry is added to a block's
    first probability and the block is then summed in place, which keeps
    the bits of one cumsum over all atoms.
    """
    carry = 0.0
    for pts, probs in observed.blocks():
        if not len(probs):
            continue
        cum = probs.copy()
        cum[0] += carry
        np.cumsum(cum, out=cum)
        F = law_cdf_1d(law, pts[:, 0])
        yield pts[:, 0], probs, cum, F, _ks(cum, F, carry)
        carry = cum[-1]


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
        if observed.lattice.n != 1:
            raise DimensionMismatch("KS comparison is one-dimensional")
        return float(np.max([block[-1] for block in _cdf_blocks(observed, law)]))
    pts = np.sort(np.asarray(observed, dtype=float).ravel())
    if not len(pts):
        raise EmptySample("KS comparison needs at least one sample")
    if np.isnan(pts[-1]):
        raise DomainError("KS comparison needs samples that are not nan")
    cum = np.cumsum(np.full(len(pts), 1.0 / len(pts)))
    return _ks(cum, law_cdf_1d(law, pts))


def _ks(cum: np.ndarray, F: np.ndarray, below: float = 0.0) -> float:
    """KS statistic of sorted atoms with exact CDF ``cum`` (``below`` before them) against ``F``."""
    below = np.concatenate([[below], cum[:-1]])
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
    """Inverse of ``law_to_dict``, which writes n rays in R^n for a higher-order law.

    Missing keys and malformed entries raise DimensionMismatch.
    """
    kind = doc.get("kind")
    try:
        if kind == "gaussian":
            return Gaussian(cov=doc["cov"])
        if kind == "higher_order":
            spec = doc["coeffs"]
            form = HomogeneousForm(int(spec["degree"]),
                                   tuple(float(c) for c, _ in spec["terms"]),
                                   tuple(tuple(float(v) for v in r)
                                         for _, r in spec["terms"]))
            return HigherOrder(k=int(doc["k"]), form=form,
                               log_normalizer=float(doc["log_normalizer"]))
        if kind == "delta_mixture":
            return DeltaMixture(points=doc["points"], weights=doc["weights"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed {kind} law: {exc!r}") from exc
    raise DimensionMismatch(f"unknown law kind {kind!r}")
