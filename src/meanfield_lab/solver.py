"""Variational functionals, self-consistency solver and maximum classification.

Two functionals drive everything.  On the magnetization cube the
enumeration route maximizes

    fbar(x) = g(x) - sum_l alpha_l * entropy_I(x_l)          (binary spins)

while the Gaussian-transform route maximizes, on all of R^n,

    f(x) = -1/2 <J~ x, x> + sum_l alpha_l log E_rho[exp(s * u_l(x))]

with u_l(x) = sum_s alpha_s J_ls x_s + h_l.  Both share the stationarity
system x_l = tilted_mean(u_l), which for +-1 spins is the familiar
x_l = tanh(u_l).  Stationary points are found by multistart Newton (a
damped map moves away from unstable points and loses them), then
classified by one rule for every n and any symmetric J: fbar's curvature
(``_curvature``) first, and where it vanishes f's Taylor terms ray by
ray, whose first nonvanishing even order is 2k (type k; strength lambda
for one species).

The pressure limit is computed by two routes that share no solver:
route 1 takes max fbar over the fixed points, route 2 maximizes f
directly by a batched modified-Newton ascent from a coarse grid.  Their
gap is reported as ``method_agreement``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    ConfigParse,
    DomainError,
    NoConvergence,
    NotAMaximum,
    UnsupportedDegeneracy,
    UnsupportedMeasure,
)
from .exact import _lse
from .model import (ModelSpec, ValidatedModel, _require_validated, hamiltonian_density,
                    validate_model)

LN2 = math.log(2.0)
_DERIV_TOL = 1e-9
# A degenerate maximum is located to ~1e-6 at worst (flat roots resolve no
# better in double precision), so a lower odd derivative of order j picks up
# |lambda| * offset^(2k - j) and must only vanish to that.
_POS_ERR = 1e-6
_MAX_ORDER = 8
# Direct ascent on f: gradient and stall tolerances, the curvature floor
# of the modified Hessian, the Armijo constant and the iteration caps.
_ASCENT_GTOL = 1e-13
_ASCENT_FTOL = 1e-16
_CURVATURE_FLOOR = 1e-12
_ARMIJO = 1e-4
_ASCENT_STEPS = 200
_HALVINGS = 60
# Newton stops a row whose defect has not fallen over this many steps.
_STALL_STEPS = 30


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the multistart fixed-point search.

    ``threads`` is accepted for config compatibility and has no effect.
    """

    grid_points: int = 11
    tol: float = 1e-12
    dedup_radius: float = 1e-8
    threads: int = 1
    newton_max_iter: int = 200

    def __post_init__(self):
        if any(isinstance(getattr(self, f.name), bool) for f in fields(self)):
            raise ConfigParse("solver options must be numbers, not booleans")
        for name, least in (("grid_points", 1), ("newton_max_iter", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ConfigParse(f"{name} must be an integer >= {least}")
        for name in ("tol", "dedup_radius"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not 0.0 < value < math.inf:
                raise ConfigParse(f"{name} must be finite and positive")


@dataclass(frozen=True)
class StationaryPoint:
    """Solution of the self-consistency system with its functional values."""

    x: np.ndarray
    residual: float
    f_value: float
    fbar_value: float | None

    def __post_init__(self):
        self.x.flags.writeable = False


@dataclass(frozen=True)
class HomogeneousForm:
    """Even homogeneous polynomial sum_i c_i * <ray_i, v> ** degree."""

    degree: int
    coeffs: tuple[float, ...]
    rays: tuple[tuple[float, ...], ...]

    def __call__(self, v) -> float | np.ndarray:
        v = np.asarray(v, dtype=float)
        rays = np.asarray(self.rays)
        proj = v @ rays.T          # (..., n_rays)
        return proj ** self.degree @ np.asarray(self.coeffs)

    def rescaled(self, scale: np.ndarray) -> "HomogeneousForm":
        """The form evaluated at v / scale (componentwise)."""
        rays = np.asarray(self.rays) / np.asarray(scale)[None, :]
        return HomogeneousForm(self.degree, self.coeffs,
                               tuple(tuple(r) for r in rays))

    def definiteness_fault(self, n: int) -> str | None:
        """Why the form is not negative definite on R^n; None when it is.

        Exact for n rays R in R^n, the only forms built here: with w = R v the
        form is sum_l c_l w_l^d, so d even, every c_l < 0 and R of full rank.
        """
        c = np.asarray(self.coeffs, dtype=float)
        R = np.asarray(self.rays, dtype=float)
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(R))):
            return "form has non-finite entries"
        if self.degree < 2 or self.degree % 2:
            return f"form degree {self.degree} is not even"
        if R.shape != (n, n) or c.shape != (n,):
            return f"form needs {n} rays in R^{n}"
        if np.any(c >= 0):
            return "form is not negative along every ray"
        if np.linalg.matrix_rank(R) < n:
            return "form vanishes on a line: its rays do not span R^n"
        return None


@dataclass(frozen=True)
class MaximumClassification:
    """Type k of a maximum.  ``hessian`` (f's, k=1) is reported only; ``quartic_form``
    is f's leading form, of degree 2k, at any k >= 2 maximum and any n; ``strength``
    is f's derivative of order 2k, for one species only."""

    point: StationaryPoint
    k: int
    strength: float | None = None
    hessian: np.ndarray | None = None
    quartic_form: HomogeneousForm | None = None
    is_global: bool = False


@dataclass(frozen=True)
class PressureResult:
    limit_value: float
    maxima: list[MaximumClassification]
    method_agreement: float
    fixed_points: list[StationaryPoint]


# --- elementary pieces ---------------------------------------------------


def _xlogx(t: np.ndarray) -> np.ndarray:
    """t ln t with 0 ln 0 = 0; scipy's xlogy(t, t), bit for bit.

    The logs come from the C library, as in xlogy: numpy's vectorised log
    can differ from it in the last bit, and that moves the fbar values.
    The solver passes one entry per species, so the loop costs nothing.
    """
    logs = [math.log(v) if v > 0.0 else 0.0 for v in t.ravel().tolist()]
    return t * np.reshape(logs, t.shape)


def entropy_I(x):
    """Binary entropy rate 1/2 ((1+x)ln(1+x) + (1-x)ln(1-x)) on [-1, 1]."""
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-15):
        raise DomainError("entropy_I is defined on [-1, 1]")
    arr = np.clip(arr, -1.0, 1.0)
    val = 0.5 * (_xlogx(1.0 + arr) + _xlogx(1.0 - arr))
    return float(val) if np.isscalar(x) else val


def _fields(model: ValidatedModel, x: np.ndarray) -> np.ndarray:
    """Effective fields u_l = sum_s alpha_s J_ls x_s + h_l, batched."""
    B, h = model.row_couplings()
    return x @ B.T + h


def _tilted_moments(model: ValidatedModel, u: np.ndarray, order: int) -> np.ndarray:
    """Raw moments 1..order of the measure tilted by exp(s*u); shape (order, *u.shape)."""
    locs = model.site_measure.locations
    logw = np.log(model.site_measure.weights)
    logits = u[..., None] * locs + logw
    with np.errstate(over="ignore"):    # a gap past -1.8e308 is -inf, whose exp 0 is exact
        logits -= logits.max(axis=-1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=-1, keepdims=True)
    return np.stack([(w * locs ** m).sum(axis=-1) for m in range(1, order + 1)])


def _cumulants_from_moments(m: np.ndarray) -> np.ndarray:
    """Cumulants 1..order from raw moments (same layout as input)."""
    order = m.shape[0]
    k = np.empty_like(m)
    for n in range(1, order + 1):
        acc = m[n - 1].copy()
        for j in range(1, n):
            acc -= math.comb(n - 1, j - 1) * k[j - 1] * m[n - j - 1]
        k[n - 1] = acc
    return k


def _sech2(u: np.ndarray) -> np.ndarray:
    """1 / cosh(u)^2 without overflow."""
    a = np.exp(-np.abs(u))
    return (2.0 * a / (1.0 + a * a)) ** 2


# Taylor coefficients of u - tanh(u) = u^3/3 - 2 u^5/15 + ...
_TANH_REMAINDER = (1.0 / 3.0, -2.0 / 15.0, 17.0 / 315.0, -62.0 / 2835.0,
                   1382.0 / 155925.0, -21844.0 / 6081075.0)


def mean_field_map(model: ValidatedModel, x) -> np.ndarray:
    """Right-hand side of the self-consistency system at x."""
    model = _require_validated(model)
    model.check_measure("mean_field_map")
    x = np.asarray(x, dtype=float)
    out = _map_rows(model, np.atleast_2d(x), *model.row_couplings())[0]
    return out[0] if x.ndim == 1 else out


def functional_fbar(model: ValidatedModel, x) -> float:
    """Enumeration-route functional g(x) - sum_l alpha_l entropy_I(x_l)."""
    model = _require_validated(model)
    if not model.is_binary:
        raise UnsupportedMeasure("fbar is defined for the symmetric +-1 measure only")
    x = np.asarray(x, dtype=float)
    return hamiltonian_density(model, x) - float(model.alpha @ entropy_I(x))


def functional_f(model: ValidatedModel, x) -> float | np.ndarray:
    """Gaussian-transform functional; total on R^n.

    Accepts a single point (returns a float) or a batch of rows.
    """
    model = _require_validated(model)
    model.check_measure("functional_f")
    x = np.asarray(x, dtype=float)
    vals = _f_batch(model, np.atleast_2d(x))
    return float(vals[0]) if x.ndim == 1 else vals


def _f_batch(model: ValidatedModel, X: np.ndarray) -> np.ndarray:
    am = X * model.alpha[None, :]
    quad = 0.5 * np.einsum("bi,ij,bj->b", am, model.J, am)
    u = _fields(model, X)
    if model.is_binary:
        # exp(-2|u|) is 0.0 from |u| = 400 on, so the clamp is exact and keeps
        # -2|u| finite at |u| > 9e307
        log_mgf = np.abs(u) + np.log1p(np.exp(-2.0 * np.minimum(np.abs(u), 400.0))) - LN2
    else:
        locs = model.site_measure.locations
        logw = np.log(model.site_measure.weights)
        log_mgf = _lse(u[..., None] * locs + logw, axis=-1)
    return -quad + log_mgf @ model.alpha


def _grad_f_batch(model: ValidatedModel, X: np.ndarray) -> np.ndarray:
    u = _fields(model, X)
    mean = _tilted_moments(model, u, 1)[0]
    core = model.alpha[:, None] * model.J * model.alpha[None, :]
    return (mean - X) @ core


# --- fixed-point search ---------------------------------------------------


def _grid(axis: np.ndarray, n: int) -> np.ndarray:
    """Every point of axis^n as a row, in itertools.product order."""
    return axis[np.indices((len(axis),) * n).reshape(n, -1)].T.copy()


def _start_grid(model: ValidatedModel, opts: SolverOptions) -> np.ndarray:
    lo, hi = model.support_range
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return _grid(np.linspace(mid - 0.99 * half, mid + 0.99 * half, opts.grid_points),
                 model.n)


def _map_rows(model: ValidatedModel, X: np.ndarray, B: np.ndarray, h: np.ndarray):
    """Map values and variances var_l at a batch of rows, fields u = B x + h.

    B, h are shared, (n, n) and (n,), or one pair per row, (P, n, n) and
    (P, n).  Each row is multiplied as its own matrix: bitwise equal to one
    point at a time, which a (P, n) @ (n, n) product is not.  Binary spins
    take tanh: the atom route's noise floor spoils degenerate roots.
    """
    u = np.matmul(X[:, None, :], np.swapaxes(B, -1, -2))[:, 0] + h
    if model.is_binary:
        return np.tanh(u), _sech2(u)
    m = _tilted_moments(model, u, 2)
    return m[0], m[1] - m[0] ** 2


def _map_defect(model: ValidatedModel, X: np.ndarray, B: np.ndarray, h: np.ndarray):
    """X - map(X), compensated against cancellation, and var_l (as ``_map_rows``).

    For binary spins, x - tanh(u) is regrouped as (I - B)x - h + r(u) with
    r(u) = u - tanh(u) by series: near degenerate roots the naive
    difference rounds to zero long before the root is located.  Where
    tanh(u) rounds to +-1 the plain difference is exact and is kept.
    """
    if not model.is_binary:
        mean, var = _map_rows(model, X, B, h)
        return X - mean, var
    BX = np.matmul(B, X[:, :, None])[:, :, 0]
    u = BX + h
    t = np.tanh(u)
    r = u - t
    small = np.abs(u) <= 0.1
    if np.any(small):
        us = u[small]
        acc = np.zeros_like(us)
        for c in reversed(_TANH_REMAINDER):
            acc = us * us * (c + acc)
        r[small] = us * acc
    return np.where(np.abs(t) == 1.0, X - t, (X - BX) - h + r), _sech2(u)


def _newton_polish(model, X, opts, B=None, h=None):
    """Newton on x - map(x) = 0 for a batch of rows; every row and its residual.

    B = J diag(alpha) and h are the model's unless given (as ``_map_rows``),
    so one batch can hold many models' starts.  Each row takes exactly the
    steps it would take alone.  A row stops once its defect and last step
    are both small (at a degenerate root the defect is cubically flat), at
    an exactly singular Jacobian (dropped before its first step unless its
    defect is 0), or when its defect, above tol, is no lower than
    ``_STALL_STEPS`` steps before.  Roots lie in the support hull [lo, hi]^n,
    so a row that leaves it is dropped (nan).
    """
    if B is None:
        B, h = model.row_couplings()
    X = X.copy()
    lo, hi = model.support_range
    step_norm = np.full(len(X), np.inf)
    mark = np.full(len(X), np.inf)
    live = np.arange(len(X))
    for it in range(opts.newton_max_iter):
        x = X[live]
        Bx, hx = (B[live], h[live]) if B.ndim == 3 else (B, h)
        F, var = _map_defect(model, x, Bx, hx)
        JF = np.eye(model.n) - var[:, :, None] * Bx
        defect = np.max(np.abs(F), axis=1)
        small = opts.tol * (1.0 + np.max(np.abs(x), axis=1))
        go = (defect > opts.tol) | (step_norm[live] > small)
        if it % _STALL_STEPS == 0:
            go &= (defect < mark[live]) | (defect <= opts.tol)
            mark[live] = defect
        live, F, JF = live[go], F[go], JF[go]
        regular = np.linalg.slogdet(JF)[0] != 0
        X[live[~regular & np.isinf(step_norm[live]) & np.any(F != 0, axis=1)]] = np.nan
        live, F, JF = live[regular], F[regular], JF[regular]
        if not len(live):
            break
        step = np.linalg.solve(JF, F[:, :, None])[:, :, 0]
        X[live] -= step
        inside = np.all((X[live] >= lo) & (X[live] <= hi), axis=1)
        X[live[~inside]] = np.nan      # fails the final residual test
        live = live[inside]
        step_norm[live] = np.max(np.abs(step[inside]), axis=1)
    return X, np.max(np.abs(X - _map_rows(model, X, B, h)[0]), axis=1)


def _stationary_points(model: ValidatedModel, X: np.ndarray, res: np.ndarray,
                       opts: SolverOptions) -> list[StationaryPoint]:
    """The distinct rows of one model's polish within tol; NoConvergence if none."""
    keep = res <= opts.tol
    if not np.any(keep):
        raise NoConvergence("no start converged to the requested residual")
    return [StationaryPoint(x=x, residual=r,
                            f_value=float(_f_batch(model, x[None, :])[0]),
                            fbar_value=functional_fbar(model, x)
                            if model.is_binary else None)
            for x, r in _dedup_points(X[keep], res[keep], opts.dedup_radius)]


def solve_fixed_points(model: ValidatedModel,
                       opts: SolverOptions | None = None) -> list[StationaryPoint]:
    """All distinct solutions of the self-consistency system.

    One batched Newton polish of every grid start to the target residual,
    then a lexicographic sort and a single-linkage dedup.  Starts that
    fail to converge are dropped; NoConvergence is raised only if all fail.
    """
    model = _require_validated(model)
    model.check_measure("solve_fixed_points")
    opts = opts or SolverOptions()
    return _stationary_points(model, *_newton_polish(model, _start_grid(model, opts), opts),
                              opts)


def _dedup_points(pts: np.ndarray, res: np.ndarray,
                  radius: float) -> list[tuple[np.ndarray, float]]:
    """Single-linkage clustering; each cluster keeps its best point.

    Rows are sorted lexicographically and repeats collapsed.  Rows within
    max-norm ``radius`` are linked and a cluster is a chain of links, so
    points spread wider than the radius around a degenerate root merge.
    The best point has the smallest (residual, max|x|), the earliest on
    ties; the output keeps the sorted order, independent of the starts.
    """
    order = np.lexsort(pts.T[::-1])
    pts, res = pts[order], res[order]
    fresh = np.ones(len(pts), dtype=bool)
    fresh[1:] = np.any(pts[1:] != pts[:-1], axis=1) | (res[1:] != res[:-1])
    pts, res = pts[fresh], res[fresh]
    count = len(pts)
    # Grow each cluster breadth-first from its first row, comparing a
    # block of frontier rows at a time to bound the distance table.
    labels = np.full(count, -1)
    block = max(1, 2 ** 20 // (count * pts.shape[1]))
    while np.any(labels < 0):
        frontier = np.flatnonzero(labels < 0)[:1]
        labels[frontier] = frontier
        while len(frontier):
            free = np.flatnonzero(labels < 0)
            near = np.zeros(len(free), dtype=bool)
            for i in range(0, len(frontier), block):
                gap = np.abs(pts[frontier[i:i + block], None] - pts[None, free])
                near |= np.any(np.max(gap, axis=2) <= radius, axis=0)
            labels[free[near]] = labels[frontier[0]]
            frontier = free[near]

    best = np.lexsort((np.max(np.abs(pts), axis=1), res, labels))
    heads = np.ones(count, dtype=bool)
    heads[1:] = labels[best[1:]] != labels[best[:-1]]
    return [(pts[i], float(res[i])) for i in np.sort(best[heads])]


# --- classification -------------------------------------------------------


def _hessian_f(model: ValidatedModel, X: np.ndarray) -> np.ndarray:
    """Hessians of f at a batch of rows, shape (P, n, n)."""
    u = _fields(model, X)
    mom = _tilted_moments(model, u, 2)
    var = mom[1] - mom[0] ** 2
    inner = model.J @ ((model.alpha * var)[:, :, None] * model.J) - model.J
    return (model.alpha[:, None] * model.alpha[None, :]) * inner


def _curvature(model: ValidatedModel, x) -> tuple[np.ndarray, np.ndarray]:
    """fbar's curvature M = diag(1/var) - D J D at x as (S M S, S), S = diag(sqrt(var)).

    With D = diag(sqrt(alpha)), M is minus fbar's rescaled Hessian for any symmetric
    J, positive definite exactly at a quadratic maximum; S M S = I - S D J D S has
    its inertia and stays finite where a spin is nearly frozen (1/var overflows).
    """
    x = np.asarray(x, dtype=float)[None, :]
    s = np.sqrt(_map_rows(model, x, *model.row_couplings())[1][0])
    return np.eye(model.n) - s[:, None] * model.coupling_core() * s[None, :], s


def _term_sizes(model: ValidatedModel, u: np.ndarray, rays: np.ndarray, order: int):
    """Cumulants 1..order at fields u and the size |alpha_l kappa_m,l| |R_l|^m
    of f's order-m Taylor term on ray l; both (order, n)."""
    kappa = _cumulants_from_moments(_tilted_moments(model, u, order))
    orders = np.arange(1, order + 1)[:, None]
    return kappa, np.abs(model.alpha * kappa) * np.linalg.norm(rays, axis=1) ** orders


def classify_maximum(model: ValidatedModel,
                     point: StationaryPoint) -> MaximumClassification:
    """Type k of a maximum by exact certificates, one rule for every n.

    fbar's curvature (``_curvature``) decides first: positive definite is
    k=1 unless the cubic term could fake it (a fold, NotAMaximum), a negative
    eigenvalue is NotAMaximum, singular but nonzero is a refused mixed
    degeneracy.  Where it vanishes, f's order-m Taylor term is
    sum_l alpha_l kappa_m(u_l) / m! <R_l, v>^m, R = J diag(alpha): 2k is the
    first even order with a term above the threshold, lower odd terms must
    vanish ray by ray, and the degree-2k form must pass the ray certificate
    (``HomogeneousForm.definiteness_fault``).  One species is the ray R = (J).
    """
    model = _require_validated(model)
    model.check_measure("classify_maximum")
    x = np.asarray(point.x, dtype=float)
    eigs = np.linalg.eigvalsh(_curvature(model, x)[0])
    if eigs.min() < -_DERIV_TOL:
        raise NotAMaximum("curvature diag(1/var) - D J D has a negative eigenvalue")
    u = _fields(model, x[None, :])[0]
    rays = model.row_couplings()[0]
    if eigs.min() > _DERIV_TOL:
        # a fold located _POS_ERR off its double root shows cubic term * offset
        if eigs.min() <= 10.0 * _term_sizes(model, u, rays, 3)[1][2].max() * _POS_ERR:
            raise NotAMaximum("curvature is within the cubic term's reach: a fold")
        hess = _hessian_f(model, x[None, :])[0]
        return MaximumClassification(point=point, k=1, hessian=hess,
                                     strength=float(hess[0, 0]) if model.n == 1 else None)
    if eigs.max() > _DERIV_TOL:
        raise UnsupportedDegeneracy(
            "curvature is singular but not zero: mixed-homogeneity maximum")
    # M = 0 forces D J D = diag(1/var) > 0, where f's leading form is the law's.
    kappa, size = _term_sizes(model, u, rays, _MAX_ORDER)
    even = [m for m in range(4, _MAX_ORDER + 1, 2) if np.any(size[m - 1] > _DERIV_TOL)]
    if not even:
        raise UnsupportedDegeneracy(f"all even terms through order {_MAX_ORDER} vanish")
    deg = even[0]
    for j in range(3, deg, 2):
        allowed = np.maximum(_DERIV_TOL, 10.0 * size[deg - 1] * _POS_ERR ** (deg - j))
        if np.any(size[j - 1] > allowed):
            raise NotAMaximum(f"odd term of order {j} dominates: an inflection")
    coeffs = model.alpha * kappa[deg - 1] / math.factorial(deg)
    form = HomogeneousForm(deg, tuple(float(c) for c in coeffs),
                           tuple(tuple(r) for r in rays))
    fault = form.definiteness_fault(model.n)
    if fault:
        if np.any(coeffs > 0) and np.linalg.matrix_rank(rays) == model.n:
            raise NotAMaximum(f"term of order {deg} is positive along a ray")
        raise UnsupportedDegeneracy(f"form of degree {deg}: {fault}")
    strength = float(model.J[0, 0] ** deg * kappa[deg - 1, 0]) if model.n == 1 else None
    return MaximumClassification(point=point, k=deg // 2, strength=strength,
                                 quartic_form=form)


# --- pressure limit and scans ---------------------------------------------


def _max_f_direct(model: ValidatedModel) -> float:
    """Global maximum of f on R^n by the direct route, for the cross-check.

    The fixed-point route maximizes fbar over the solutions of the
    self-consistency system; this route never solves that system.  It runs
    one batched modified-Newton ascent on f from every start of a coarse
    grid (Nocedal & Wright, Numerical Optimization, ch. 3 and sec. 3.4).
    Each step takes the Hessian's eigenvalues as -max(|lambda|, floor),
    so every direction is an ascent direction, and halves the step until
    the Armijo condition holds.  A row retires once its gradient vanishes,
    once an accepted step no longer raises f measurably (Newton is only
    linear at a degenerate maximum), or when no step length raises f.
    """
    lo, hi = model.support_range
    axis = np.linspace(lo * 0.9, hi * 0.9, 5) if model.n > 1 else \
        np.linspace(lo * 0.99, hi * 0.99, 9)
    X = _grid(axis, model.n)
    F = _f_batch(model, X)
    live = np.arange(len(X))
    for _ in range(_ASCENT_STEPS):
        G = _grad_f_batch(model, X[live])
        steep = np.max(np.abs(G), axis=1) > _ASCENT_GTOL
        live, G = live[steep], G[steep]
        if not len(live):
            break
        lam, V = np.linalg.eigh(_hessian_f(model, X[live]))
        coef = np.einsum("pji,pj->pi", V, G) / np.maximum(np.abs(lam), _CURVATURE_FLOOR)
        step = np.einsum("pij,pj->pi", V, coef)
        slope = np.einsum("pi,pi->p", G, step)
        x0, f0 = X[live], F[live]
        t = 1.0
        todo = np.arange(len(live))
        for _ in range(_HALVINGS):
            trial = x0[todo] + t * step[todo]
            ft = _f_batch(model, trial)
            ok = ft >= f0[todo] + _ARMIJO * t * slope[todo]
            rows = live[todo[ok]]
            X[rows], F[rows] = trial[ok], ft[ok]
            todo = todo[~ok]
            if not len(todo):
                break
            t *= 0.5
        gain = F[live] - f0
        live = live[gain > _ASCENT_FTOL * (1.0 + np.abs(F[live]))]
    return float(F.max())


def pressure_limit(model: ValidatedModel,
                   opts: SolverOptions | None = None) -> PressureResult:
    """Thermodynamic pressure limit and the classified set of global maxima."""
    model = _require_validated(model)
    opts = opts or SolverOptions()
    points = solve_fixed_points(model, opts)
    values = np.array([p.fbar_value if model.is_binary else p.f_value for p in points])
    limit = float(values.max())
    maxima = []
    for p, v in zip(points, values):
        if v >= limit - 1e-9:
            cls = classify_maximum(model, p)
            maxima.append(replace(cls, is_global=True))
    try:
        np.linalg.cholesky(model.coupling_core())
    except np.linalg.LinAlgError:
        agreement = math.nan
    else:
        agreement = abs(limit - _max_f_direct(model))
    return PressureResult(limit_value=limit, maxima=maxima,
                          method_agreement=agreement, fixed_points=points)


def cw_phase_scan(J_grid, h: float,
                  opts: SolverOptions | None = None) -> dict[str, np.ndarray]:
    """Single-species scan: magnetization, pressure and its J-derivatives.

    Columns: J, mu (largest fixed point), pressure, dp_dJ (= mu^2 / 2) and
    the centered second difference of the pressure over the grid (nan at
    the ends).  Every J's starts form one Newton batch; each J's rows then
    give its fixed points exactly as ``solve_fixed_points`` would.
    """
    J_grid = np.asarray(J_grid, dtype=float)
    if np.any(J_grid <= 0) or np.any(np.diff(J_grid) <= 0):
        raise DomainError("J grid must be positive and strictly increasing")
    opts = opts or SolverOptions()
    models = [validate_model(ModelSpec(n=1, alpha=(1.0,), J=((float(J),),), h=(float(h),)))
              for J in J_grid]
    g = opts.grid_points
    mu = np.empty_like(J_grid)
    pressure = np.empty_like(J_grid)
    for i, model in enumerate(models):
        if not i:   # one Newton batch for every J; alpha = 1, so B = J
            X = np.tile(_start_grid(model, opts), (len(J_grid), 1))
            X, res = _newton_polish(model, X, opts, np.repeat(J_grid, g)[:, None, None],
                                    np.full_like(X, h))
        pts = _stationary_points(model, X[i * g:(i + 1) * g], res[i * g:(i + 1) * g], opts)
        mu[i] = max(p.x[0] for p in pts)
        pressure[i] = max(p.fbar_value for p in pts)
    dj = np.diff(J_grid)
    d2p = np.full_like(J_grid, np.nan)
    d2p[1:-1] = (pressure[2:] - 2.0 * pressure[1:-1] + pressure[:-2]) / (dj[1:] * dj[:-1])
    return {"J": J_grid, "mu": mu, "pressure": pressure,
            "dp_dJ": 0.5 * mu ** 2, "d2p": d2p}
