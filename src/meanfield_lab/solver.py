"""Variational functionals, self-consistency solver and maximum classification.

Two functionals drive everything.  On the magnetization cube the
enumeration route maximizes

    fbar(x) = g(x) - sum_l alpha_l * entropy_I(x_l)          (binary spins)

while the Gaussian-transform route maximizes, on all of R^n,

    f(x) = -1/2 <J~ x, x> + sum_l alpha_l log E_rho[exp(s * u_l(x))]

with u_l(x) = sum_s alpha_s J_ls x_s + h_l.  Both share the stationarity
system x_l = tilted_mean(u_l), which for +-1 spins is the familiar
x_l = tanh(u_l).  Stationary points are found by multistart Newton (a
damped map moves away from unstable points and loses them; at a degenerate
root, where Newton is only linear, a row moves to the simple root of the
first odd cumulant that has one), then
classified by one rule for every n and any symmetric J: fbar's curvature
(``_curvature``) first, and where it vanishes f's Taylor terms ray by
ray, whose first nonvanishing even order is 2k (type k; strength lambda
for one species).

The pressure limit is computed by two routes that share no solver:
route 1 takes max fbar over the fixed points, route 2 maximizes f
directly by a batched modified-Newton ascent from a coarse grid
(``_ascent._ascend``: it retires a row at a rounding-level predicted gain,
scales a linearly converging step by its multiplicity and merges climbers
of one strictly concave cell).  Their gap is reported as
``method_agreement``, nan when route 2 does not apply or overflows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from ._ascent import _EPS, _ascend, _steady
from ._cluster import _dedup_points, _dedup_rows
from .errors import (
    ConfigParse,
    DomainError,
    NoConvergence,
    NonFiniteParameter,
    NotAMaximum,
    UnsupportedDegeneracy,
    UnsupportedMeasure,
)
from .exact import _lse
from .model import (ModelSpec, ValidatedModel, _integer, _require_validated,
                    hamiltonian_density, validate_model)

LN2 = math.log(2.0)
_DERIV_TOL = 1e-9
# A degenerate maximum is located to ~1e-6 at worst (flat roots resolve no
# better in double precision), so a lower odd derivative of order j picks up
# |lambda| * offset^(2k - j) and must only vanish to that.
_POS_ERR = 1e-6
_MAX_ORDER = 8
_TIE_TOL = 1e-9     # fixed points this close to the top functional value tie
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
        _integer(self.grid_points, "grid_points", 1)
        _integer(self.newton_max_iter, "newton_max_iter", 0)
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
    is f's derivative of order 2k, for one species only.  ``global_types``: the types
    of every global maximum in the result that found this one; None if made by hand."""

    point: StationaryPoint
    k: int
    strength: float | None = None
    hessian: np.ndarray | None = None
    quartic_form: HomogeneousForm | None = None
    global_types: tuple[int, ...] | None = None

    @property
    def is_global(self) -> bool:
        return self.global_types is not None


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
    The solver passes one entry per species or per scanned point, so the loop costs little.
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
    with np.errstate(over="ignore"):    # a +-1 spin's tanh and sech^2 are exact at u = +-inf
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
    with np.errstate(over="ignore", invalid="ignore"):  # in the branch dropped at |t| = 1
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


def _deflated(model, X, step, shrink, B, h):
    """Candidates at a multiple root for rows whose Newton steps shrink by ``shrink``
    (B, h shared or per row), and which are roots: every component's defect at
    rounding level, and I - diag(var) B singular to within 16 eps.

    At a root of multiplicity m = 2k - 1 each step shrinks by (m - 1)/m, and as
    F^(j) = -J^j kappa_(j+1) for j >= 2, kappa_m has a simple root there (Ralston &
    Rabinowitz 1978).  +-1 spins take u = x = 0 in the species within a few steps
    of 0, where kappa_3 = -2 tanh u sech^2 u vanishes; one species of any measure
    runs Newton on kappa_m(u) from the extrapolated root x - (m - 1) step.
    """
    B = np.broadcast_to(B, (len(X),) + B.shape[-2:])
    if model.is_binary:
        C = np.where(np.abs(X) <= 4.0 * np.abs(step), 0.0, X)
    else:
        m = 2 * np.rint(0.5 / (1.0 - shrink) + 0.5).astype(int) - 1
        i = np.arange(len(X))
        u = (X - (m[:, None] - 1) * step) * B[:, 0] + h
        with np.errstate(all="ignore"):     # a runaway u gives nan: no candidate
            for _ in range(8):
                kappa = _cumulants_from_moments(_tilted_moments(model, u[:, 0], m.max() + 1))
                u[:, 0] -= kappa[m - 1, i] / kappa[m, i]
            C = _tilted_moments(model, u, 1)[0]
    mean, var = _map_rows(model, C, B, h)
    scale = np.abs(C) + np.abs(mean) + np.abs(np.matmul(B, C[:, :, None])[:, :, 0]) + np.abs(h)
    ok = np.all(np.abs(C - mean) <= 4.0 * _EPS * scale, axis=1)
    K = np.eye(model.n) - var[ok, :, None] * B[ok]
    ok[ok] = np.linalg.svd(K, compute_uv=False)[:, -1] <= 16.0 * _EPS
    return C, ok


def _newton_polish(model, X, opts, B=None, h=None):
    """Newton on x - map(x) = 0 for a batch of rows; every row and its residual.

    B = J diag(alpha) and h are the model's unless given (as ``_map_rows``),
    so one batch can hold many models' starts.  Each row takes exactly the
    steps it would take alone.  A row stops once its defect and last step
    are both small (at a degenerate root the defect is cubically flat), at
    an exactly singular Jacobian (dropped before its first step unless its
    defect is 0), or when its defect, above tol, is no lower than
    ``_STALL_STEPS`` steps before.  Roots lie in the support hull [lo, hi]^n,
    so a row that leaves it is dropped (nan).  Newton is only linear at a
    multiple root: a row whose step ratio holds steady in (0.5, 0.95) gets one
    deflated candidate (``_deflated``), which replaces and retires it if it is
    a root; otherwise the row goes on as before.
    """
    if B is None:
        B, h = model.row_couplings()
    X = X.copy()
    lo, hi = model.support_range
    step_norm = np.full(len(X), np.inf)
    shrink = np.full(len(X), np.nan)
    tried = np.zeros(len(X), dtype=bool)
    mark = np.full(len(X), np.inf)
    live = np.arange(len(X))
    for it in range(opts.newton_max_iter):
        if not len(live):
            break
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
        try:
            step = np.linalg.solve(JF, F[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:   # LU met an exact zero pivot: stop those rows
            regular = np.linalg.slogdet(JF)[0] != 0
            X[live[~regular & np.isinf(step_norm[live]) & np.any(F != 0, axis=1)]] = np.nan
            live, F, JF = live[regular], F[regular], JF[regular]
            step = np.linalg.solve(JF, F[:, :, None])[:, :, 0]
        X[live] -= step
        inside = np.all((X[live] >= lo) & (X[live] <= hi), axis=1)
        X[live[~inside]] = np.nan      # fails the final residual test
        live, step = live[inside], step[inside]
        new = np.max(np.abs(step), axis=1)
        with np.errstate(over="ignore"):    # a step after a subnormal one
            ratio = new / step_norm[live]
        linear = ~tried[live] & _steady(ratio, shrink[live])
        step_norm[live], shrink[live] = new, ratio
        if np.any(linear):
            rows = live[linear]
            tried[rows] = True
            Bx, hx = (B[rows], h[rows]) if B.ndim == 3 else (B, h)
            C, ok = _deflated(model, X[rows], step[linear], ratio[linear], Bx, hx)
            X[rows[ok]] = C[ok]
            live = live[~np.isin(live, rows[ok])]
    return X, np.max(np.abs(X - _map_rows(model, X, B, h)[0]), axis=1)


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
    X, res = _newton_polish(model, _start_grid(model, opts), opts)
    keep = res <= opts.tol
    if not np.any(keep):
        raise NoConvergence("no start converged to the requested residual")
    return [StationaryPoint(x=x, residual=r, f_value=float(_f_batch(model, x[None, :])[0]),
                            fbar_value=functional_fbar(model, x) if model.is_binary else None)
            for x, r in _dedup_points(X[keep], res[keep], opts.dedup_radius)]


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
    ``_ascend`` on f from every start of a coarse grid, and the ascent sees
    only ``_f_batch``, ``_grad_f_batch`` and ``_hessian_f``, nothing of the
    fixed-point route (its map, Newton or deflated candidates), so a missed
    or spurious fixed point shows as a gap.  Three rules cut its work only:
    a row retires once its predicted gain G.step is at the rounding of f; a
    row whose step ratio holds at rho (a degenerate maximum) steps
    m = round(1/(1 - rho)) times as far; of the rows whose last Hessians were
    negative definite, only the highest in each cell of side 1e-2 climbs on.
    A value that overflows comes back as it is (inf or nan).
    """
    lo, hi = model.support_range
    axis = np.linspace(lo * 0.9, hi * 0.9, 5) if model.n > 1 else \
        np.linspace(lo * 0.99, hi * 0.99, 9)
    return _ascend(lambda X: _f_batch(model, X), lambda X: _grad_f_batch(model, X),
                   lambda X: _hessian_f(model, X), _grid(axis, model.n))


def _equilibrium(values: np.ndarray, group: np.ndarray, lowest):
    """Per group (an integer >= 0 per row): the limit, max of ``values``, and a mask of the
    equilibrium rows, those within _TIE_TOL of it, less any whose lowest curvature eigenvalue
    ``lowest(rows)`` is below -_DERIV_TOL unless that leaves the group none."""
    limit = np.full(group.max(initial=-1) + 1, -np.inf)
    np.maximum.at(limit, group, values)
    ties = values >= limit[group] - _TIE_TOL
    peaks = ties.copy()
    peaks[ties] = np.asarray(lowest(np.flatnonzero(ties))) >= -_DERIV_TOL
    return limit, np.where(np.bincount(group, peaks)[group] > 0, peaks, ties)


def _global_maxima(model: ValidatedModel, opts: SolverOptions | None):
    """Fixed points, the limit and its classified equilibrium set, stamped with their types."""
    points = solve_fixed_points(model, opts)
    values = np.array([p.fbar_value if model.is_binary else p.f_value for p in points])
    limit, peaks = _equilibrium(values, np.zeros(len(points), dtype=int), lambda rows: [
        np.linalg.eigvalsh(_curvature(model, points[i].x)[0])[0] for i in rows])
    maxima = [classify_maximum(model, p) for p, peak in zip(points, peaks) if peak]
    types = tuple(c.k for c in maxima)
    return points, float(limit[0]), [replace(c, global_types=types) for c in maxima]


def pressure_limit(model: ValidatedModel,
                   opts: SolverOptions | None = None) -> PressureResult:
    """Thermodynamic pressure limit and the classified set of global maxima."""
    points, limit, maxima = _global_maxima(model, opts)
    try:
        np.linalg.cholesky(model.coupling_core())
    except np.linalg.LinAlgError:
        direct = math.nan
    else:
        direct = _max_f_direct(model)
    # nan, no independent check: an indefinite core, or a direct value that overflowed
    agreement = abs(limit - direct) if math.isfinite(direct) else math.nan
    return PressureResult(limit_value=limit, maxima=maxima,
                          method_agreement=agreement, fixed_points=points)


def cw_phase_scan(J_grid, h: float,
                  opts: SolverOptions | None = None) -> dict[str, np.ndarray]:
    """Single-species scan: magnetization, pressure and its J-derivatives.

    Columns: J, mu (the equilibrium magnetization, the largest at a tie), pressure,
    dp_dJ = mu^2 / 2 (dp/dJ by the envelope theorem) and d2p, the three-point second
    difference of the pressure on any grid spacing (nan at the ends).  One Newton batch holds
    every J's starts; one array pass over its rows, keyed by J, applies ``pressure_limit``'s
    rules: tol (NoConvergence if a J keeps no row), ``_dedup_rows``, fbar, the curvature
    1 - J sech^2(J x + h), ``_equilibrium``; all elementwise, so each J keeps its solve's bits.
    """
    J_grid = np.asarray(J_grid, dtype=float)
    if np.any(J_grid <= 0) or np.any(np.diff(J_grid) <= 0):
        raise DomainError("J grid must be positive and strictly increasing")
    if not np.all(np.isfinite(J_grid)):
        raise NonFiniteParameter("J grid entries must be finite")
    # one model holds the measure and h; each row of the batch carries its own J
    model = validate_model(ModelSpec(n=1, alpha=(1.0,), J=((1.0,),), h=(float(h),)))
    opts = opts or SolverOptions()
    group = np.repeat(np.arange(len(J_grid)), opts.grid_points)     # each row's J index
    B, H = J_grid[group, None, None], np.full((len(group), 1), model.h)    # alpha = 1: B = J
    X, res = _newton_polish(model, np.resize(_start_grid(model, opts), H.shape), opts, B, H)
    keep = np.flatnonzero(res <= opts.tol)
    if np.any(np.bincount(group[keep], minlength=len(J_grid)) == 0):
        raise NoConvergence("no start converged to the requested residual")
    rows = keep[_dedup_rows(X[keep], res[keep], opts.dedup_radius, group[keep])]
    x, J, group = X[rows, 0], B[rows, 0, 0], group[rows]
    s = np.sqrt(_map_rows(model, X[rows], B[rows], H[rows])[1][:, 0])
    fbar = 0.5 * x * J * x + model.h * x - entropy_I(x)
    pressure, peaks = _equilibrium(fbar, group, lambda i: 1.0 - s[i] * J[i] * s[i])
    mu = np.full_like(J_grid, -np.inf)
    np.maximum.at(mu, group[peaks], x[peaks])
    dj, dp = np.diff(J_grid), np.diff(pressure)
    d2p = np.full_like(J_grid, np.nan)
    d2p[1:-1] = 2.0 * (dp[1:] / dj[1:] - dp[:-1] / dj[:-1]) / (dj[1:] + dj[:-1])
    return {"J": J_grid, "mu": mu, "pressure": pressure,
            "dp_dJ": 0.5 * mu ** 2, "d2p": d2p}
