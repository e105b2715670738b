"""Variational functionals, self-consistency solver and maximum classification.

Two functionals drive everything.  On the magnetization cube the
enumeration route maximizes

    fbar(x) = g(x) - sum_l alpha_l * entropy_I(x_l)     (+-1 spins only)

while the Gaussian-transform route maximizes, on all of R^n,

    f(x) = -1/2 <J~ x, x> + sum_l alpha_l log E_rho[exp(s * u_l(x))]

with u_l(x) = sum_s alpha_s J_ls x_s + h_l.  Both share the stationarity
system x_l = tilted_mean(u_l), which for +-1 spins is the familiar
x_l = tanh(u_l).  Stationary points are found by Newton from every start
of a grid, each iterate clamped to the support hull (at a degenerate root,
where Newton is only linear, each species moves to the simple root of the
first odd cumulant that has one).  A single solve and the phase scan share the
stage after it: ``_cluster``'s row rules, ``_fbar_rows`` and ``_curvature``.
Maxima are classified by one rule for every n and any symmetric J:
fbar's curvature (``_curvature``) first, whose eigenvalues at the rounding
of forming it are 0 (``_cluster._eigs``, the one rule for "singular"), and
where it vanishes f's Taylor terms ray by ray, whose first nonvanishing
even order is 2k (type k; strength lambda for one species).

The pressure limit is computed by two routes that share no solver:
route 1 takes max fbar over the fixed points, route 2 maximizes f
directly by a batched modified-Newton ascent from a coarse grid
(``_ascent._ascend``: it retires a row at a rounding-level predicted gain,
scales a linearly converging step by its multiplicity and merges climbers
of one strictly concave cell).  Their gap is reported as
``method_agreement``, nan when route 2 does not apply or overflows.  The forward layer
(this module, ``_ascent`` and ``_cluster``) imports nothing from the lattice engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._ascent import _EPS, _ascend, _steady
from ._cluster import _TARGET_RESIDUAL, _eigs, _equilibrium, _keep
from .errors import (
    DimensionMismatch,
    DomainError,
    LatticeTooLarge,
    NonFiniteParameter,
    NotAMaximum,
    UnsupportedDegeneracy,
    UnsupportedMeasure,
)
from .model import (ModelSpec, ValidatedModel, _integer, _require_validated,  # noqa: F401
                    _table, hamiltonian_density, validate_model)

_DERIV_TOL = 1e-9     # a Taylor term of f no larger than this vanishes
_MAX_ORDER = 8
# Newton stops a row whose defect has not fallen over this many steps.
_STALL_STEPS = 30
_NEWTON_STEPS = 200     # and every row after this many
_START_CAP = 2 ** 18    # starts in one batch, Newton's or the direct route's
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the multistart search, each checked here.  At most 2^18 (``_START_CAP``)
    starts are allowed: ``grid_points ** n``, times the J count in a phase scan; more raise
    LatticeTooLarge.  ``threads`` is accepted and has no effect.  Newton's target residual,
    step cap and dedup radius are constants (``_cluster._TARGET_RESIDUAL``, ``_NEWTON_STEPS``,
    ``_cluster._DEDUP_RADIUS``).
    """

    grid_points: int = 11
    threads: int = 1

    def __post_init__(self):
        _integer(self.grid_points, "grid_points", 1)
        _integer(self.threads, "threads", 1)


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
        if v.shape[-1:] != rays.shape[1:]:
            raise DimensionMismatch("the last axis of v must match the rays' length")
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
    if not np.all(np.abs(arr) <= 1.0 + 1e-15):     # nan fails
        raise DomainError("entropy_I is defined on [-1, 1]")
    arr = np.clip(arr, -1.0, 1.0)
    val = 0.5 * (_xlogx(1.0 + arr) + _xlogx(1.0 - arr))
    return float(val) if np.isscalar(x) else val


def _fields(model: ValidatedModel, x: np.ndarray) -> np.ndarray:
    """Effective fields u_l = sum_s alpha_s J_ls x_s + h_l, batched."""
    B, h = model.row_couplings()
    return x @ B.T + h


def _logits(model: ValidatedModel, u: np.ndarray) -> np.ndarray:
    """ln of the site measure's weights tilted by exp(s*u), one atom per entry of a last axis."""
    return u[..., None] * model.site_measure.locations + np.log(model.site_measure.weights)


def _log_mgf(model: ValidatedModel, u: np.ndarray) -> np.ndarray:
    """ln E_rho[exp(s*u)] at fields u, the tilted measure's log-normaliser: ln cosh u for
    +-1 spins, else scipy's logsumexp of ``_logits`` over the atoms, bit for bit (the m
    entries equal to the maximum stay out of the shifted sum)."""
    if model.is_binary:
        # exp(-2|u|) is 0.0 from |u| = 400 on, so the clamp is exact and keeps
        # -2|u| finite at |u| > 9e307
        return np.abs(u) + np.log1p(np.exp(-2.0 * np.minimum(np.abs(u), 400.0))) - _LN2
    W = _logits(model, u)
    a_max = W.max(axis=-1, keepdims=True)
    top = W == a_max
    m = np.count_nonzero(top, axis=-1, keepdims=True).astype(float)
    E = np.subtract(W, a_max)
    np.exp(E, out=E)
    E[top] = 0.0
    out = np.log1p(E.sum(axis=-1, keepdims=True) / m) + np.log(m) + a_max
    return out.squeeze(-1)


def _cumulants(model: ValidatedModel, u: np.ndarray, order: int) -> np.ndarray:
    """Cumulants 1..order of the measure tilted by exp(s*u), shape (order, *u.shape): the one
    place in ``src/`` where raw moments become cumulants or a variance (kappa_2), as
    ``_log_mgf`` beside it is the one place where its log-normaliser is formed."""
    locs = model.site_measure.locations
    logits = _logits(model, u)
    with np.errstate(over="ignore"):    # a gap past -1.8e308 is -inf, whose exp 0 is exact
        logits -= logits.max(axis=-1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=-1, keepdims=True)
    m = np.stack([(w * locs ** j).sum(axis=-1) for j in range(1, order + 1)])
    k = m.copy()
    for n in range(2, order + 1):
        for j in range(1, n):
            k[n - 1] -= math.comb(n - 1, j - 1) * k[j - 1] * m[n - j - 1]
    return k


def _sech2(u: np.ndarray) -> np.ndarray:
    """1 / cosh(u)^2 without overflow."""
    a = np.exp(-np.abs(u))
    return (2.0 * a / (1.0 + a * a)) ** 2


# Taylor coefficients of u - tanh(u) = u^3/3 - 2 u^5/15 + ...
_TANH_REMAINDER = (1.0 / 3.0, -2.0 / 15.0, 17.0 / 315.0, -62.0 / 2835.0,
                   1382.0 / 155925.0, -21844.0 / 6081075.0)


def mean_field_map(model: ValidatedModel, x) -> np.ndarray:
    """Right-hand side of the self-consistency system at a point x or at each row of x, read
    through ``check_point``: DimensionMismatch for another shape, DomainError for nan or inf."""
    x = _require_validated(model).check_point(x, "x", rows=True)
    out = _map_rows(model, np.atleast_2d(x), *model.row_couplings())[0]
    return out[0] if x.ndim == 1 else out


def functional_fbar(model: ValidatedModel, x) -> float:
    """Enumeration-route functional g(x) - sum_l alpha_l entropy_I(x_l)."""
    model = _require_validated(model)
    if not model.is_binary:
        raise UnsupportedMeasure("fbar is defined for the symmetric +-1 measure only")
    return float(_fbar_rows(model, model.check_point(x, "magnetization vector")[None, :])[0])


def _fbar_rows(model: ValidatedModel, X: np.ndarray, J=None) -> np.ndarray:
    """fbar at a batch of rows: g(x) = 1/2 <a, J a> + <h, a> at a = alpha x, less
    alpha . entropy_I(x).  J is the model's unless given per row, (P, n, n).  Each
    row's products are stacked (P, 1, n) matmuls, bitwise equal to one point alone."""
    am = (model.alpha * X)[:, None, :]
    g = 0.5 * am @ (model.J if J is None else J) @ am.mT + model.h[None, :] @ am.mT
    return (g - model.alpha[None, :] @ entropy_I(X)[:, :, None])[:, 0, 0]


def functional_f(model: ValidatedModel, x) -> float | np.ndarray:
    """Gaussian-transform functional; total on R^n.

    Accepts a single point (returns a float) or a batch of rows, read through ``check_point``:
    DimensionMismatch for another shape, DomainError for nan or inf.
    """
    x = _require_validated(model).check_point(x, "x", rows=True)
    vals = _f_batch(model, np.atleast_2d(x))
    return float(vals[0]) if x.ndim == 1 else vals


def _f_batch(model: ValidatedModel, X: np.ndarray) -> np.ndarray:
    am = X * model.alpha[None, :]
    quad = 0.5 * np.einsum("bi,ij,bj->b", am, model.J, am)
    return -quad + _log_mgf(model, _fields(model, X)) @ model.alpha


def _grad_f_batch(model: ValidatedModel, X: np.ndarray) -> np.ndarray:
    u = _fields(model, X)
    mean = _cumulants(model, u, 1)[0]
    core = model.alpha[:, None] * model.J * model.alpha[None, :]
    return (mean - X) @ core


# --- fixed-point search ---------------------------------------------------


def _grid(axis: np.ndarray, n: int) -> np.ndarray:
    """Every point of axis^n as a row, in itertools.product order."""
    return _table([axis] * n)


def _start_grid(model: ValidatedModel, opts: SolverOptions, copies: int = 1) -> np.ndarray:
    if copies * int(opts.grid_points) ** model.n > _START_CAP:
        raise LatticeTooLarge(f"{copies} x {opts.grid_points}^{model.n} starts exceed {_START_CAP}")
    lo, hi = model.support_range
    with np.errstate(over="ignore", invalid="ignore"):     # at J = 0 an inf r^2 gives nan
        quad = 0.5 * np.float64(max(-lo, hi)) ** 2 * (model.alpha @ np.abs(model.J) @ model.alpha)
    if not np.isfinite(quad):
        raise DomainError(f"f's quadratic term overflows on the support hull [{lo!r}, {hi!r}]")
    mid, half = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo
    axis = np.linspace(mid - 0.99 * half, mid + 0.99 * half, opts.grid_points)
    return np.tile(_grid(axis, model.n), (copies, 1))


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
    return _cumulants(model, u, 2)


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
    (B, h shared or per row), and which are roots: every component's defect at rounding
    level, and I - diag(var) B singular by ``_eigs`` in its symmetric form I - S D J D S.

    At a root of multiplicity m = 2k - 1 each step shrinks by (m - 1)/m, and as
    F^(j) = -J^j kappa_(j+1) for j >= 2, kappa_m has a simple root there (Ralston &
    Rabinowitz 1978).  +-1 spins take u = x = 0 in the species within a few steps
    of 0, where kappa_3 = -2 tanh u sech^2 u vanishes; any other measure runs Newton
    on kappa_m(u_l) in every species (they decouple at the classifier's degenerate
    maxima: M = 0) from u = B x' + h, x' = x - (m - 1) step the extrapolated root.
    """
    B = np.broadcast_to(B, (len(X),) + B.shape[-2:])
    if model.is_binary:
        C = np.where(np.abs(X) <= 4.0 * np.abs(step), 0.0, X)
    else:
        m = 2 * np.rint(0.5 / (1.0 - shrink) + 0.5).astype(int) - 1
        i = np.arange(len(X))
        u = np.matmul(B, (X - (m[:, None] - 1) * step)[:, :, None])[:, :, 0] + h
        with np.errstate(all="ignore"):     # a runaway u gives nan: no candidate
            for _ in range(8):
                kappa = _cumulants(model, u, m.max() + 1)
                u -= kappa[m - 1, i] / kappa[m, i]
            C = _cumulants(model, u, 1)[0]
    mean, var = _map_rows(model, C, B, h)
    scale = np.abs(C) + np.abs(mean) + np.abs(np.matmul(B, C[:, :, None])[:, :, 0]) + np.abs(h)
    ok = np.all(np.abs(C - mean) <= 4.0 * _EPS * scale, axis=1)
    a, b = np.sqrt(var[ok] * model.alpha), np.sqrt(var[ok] / model.alpha)
    ok[ok] = np.any(_eigs(np.eye(model.n) - a[:, :, None] * B[ok] * b[:, None, :]) == 0, axis=1)
    return C, ok


def _newton_polish(model, X, B=None, h=None):
    """Newton on x - map(x) = 0 for a batch of rows; every row and its residual.

    B = J diag(alpha) and h are the model's unless given (as ``_map_rows``),
    so one batch can hold many models' starts.  Each row takes exactly the
    steps it would take alone.  A row stops once its defect is at most
    ``_TARGET_RESIDUAL`` and its last step at most that times 1 + max|x| (at a
    degenerate root the defect is cubically flat), at an exactly singular
    Jacobian (dropped before its first step unless its defect is 0), when its
    defect, above the target, is no lower than ``_STALL_STEPS`` steps before,
    or after ``_NEWTON_STEPS`` steps.  Roots lie in the support hull [lo, hi]^n,
    so each iterate is clamped to it: a step toward a root on the hull's edge
    can overshoot it, and the row lands on the edge instead of being lost (a
    nan step stays nan and fails the residual test).  Newton is only linear
    at a multiple root: a row whose step ratio holds steady in (0.5, 0.95)
    gets one deflated candidate (``_deflated``), which replaces and retires
    it if it is a root; otherwise the row goes on as before.
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
    for it in range(_NEWTON_STEPS):
        if not len(live):
            break
        x = X[live]
        Bx, hx = (B[live], h[live]) if B.ndim == 3 else (B, h)
        F, var = _map_defect(model, x, Bx, hx)
        JF = np.eye(model.n) - var[:, :, None] * Bx
        defect = np.max(np.abs(F), axis=1)
        small = _TARGET_RESIDUAL * (1.0 + np.max(np.abs(x), axis=1))
        go = (defect > _TARGET_RESIDUAL) | (step_norm[live] > small)
        if it % _STALL_STEPS == 0:
            go &= (defect < mark[live]) | (defect <= _TARGET_RESIDUAL)
            mark[live] = defect
        live, F, JF = live[go], F[go], JF[go]
        try:
            step = np.linalg.solve(JF, F[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:   # LU met an exact zero pivot: stop those rows
            regular = np.linalg.slogdet(JF)[0] != 0
            X[live[~regular & np.isinf(step_norm[live]) & np.any(F != 0, axis=1)]] = np.nan
            live, F, JF = live[regular], F[regular], JF[regular]
            step = np.linalg.solve(JF, F[:, :, None])[:, :, 0]
        X[live] = np.clip(X[live] - step, lo, hi)
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
    then ``_cluster._keep``: starts that fail to converge are dropped
    (NoConvergence only if all fail), the rest sorted and deduped by single
    linkage.  fbar comes from ``_fbar_rows``, f point by point.
    """
    model = _require_validated(model)
    opts = opts or SolverOptions()
    X, res = _newton_polish(model, _start_grid(model, opts))
    rows = _keep(X, res)
    fbar = _fbar_rows(model, X[rows]).tolist() if model.is_binary else [None] * len(rows)
    return [StationaryPoint(x=X[i], residual=float(res[i]),
                            f_value=float(_f_batch(model, X[i:i + 1])[0]), fbar_value=v)
            for i, v in zip(rows, fbar)]


# --- classification -------------------------------------------------------


def _hessian_f(model: ValidatedModel, X: np.ndarray) -> np.ndarray:
    """Hessians of f at a batch of rows, shape (P, n, n)."""
    var = _cumulants(model, _fields(model, X), 2)[1]
    inner = model.J @ ((model.alpha * var)[:, :, None] * model.J) - model.J
    return (model.alpha[:, None] * model.alpha[None, :]) * inner


def _curvature(model: ValidatedModel, x, B=None) -> tuple[np.ndarray, np.ndarray]:
    """fbar's curvature M = diag(1/var) - D J D at x as (S M S, S), S = diag(sqrt(var)).

    With D = diag(sqrt(alpha)), M is minus fbar's rescaled Hessian for any symmetric
    J, positive definite exactly at a quadratic maximum; S M S = I - S D J D S has
    its inertia and stays finite where a spin is nearly frozen (1/var overflows).
    x is a point or a batch of rows, each row bitwise as alone; rows may carry their
    own B (as ``_map_rows``) only at alpha = 1, where D J D = B.
    """
    x = np.asarray(x, dtype=float)
    core = model.coupling_core() if B is None else B
    B = model.row_couplings()[0] if B is None else B
    s = np.sqrt(_map_rows(model, np.atleast_2d(x), B, model.h)[1]).reshape(x.shape)
    return np.eye(model.n) - s[..., :, None] * core * s[..., None, :], s


def _term_sizes(model: ValidatedModel, u: np.ndarray, rays: np.ndarray, order: int):
    """Cumulants 1..order at fields u and the size |alpha_l kappa_m,l| |R_l|^m
    of f's order-m Taylor term on ray l; both (order, n)."""
    kappa = _cumulants(model, u, order)
    orders = np.arange(1, order + 1)[:, None]
    return kappa, np.abs(model.alpha * kappa) * np.linalg.norm(rays, axis=1) ** orders


def classify_maximum(model: ValidatedModel,
                     point: StationaryPoint) -> MaximumClassification:
    """Type k of a maximum by exact certificates, one rule for every n.

    fbar's curvature (``_curvature``), read by ``_eigs``, decides first: a negative eigenvalue
    is NotAMaximum; all positive is k=1 unless it is a fold (NotAMaximum): the point is located
    to the map's rounding loc = 4 eps max(|x| + |R x| + |h|), so to loc / lambda_min, and
    lambda_min^2 <= 10 cubic term * loc; some zero is a refused mixed degeneracy.  Where it is
    zero, f's order-m Taylor term is sum_l alpha_l kappa_m(u_l) / m! <R_l, v>^m, R = J
    diag(alpha): 2k is the first even order with a term above _DERIV_TOL, a lower odd term may
    be no larger than the offset (loc / size_2k)^(1/(2k - 1)) off a root of multiplicity 2k - 1
    makes it, and the degree-2k form must pass the ray certificate
    (``HomogeneousForm.definiteness_fault``).  One species is the ray R = (J).
    """
    model = _require_validated(model)
    x = model.check_point(point.x, "point")
    eigs = _eigs(_curvature(model, x)[0])
    if eigs[0] < 0:
        raise NotAMaximum("curvature diag(1/var) - D J D has a negative eigenvalue")
    u = _fields(model, x[None, :])[0]
    rays = model.row_couplings()[0]
    loc = 4.0 * _EPS * np.max(np.abs(x) + np.abs(rays @ x) + np.abs(model.h))
    if eigs[0] > 0:
        # a fold located loc / eigs[0] off its double root shows cubic term * offset
        if eigs[0] ** 2 <= 10.0 * _term_sizes(model, u, rays, 3)[1][2].max() * loc:
            raise NotAMaximum("curvature is within the cubic term's reach: a fold")
        hess = _hessian_f(model, x[None, :])[0]
        return MaximumClassification(point=point, k=1, hessian=hess,
                                     strength=float(hess[0, 0]) if model.n == 1 else None)
    if eigs[-1] > 0:
        raise UnsupportedDegeneracy(
            "curvature is singular but not zero: mixed-homogeneity maximum")
    # M = 0 forces D J D = diag(1/var) > 0, where f's leading form is the law's.
    kappa, size = _term_sizes(model, u, rays, _MAX_ORDER)
    even = [m for m in range(4, _MAX_ORDER + 1, 2) if np.any(size[m - 1] > _DERIV_TOL)]
    if not even:
        raise UnsupportedDegeneracy(f"all even terms through order {_MAX_ORDER} vanish")
    deg = even[0]
    offset = (loc / size[deg - 1].max()) ** (1.0 / (deg - 1))   # off a root of order deg - 1
    for j in range(3, deg, 2):
        allowed = np.maximum(_DERIV_TOL, 10.0 * size[deg - 1] * offset ** (deg - j))
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
    A value that overflows comes back as it is (inf or nan); a core D J D that is not
    positive definite, or a grid past ``_START_CAP`` starts (5^n at n >= 8), gives nan.
    """
    lo, hi = model.support_range
    axis = np.linspace(lo * 0.9, hi * 0.9, 5) if model.n > 1 else \
        np.linspace(lo * 0.99, hi * 0.99, 9)
    try:
        np.linalg.cholesky(model.coupling_core())
    except np.linalg.LinAlgError:
        return math.nan
    if len(axis) ** model.n > _START_CAP:
        return math.nan
    return _ascend(lambda X: _f_batch(model, X), lambda X: _grad_f_batch(model, X),
                   lambda X: _hessian_f(model, X), _grid(axis, model.n))


def _ranking_values(model: ValidatedModel, points) -> np.ndarray:
    """The values that rank fixed points: fbar for the +-1 measure, else f."""
    return np.array([p.fbar_value if model.is_binary else p.f_value for p in points])


def _global_maxima(model: ValidatedModel, opts: SolverOptions | None):
    """Fixed points, the limit and its classified equilibrium set, stamped with their types."""
    points = solve_fixed_points(model, opts)
    values = _ranking_values(model, points)
    limit, peaks = _equilibrium(values, _curvature(model, np.array([p.x for p in points]))[0])
    maxima = [classify_maximum(model, p) for p, peak in zip(points, peaks) if peak]
    types = tuple(c.k for c in maxima)
    return points, float(limit[0]), [replace(c, global_types=types) for c in maxima]


def pressure_limit(model: ValidatedModel,
                   opts: SolverOptions | None = None) -> PressureResult:
    """Thermodynamic pressure limit and the classified set of global maxima."""
    points, limit, maxima = _global_maxima(model, opts)
    direct = _max_f_direct(model)
    # nan, no independent check: no direct route, or a direct value that overflowed
    agreement = abs(limit - direct) if math.isfinite(direct) else math.nan
    return PressureResult(limit_value=limit, maxima=maxima,
                          method_agreement=agreement, fixed_points=points)


def cw_phase_scan(J_grid, h: float,
                  opts: SolverOptions | None = None) -> dict[str, np.ndarray]:
    """Single-species scan: magnetization, pressure and its J-derivatives.

    Columns: J, mu (the equilibrium magnetization, the largest at a tie), pressure,
    dp_dJ = mu^2 / 2 (dp/dJ by the envelope theorem) and d2p, the three-point second
    difference of the pressure on any grid spacing (nan at the ends).  One Newton batch holds
    every J's starts, each row carrying its own J; the stage after it is ``pressure_limit``'s,
    called once with each row keyed by its J's index: ``_keep`` (NoConvergence if a J keeps no
    row), ``_fbar_rows``, ``_curvature`` and ``_equilibrium``.  Each computes a row as alone,
    so each J keeps the bits of its own solve.
    """
    J_grid = np.asarray(J_grid, dtype=float)
    if J_grid.ndim != 1:
        raise DimensionMismatch("J grid must be one-dimensional")
    if not np.all(np.isfinite(J_grid)):
        raise NonFiniteParameter("J grid entries must be finite")
    if np.any(np.diff(J_grid) <= 0):
        raise DomainError("J grid must be strictly increasing")
    # one model holds the measure and h; each row of the batch carries its own J
    model = validate_model(ModelSpec(n=1, alpha=(1.0,), J=((1.0,),), h=(float(h),)))
    opts = opts or SolverOptions()
    starts = _start_grid(model, opts, len(J_grid))
    group = np.repeat(np.arange(len(J_grid)), opts.grid_points)     # each row's J index
    B, H = J_grid[group, None, None], np.full((len(group), 1), model.h)    # alpha = 1: B = J
    X, res = _newton_polish(model, starts, B, H)
    rows = _keep(X, res, group)
    X, B, group = X[rows], B[rows], group[rows]
    pressure, peaks = _equilibrium(_fbar_rows(model, X, B), _curvature(model, X, B)[0], group)
    mu = np.full_like(J_grid, -np.inf)
    np.maximum.at(mu, group[peaks], X[peaks, 0])
    dj, dp = np.diff(J_grid), np.diff(pressure)
    d2p = np.full_like(J_grid, np.nan)
    d2p[1:-1] = 2.0 * (dp[1:] / dj[1:] - dp[:-1] / dj[:-1]) / (dj[1:] + dj[:-1])
    return {"J": J_grid, "mu": mu, "pressure": pressure,
            "dp_dJ": 0.5 * mu ** 2, "d2p": d2p}
