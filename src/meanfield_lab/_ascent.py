"""The direct route's batched modified-Newton ascent, which sees only the callables it is
given, and the steady-ratio test that it shares with the fixed-point Newton."""

import numpy as np

from .errors import DomainError

# Two successive step ratios this close mark a row as converging linearly.
_SHRINK_TOL = 0.02
_EPS = np.finfo(float).eps
# Gradient and stall tolerances, the curvature floor of the modified Hessian,
# the Armijo constant, the iteration caps and the side of a merge cell.
_GTOL = 1e-13
_FTOL = 1e-16
_CURVATURE_FLOOR = 1e-12
_ARMIJO = 1e-4
_STEPS = 200
_HALVINGS = 60
_CELL = 1e-2


def _steady(ratio, shrink):
    """Rows whose step ratio holds steady in (0.5, 0.95): Newton is linear at a multiple root."""
    return (ratio > 0.5) & (ratio < 0.95) & (np.abs(ratio - shrink) <= _SHRINK_TOL)


def _highest_per_cell(X, F, peak):
    """Mask that drops every ``peak`` row but the highest (F) in its cell of side _CELL."""
    keep = np.ones(len(X), dtype=bool)
    rows = np.flatnonzero(peak)
    cell = np.floor(X[rows] / _CELL)
    order = np.lexsort((-F[rows], *cell.T))
    keep[rows[order[1:][np.all(cell[order[1:]] == cell[order[:-1]], axis=1)]]] = False
    return keep


def _ascend(value, grad, hess, X) -> float:
    """Highest value reached by a modified-Newton ascent from every row of X.

    Each step takes the Hessian's eigenvalues as -max(|lambda|, floor), so
    every direction is an ascent direction (Nocedal & Wright, Numerical
    Optimization, ch. 3 and sec. 3.4; at n = 1 ``eigh`` returns lambda = H
    and V = 1 exactly).  Of the rows whose last Hessians were negative
    definite and that now share a cell of side _CELL, only the highest
    climbs on.  A row whose step ratio holds steady at rho is crawling to a
    degenerate maximum, a root of the gradient of multiplicity
    m = 1/(1 - rho), and takes m steps at once.  The step is halved until
    the Armijo condition holds; a non-finite trial ends that row's search.
    A row retires once its gradient vanishes, once its predicted gain
    G.step is at the rounding of f, or once an accepted step no longer
    raises f measurably.
    """
    F = value(X)
    live = np.arange(len(X))
    size = np.full(len(X), np.inf)      # each row's last Newton step, max norm
    shrink = np.full(len(X), np.nan)
    peak = np.zeros(len(X), dtype=bool)     # each row's last Hessian was negative definite
    for _ in range(_STEPS):
        live = live[_highest_per_cell(X[live], F[live], peak[live])]
        G = grad(X[live])
        steep = np.max(np.abs(G), axis=1) > _GTOL
        live, G = live[steep], G[steep]
        if not len(live):
            break
        H = hess(X[live])
        try:
            lam, V = np.linalg.eigh(H)
        except np.linalg.LinAlgError as exc:    # overflowing Hessian entries
            raise DomainError(f"direct ascent on f failed: {exc}") from exc
        coef = np.einsum("pji,pj->pi", V, G) / np.maximum(np.abs(lam), _CURVATURE_FLOOR)
        step = np.einsum("pij,pj->pi", V, coef)
        peak[live] = np.all(lam < 0, axis=1)
        slope = np.einsum("pi,pi->p", G, step)
        keep = slope > 4.0 * _EPS * (1.0 + np.abs(F[live]))
        live, step, slope = live[keep], step[keep], slope[keep]
        new = np.max(np.abs(step), axis=1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = new / size[live]
            m = np.where(_steady(ratio, shrink[live]), np.rint(1.0 / (1.0 - ratio)), 1.0)
        size[live], shrink[live] = new, ratio
        step, slope = m[:, None] * step, m * slope
        x0, f0 = X[live], F[live]
        t = 1.0
        todo = np.arange(len(live))
        for _ in range(_HALVINGS):
            if not len(todo):
                break
            trial = x0[todo] + t * step[todo]
            ft = value(trial)
            finite = np.isfinite(ft)
            ok = finite & (ft >= f0[todo] + _ARMIJO * t * slope[todo])
            rows = live[todo[ok]]
            X[rows], F[rows] = trial[ok], ft[ok]
            todo = todo[finite & ~ok]
            t *= 0.5
        gain = F[live] - f0
        live = live[gain > _FTOL * (1.0 + np.abs(F[live]))]
    return float(F.max())
