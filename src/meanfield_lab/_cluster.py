"""Rules on Newton's rows, one model's or many keyed by group (an integer >= 0 per row; the
phase scan's is the coupling's index): which are fixed points (``_keep``: converged, then
dedup), which tie for the top value (``_equilibrium``), and what is singular (``_eigs``)."""

import numpy as np

from ._ascent import _EPS
from .errors import NoConvergence

_TIE_TOL = 1e-9     # fixed points this close to the top functional value tie
_DEDUP_RADIUS = 1e-8    # converged rows this close (max norm) are one fixed point
_TARGET_RESIDUAL = 1e-12    # Newton's target; far below _DEDUP_RADIUS, which relies on it


def _keep(pts, res, group=None) -> np.ndarray:
    """Indices of the rows with residual <= _TARGET_RESIDUAL, deduplicated per group at
    _DEDUP_RADIUS (``_dedup_rows``; no group is one group).  NoConvergence if a group keeps none."""
    group = np.zeros(len(pts), dtype=int) if group is None else group
    keep = np.flatnonzero(res <= _TARGET_RESIDUAL)
    if np.any(np.bincount(group[keep], minlength=group.max(initial=-1) + 1) == 0):
        raise NoConvergence("no start converged to the target residual")
    return keep[_dedup_rows(pts[keep], res[keep], _DEDUP_RADIUS, group[keep])]


def _equilibrium(values, K, group=None):
    """Per group (no group is one group): the limit, max of ``values``, and a mask of the
    equilibrium rows, those within _TIE_TOL of it, less any whose curvature K (one per row)
    has a negative eigenvalue by ``_eigs`` unless that leaves the group none."""
    group = np.zeros(len(values), dtype=int) if group is None else group
    limit = np.full(group.max(initial=-1) + 1, -np.inf)
    np.maximum.at(limit, group, values)
    ties = values >= limit[group] - _TIE_TOL
    peaks = ties & (_eigs(K)[:, 0] >= 0)
    return limit, np.where(np.bincount(group, peaks)[group] > 0, peaks, ties)


def _eigs(K) -> np.ndarray:
    """Ascending eigenvalues of symmetric K = I - A, (..., n, n); 0 within 16 eps (1 + max|A|)."""
    lam = np.linalg.eigvalsh(K)
    a_max = np.max(np.abs(np.eye(K.shape[-1]) - K), axis=(-2, -1))[..., None]
    return np.where(np.abs(lam) <= 16.0 * _EPS * (1.0 + a_max), 0.0, lam)


def _dedup_rows(pts, res, radius, group=None) -> np.ndarray:
    """Single-linkage clustering; the index of each cluster's best row.

    Rows are sorted lexicographically (by ``group`` first, one integer >= 0
    per row, when given: rows link only within a group) and repeats
    collapsed.  Rows within max-norm ``radius`` are linked and a cluster is
    a chain of links (in one dimension, a run of sorted gaps <= radius), so
    points spread wider than the radius around a degenerate root merge.
    The best row has the smallest (residual, max|x|), the earliest on
    ties; the output keeps the sorted order, independent of the starts.
    """
    group = np.zeros(len(pts), dtype=int) if group is None else group
    order = np.lexsort((*pts.T[::-1], group))
    pts, res, group = pts[order], res[order], group[order]
    fresh = np.ones(len(pts), dtype=bool)
    fresh[1:] = np.any(pts[1:] != pts[:-1], axis=1) | (res[1:] != res[:-1]) | \
        (group[1:] != group[:-1])
    order, pts, res, group = order[fresh], pts[fresh], res[fresh], group[fresh]
    count = len(pts)
    if pts.shape[1] == 1:   # runs of sorted gaps <= radius; group * count keeps groups apart
        labels = group * count + np.cumsum(np.diff(pts[:, 0], prepend=-np.inf) > radius)
    else:
        # Grow each cluster breadth-first from its first row, comparing a
        # block of frontier rows at a time to bound the distance table.
        labels = np.full(count, -1)
        block = max(1, 2 ** 20 // (count * pts.shape[1]))
        while np.any(labels < 0):
            frontier = np.flatnonzero(labels < 0)[:1]
            labels[frontier] = frontier
            while len(frontier):
                free = np.flatnonzero((labels < 0) & (group == group[frontier[0]]))
                near = np.zeros(len(free), dtype=bool)
                for i in range(0, len(frontier), block):
                    gap = np.abs(pts[frontier[i:i + block], None] - pts[None, free])
                    near |= np.any(np.max(gap, axis=2) <= radius, axis=0)
                labels[free[near]] = labels[frontier[0]]
                frontier = free[near]

    best = np.lexsort((np.max(np.abs(pts), axis=1), res, labels))
    heads = np.ones(count, dtype=bool)
    heads[1:] = labels[best[1:]] != labels[best[:-1]]
    return order[np.sort(best[heads])]
