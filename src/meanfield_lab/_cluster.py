"""Single-linkage clustering of converged Newton rows: one model's, or many keyed by group."""

import numpy as np


def _dedup_points(pts, res, radius) -> list[tuple[np.ndarray, float]]:
    """Each cluster's best point and its residual (``_dedup_rows``)."""
    return [(pts[i], float(res[i])) for i in _dedup_rows(pts, res, radius)]


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
