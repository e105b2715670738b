"""Pairwise marginals of the n >= 3 lattice law by tilted contractions.

W = sum_l a_l(S_l) + sum_{l<s} K_ls S_l S_s is a quadratic form in the species
sums.  On a chunk of axis-0 rows around a reference sum, with delta the sum
S_0 less it and r the flattened axes >= 2, it factors exactly as

    exp(W - top) = U[i, j] X[i, r] Y[j, r],
    U = exp(a_0 - its max + delta K_01 S_1),   X = exp(delta sum_{s>=2} K_0s S_s),

and Y the exponential of the rest, less top and plus that max.  Each pairwise
marginal is one contraction: (0, 1) is U (X Y^T), (0, r) is X (U Y) and (1, r)
is Y (U^T X), and r is reduced into the (0, s), (1, s) and (s, t) ones.  A chunk
of h rows tilts the exponent by at most (h - 1) sum_{s>=1} |K_0s| N_s, which the
height keeps within ``_TILT``, so U and X lie within e^+-32; strong couplings
take one row per chunk.  The contractions are ``np.einsum`` loops (BLAS would
add its buffers to the peak memory) on blocks of the columns r, and a
temporary holds about ``_FLOATS`` floats at most.  ``top`` is a running
maximum over the (chunk, block) pairs: when it rises the sums so far are
rescaled.  exp is taken only above ``_FLOOR`` = -300 (``_exp``), and an entry
of U or Y below it is 0.0: such an entry of the law lies below e^-236 of its
largest one, and no product of kept factors is subnormal (numpy's exp and
einsum run tens of times slower on those and on underflow).  On each column
block the chunks run in descending order of a bound on their maximum, so
the block's top comes first, and a chunk without mass or
whose bound lies below top + ``_FLOOR`` is skipped: under strong couplings,
where a chunk is one row, that is most of the lattice.
"""

from __future__ import annotations

import math

import numpy as np

from .exact import MagLattice, _axis_term, _block_max, _blocks, _marginal

_TILT = 32.0            # bound on a chunk's exponent tilt
_FLOATS = 1 << 14       # floats per temporary of a contraction (128 KB)
_FLOOR = -300.0         # exponents below it give 0.0


def _exp(E: np.ndarray) -> np.ndarray:
    """exp(E) in place, 0.0 where E < ``_FLOOR``."""
    if E.min() < _FLOOR:
        np.exp(E, out=E, where=E >= _FLOOR)
        return np.maximum(E, 0.0, out=E)        # the entries left below the floor
    return np.exp(E, out=E)


def _height(K: np.ndarray, shape: tuple[int, ...]) -> int:
    """Rows per chunk: at most ``_FLOATS`` // shape[1], and a tilt within ``_TILT``."""
    span = float(np.abs(K[0, 1:]) @ (np.array(shape[1:]) - 1.0))    # sum_s |K_0s| N_s
    return min(shape[0], max(1, _FLOATS // shape[1]),
               1 + int(min(_TILT / span, shape[0])) if span > 0 else shape[0])


def _columns(terms, K: np.ndarray, S, key: tuple[slice, ...]) -> list[np.ndarray]:
    """W's parts on one block of axes >= 2, flat: the one free of S_0 and S_1, then the
    coefficients of S_0 and of S_1."""
    grids = np.ix_(*(S[i + 2][k] for i, k in enumerate(key)))
    tails = np.ix_(*(terms[i + 2][k] for i, k in enumerate(key)))
    free = c0 = c1 = 0.0
    for i, tail in enumerate(tails):
        free = free + tail
        for j in range(i + 1, len(key)):
            free = free + K[i + 2, j + 2] * (grids[i] * grids[j])
        c0, c1 = c0 + K[0, i + 2] * grids[i], c1 + K[1, i + 2] * grids[i]
    return [v.reshape(-1) for v in (free, c0, c1)]     # each sums a term of every axis


@np.errstate(over="ignore", invalid="ignore")       # _block_max raises on inf or nan
def pair_marginals(J: np.ndarray, h: np.ndarray, lattice: MagLattice) -> dict:
    """The pairwise marginals (l, s), l < s, of exp(W - top) on a lattice of n >= 3 axes.

    A +inf or nan axis term, cross coefficient (a column's S_0 or S_1 coefficient)
    or pair maximum raises DomainError.
    """
    n, shape, K = lattice.n, lattice.shape, J / lattice.total
    terms, S = zip(*(_axis_term(lattice, J, h, l) for l in range(n)))
    for t in terms:
        _block_max(t)
    height = _height(K, shape)
    marg = {(l, s): np.zeros((shape[l], shape[s])) for l in range(n) for s in range(l + 1, n)}
    chunks = []             # rows, a_0's max, delta, U as (j, i), Y's S_1 part, the reference
    for a in range(0, shape[0], height):
        rows = slice(a, min(a + height, shape[0]))
        top0 = terms[0][rows].max()
        if top0 == -np.inf:                 # no mass
            continue
        ref = (S[0][rows.start] + S[0][rows.stop - 1]) / 2.0
        delta = S[0][rows] - ref
        U = np.multiply.outer(K[0, 1] * S[1], delta)       # einsum runs faster on (j, i)
        U += terms[0][rows] - top0
        chunks.append((rows, top0, delta, _exp(U), terms[1] + ref * K[0, 1] * S[1], ref))
    top = -np.inf
    for key in _blocks(shape[2:], max(1, _FLOATS // max(height, shape[1]))):
        free, c0, c1 = _columns(terms, K, S, key)
        c0_max, c1_max = (_block_max(np.abs(c)) for c in (c0, c1))
        block = tuple(k.stop - k.start for k in key)
        # each chunk's top0 + max Y at most, each of Y's parts bounded apart
        rest = free.max() + S[1][-1] * c1_max
        bounds = [top0 + u1.max() + rest + abs(ref) * c0_max for _, top0, _, _, u1, ref in chunks]
        # Python's sort: np.argsort here raised finite-size peak_rss_mb by ~0.2 MB (layout)
        for q in sorted(range(len(chunks)), key=bounds.__getitem__, reverse=True):
            if bounds[q] < top + _FLOOR:    # every entry of Y below would be 0.0
                continue
            rows, top0, delta, U, u1, ref = chunks[q]
            Y = np.multiply.outer(S[1], c1)
            Y += u1[:, None]
            Y += free + ref * c0
            sigma = _block_max(top0 + Y.max())
            if sigma == -np.inf:            # no mass, and Y - -inf would be nan
                continue
            if sigma > top:                 # rescale the sums so far to the new top
                for m in marg.values():
                    m *= math.exp(top - sigma)
                top = sigma
            Y -= top - top0
            _exp(Y)
            X = np.exp(np.multiply.outer(delta, c0))
            marg[0, 1][rows] += np.einsum("ic,jc->ji", X, Y).T   # times U below
            t0 = np.einsum("ji,jc->ic", U, Y)
            t0 *= X
            t1 = np.einsum("ji,ic->jc", U, X)
            t1 *= Y
            t0, t1 = t0.reshape((-1,) + block), t1.reshape((-1,) + block)
            for i, k in enumerate(key):
                marg[0, i + 2][rows, k] += _marginal(t0, (0, i + 1))
                marg[1, i + 2][:, k] += _marginal(t1, (0, i + 1))
                for j in range(i + 1, len(key)):
                    marg[i + 2, j + 2][k, key[j]] += _marginal(t0, (i + 1, j + 1))
    for rows, _, _, U, _, _ in chunks:
        marg[0, 1][rows] *= U.T
    return marg
