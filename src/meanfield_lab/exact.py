"""Exact finite-size computations on the magnetization lattice.

For +-1 spins the per-species sums take values on a known lattice and
the number of configurations per lattice point is a binomial, so the
partition function, the law of the magnetization vector, moments and an
i.i.d. sampler are all exact.  The weights are built in log space by one
block kernel (``_Weights``) and normalised by a streamed log-sum-exp over a
whole lattice (``_lse``) in C-order blocks of at most ``_BLOCK`` points (runs
of rows of axis 0, or pieces of one row cut along axis 1 where a row is
longer): pass 1 takes the maximum, pass 2 sums exp(W - max) over numpy's own pairwise tree
(``_pairwise``) with leaves of at most one block, so the sum has the bits
of the whole-lattice ``sum()`` (any other order would move them).  The
n >= 3 moments promise no bits and evaluate no block of W: ``_moments`` factors
the quadratic form on chunks of axis-0 rows and contracts the factors into the
pairwise marginals.  Overflowing weights (a block maximum of +inf or nan; at
n >= 3 an axis term, cross coefficient or chunk maximum) raise DomainError.
Every reduction runs in a fixed order, so results do not depend on scheduling.
Each pass allocates its own buffers and nothing is kept across calls.
``log_partition`` and ``finite_pressure`` hold a few blocks and two floats per axis
entry at most, the n >= 3 moments their pairwise marginals and the chunks' U factors;
``magnetization_law`` and the n <= 2 moments hold one lattice-sized array,
``exact_sample`` that array as its CDF plus a guide table of 2^12 cells
(a draw takes the probes that cover 15/16 of the cells, or numpy's binary
search in a wider cell) and one chunk of draws, and ``normalized_sum_law`` one float per point,
plus one byte with a conditioning ball (``DiscreteLaw``).  The sample fits
(``inverse.py``) walk a ``SampleSet`` in blocks of ``_CHUNK`` rows
(``SampleSet.row_blocks``): the row rule holds one block's copies, and only
``magnetizations`` returns one float per sum.  One cap holds
everywhere: a lattice of more than ``LATTICE_CAP`` = 10^8 points (``MagLattice``
refuses it when built), or a sample of more than that many sums, raises
LatticeTooLarge (CLI exit 3) before any allocation.  Point tables are ``model._table``'s
(numpy's open mesh).  ``log_count`` refuses a nan, inf or |m| > 2 mean before forming k.

The binomial counts come from one vectorised ln k! kernel with no special
function library: the exact values ln k! for k <= 11, and above that the
Stirling branches of Cephes' lgam (Moshier, *Methods and Programs for
Mathematical Functions*, 1989) at x = k + 1, which scipy's gammaln also
uses: (x - 1/2) ln x - x + ln sqrt(2 pi), plus a five-term polynomial in
1/x^2 below x = 1000, a three-term series up to 1e8 and nothing beyond.
It equals scipy.special.gammaln(k + 1) bit for bit for k <= 9168; past
that numpy's log can differ from the C library's by one ulp.

File formats: every CSV the package writes goes through one writer (``_write``), a
block of rows at a time.  CLI tables come from one row template (``_csv_rows``); a
sample file's rows and the axis columns of CLI ``limits`` format each distinct value of
a column once (``_cells``; per file, over its whole span, for a sample column whose span
is shorter than both ``_CHUNK`` and the file, else per block from ``np.unique``) and
gather the cells per row.  A sample file is read by numpy's C file reader after its
metadata, and parsed again line by line only if that reader refuses it.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigParse,
    DimensionMismatch,
    DomainError,
    EmptyCondition,
    InconsistentRows,
    IoError,
    LatticeTooLarge,
    OffLattice,
    UnsupportedMeasure,
)
from .model import ValidatedModel, _check_ball, _integer, _require_validated, _table

LN2 = math.log(2.0)
LATTICE_CAP = 10 ** 8
_BLOCK = 1 << 16          # lattice points per pass block
_CHUNK = 1 << 12          # sum-law points per chunk of per-point work; sampler draws per
                          # chunk; sample rows per block of a fit
_STREAM = 1 << 16         # draws per sampler stream; fixes the bytes of every sample file
_GUIDE = 1 << 12          # cells of the sampler's guide table; a power of 2
_EXP_ZERO = -760.0        # np.exp is exactly 0.0 below about -745.13
SAMPLES_HEADER = "# meanfield-lab samples v1"
_LN_FACTORIAL_SMALL = np.array([math.log(math.factorial(k)) for k in range(12)])
_LS2PI = 0.91893853320467274178         # ln sqrt(2 pi)
_STIRLING_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
               7.93650340457716943945e-4, -2.77777777730099687205e-3,
               8.33333333333331927722e-2)


@dataclass(frozen=True)
class MagLattice:
    """Product lattice of reachable per-species magnetizations."""

    sizes: np.ndarray

    def __post_init__(self):
        self.sizes.flags.writeable = False
        if (volume := self.volume()) > LATTICE_CAP:
            raise LatticeTooLarge(f"lattice volume {volume} exceeds the cap {LATTICE_CAP}")

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return int(self.sizes.sum())

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(int(N) + 1 for N in self.sizes)

    def sum_axis(self, l: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Per-species sum values -N_l, -N_l + 2, ..., N_l; entries lo..hi-1 if given."""
        N = int(self.sizes[l])
        hi = N + 1 if hi is None else hi
        return np.arange(2 * lo - N, 2 * hi - N, 2, dtype=np.int64)

    def mag_axis(self, l: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        return self.sum_axis(l, lo, hi) / float(self.sizes[l])

    def volume(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class MagnetizationLaw:
    """Log-probabilities of the magnetization vector on its lattice."""

    lattice: MagLattice
    log_weights: np.ndarray

    def points(self) -> np.ndarray:
        """All lattice coordinates, shape (volume, n), C order."""
        return _table([self.lattice.mag_axis(l) for l in range(self.lattice.n)])

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_weights)


@dataclass(frozen=True)
class ExactMoments:
    mean: np.ndarray
    second: np.ndarray
    sizes: np.ndarray


@dataclass(frozen=True)
class DiscreteLaw:
    """Exact law of the rescaled sums z_l = (m_l - c_l) N_l^(1/2k) on the lattice.

    It holds one float per lattice point, the probabilities ``P`` (0 off the
    conditioning ball), and with a ball its boolean ``mask``; ``axis(l)`` gives
    the coordinates of axis l.  ``points`` and ``probs`` list the supported
    points in C order, and ``blocks`` yields them a lattice block at a time.
    ``mean``, ``cov`` and ``variance`` reduce the per-axis and pairwise
    marginals of P, so no (points, n) table is formed.
    """

    lattice: MagLattice
    center: np.ndarray
    scale: np.ndarray           # N_l^(1/2k)
    P: np.ndarray
    mask: np.ndarray | None = None

    def axis(self, l: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Rescaled coordinates of axis l, entries lo..hi-1 if given."""
        return (self.lattice.mag_axis(l, lo, hi) - self.center[l]) * self.scale[l]

    def blocks(self, size: int = _CHUNK, columns=None):
        """(points, probs) of the supported points, blocks of at most ``size`` lattice points;
        with ``columns``, one array per axis as long as it, the points gather from those."""
        for key in _blocks(self.P.shape, size):
            table = _table([self.axis(l, s.start, s.stop) if columns is None else columns[l][s]
                            for l, s in enumerate(key)])
            probs = self.P[key].reshape(-1)
            if self.mask is not None:
                inside = self.mask[key].reshape(-1)
                table, probs = table[inside], probs[inside]
            yield table, probs

    @property
    def points(self) -> np.ndarray:
        return next(self.blocks(self.P.size))[0]

    @property
    def probs(self) -> np.ndarray:
        return self.P.reshape(-1) if self.mask is None else self.P[self.mask]

    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance from the marginals of P, every total a ``math.fsum``.

        The marginals off axis 0 add up chunks of rows of at most ``_CHUNK``
        points, Neumaier-compensated; the second moments are centred on the
        means (Chan, Golub & LeVeque, *Am. Stat.*, 1983).  A pairwise marginal
        is contracted with its second axis first, row by row, and axis 0 (the
        lattice itself at n = 1) is taken a chunk at a time.  The per-axis sums
        run over the window between a marginal's first and last nonzero entry.
        """
        n, P = self.lattice.n, self.P
        step = max(1, _CHUNK * P.shape[0] // P.size)
        rows = [(a, min(a + step, P.shape[0])) for a in range(0, P.shape[0], step)]
        marg = {(0,): _marginal(P, (0,))}
        for keep in [(l,) for l in range(1, n)] + [(l, s) for l in range(1, n)
                                                   for s in range(l + 1, n)]:
            marg[keep] = _compensated(_marginal(P[a:b], keep) for a, b in rows)
        parts = []
        for l in range(n):        # math.fsum is exact: zeros outside the window add nothing
            nonzero = np.flatnonzero(marg[l,])
            lo, hi = (nonzero[0], nonzero[-1] + 1) if nonzero.size else (0, 0)
            parts.append([(a, min(a + _CHUNK, hi)) for a in range(lo, hi, _CHUNK)])
        mean = np.array([_fsum(self.axis(l, a, b) * marg[l,][a:b] for a, b in parts[l])
                         for l in range(n)])

        def centred(l, a=0, b=None):
            return self.axis(l, a, b) - mean[l]

        cov = np.empty((n, n))
        for l in range(n):
            cov[l, l] = _fsum(marg[l,][a:b] * centred(l, a, b) ** 2 for a, b in parts[l])
            for s in range(l + 1, n):
                d_s = centred(s)
                if l == 0:
                    terms = (centred(0, a, b) * (_marginal(P[a:b], (0, s)) * d_s).sum(axis=1)
                             for a, b in rows)
                else:
                    terms = [centred(l) * (marg[l, s] * d_s).sum(axis=1)]
                cov[l, s] = cov[s, l] = _fsum(terms)
        return mean, cov

    def mean(self) -> np.ndarray:
        return self._moments()[0]

    def cov(self) -> np.ndarray:
        return self._moments()[1]

    def variance(self) -> float:
        if self.lattice.n != 1:
            raise DimensionMismatch("variance is for one-dimensional laws")
        return float(self.cov()[0, 0])


@dataclass(frozen=True)
class SampleSet:
    """I.i.d. draws of the per-species sums, plus the sampling geometry."""

    sizes: np.ndarray
    seed: int
    sums: np.ndarray        # (M, n) integers

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def sample_count(self) -> int:
        return self.sums.shape[0]

    def row_blocks(self) -> list[slice]:
        """The rows in blocks of ``_CHUNK``: every M-row pass of a fit walks these."""
        return [slice(a, a + _CHUNK) for a in range(0, self.sample_count, _CHUNK)]

    def check_rows(self) -> None:
        """The one row rule, which every fit runs before it reads a row: n columns, then
        |S_l| <= N_l on every row, then S_l = N_l (mod 2) on every row, else
        InconsistentRows.  Each pass walks ``row_blocks``, so it holds one block's copies."""
        if self.sums.ndim != 2 or self.sums.shape[1] != self.n:
            raise InconsistentRows("sample rows do not match the species count")
        bound = self.sizes.astype(np.uint64)    # |S| as uint64: np.abs(-2^63) is -2^63
        if any(np.any(np.abs(self.sums[rows]).view(np.uint64) > bound)
               for rows in self.row_blocks()):
            raise InconsistentRows("per-species sums exceed the block sizes")
        if any(np.any((self.sums[rows] + self.sizes) & 1) for rows in self.row_blocks()):
            raise InconsistentRows("per-species sums have impossible parity")

    def magnetizations(self) -> np.ndarray:
        """S_l / N_l per row, after ``check_rows``: the one (M, n) float array a fit holds."""
        self.check_rows()
        return self.sums / self.sizes[None, :].astype(float)


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """ln k! at ascending integer-valued floats k >= 0, elementwise.

    The ascending order lets every branch work on one contiguous slice:
    k <= 11 reads the exact table, 12 <= k < 999 adds the polynomial,
    999 <= k < 1e8 the series, and larger k takes the bare Stirling sum.
    """
    out = np.empty(k.shape)
    i_poly, i_series, i_bare = np.searchsorted(k, (12.0, 999.0, 1e8))
    out[:i_poly] = _LN_FACTORIAL_SMALL[k[:i_poly].astype(np.intp)]
    x = k[i_poly:] + 1.0
    out[i_poly:] = (x - 0.5) * np.log(x) - x + _LS2PI
    q, x = out[i_poly:i_bare], x[:i_bare - i_poly]
    p = 1.0 / (x * x)
    n = i_series - i_poly
    poly = np.full(n, _STIRLING_A[0])
    for c in _STIRLING_A[1:]:
        poly = poly * p[:n] + c
    q[:n] += poly / x[:n]
    p = p[n:]
    q[n:] += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x[n:]
    return out


def log_count(N_l: int, m) -> float | np.ndarray:
    """ln of the number of +-1 configurations of N_l spins with mean m."""
    m = np.asarray(m, dtype=float)
    k = N_l * (1.0 + m) / 2.0 if np.all(np.abs(m) <= 2.0) else np.nan    # nan: refused below
    kr = np.rint(k)
    if not np.all(np.abs(k - kr) <= 1e-9) or np.any(kr < 0) or np.any(kr > N_l):
        raise OffLattice(f"m is not a reachable mean of {N_l} binary spins")
    args, where = np.unique(np.stack([np.full_like(kr, N_l), kr, N_l - kr]),
                            return_inverse=True)
    ln_n, ln_k, ln_rest = _log_factorial(args)[where.reshape(3, *kr.shape)]
    # grouping keeps the value bitwise symmetric under m -> -m
    out = ln_n - (ln_k + ln_rest)
    return float(out) if out.ndim == 0 else out


def _blocks(shape: tuple[int, ...], size: int):
    """The lattice in C order as blocks of at most ``size`` points, one slice per axis.

    A block is a run of whole rows of axis 0, or, where one row holds more
    than ``size`` points, a run of that row along axis 1.  The first block
    is the largest.
    """
    row = math.prod(shape[1:])
    rest = tuple(slice(0, e) for e in shape[1:])
    if row <= size:
        step = min(size // row, shape[0])
        for a in range(0, shape[0], step):
            yield (slice(a, min(a + step, shape[0])),) + rest
    else:
        step = min(max(1, size // (row // shape[1])), shape[1])
        for a in range(shape[0]):
            for c in range(0, shape[1], step):
                yield (slice(a, a + 1), slice(c, min(c + step, shape[1]))) + rest[1:]


def _fsum(chunks) -> float:
    """math.fsum over the entries of the arrays ``chunks`` yields."""
    return math.fsum(itertools.chain.from_iterable(c.tolist() for c in chunks))


def _compensated(parts) -> np.ndarray:
    """The sum of the arrays ``parts`` yields, Neumaier-compensated (ZAMM 54, 1974)."""
    total = comp = 0.0
    for x in parts:
        t = total + x
        comp = comp + np.where(np.abs(total) >= np.abs(x), (total - t) + x, (x - t) + total)
        total = t
    return total + comp


def _axis_term(lattice: MagLattice, J: np.ndarray, h: np.ndarray, l: int, lo: int = 0,
               hi: int | None = None) -> np.ndarray:
    """ln C(N_l, k) + h_l S + J_ll S^2 / 2N on axis l of the weights, k = lo..hi-1 if given,
    and the sums S as floats.

    ln C(N_l, k) = T[N_l] - (T[k] + T[N_l - k]), T[k] = ln k!.  The term may overflow, so
    callers ignore numpy's warnings and check the result.
    """
    N_l = int(lattice.sizes[l])
    hi = N_l + 1 if hi is None else hi
    T = _log_factorial(np.arange(lo + 0.0, hi))
    T += _log_factorial(np.arange(N_l - hi + 1.0, N_l - lo + 1.0))[::-1]
    counts = np.subtract(_log_factorial(np.array([N_l + 0.0]))[0], T, out=T)
    S = lattice.sum_axis(l, lo, hi).astype(float)
    return counts + h[l] * S + J[l, l] * S ** 2 / (2.0 * lattice.total), S


class _Weights:
    """Unnormalized log weights ln A + N g(m) - N ln 2 for any real (J, h), by blocks.

    ``block(key)`` is W[key] for one of the C-order blocks ``keys()`` yields,
    evaluated with the operations of the full-array definition in its order:
    -N ln 2, the axis terms 0..n-1, then the cross terms (l, s), l < s, in
    lexicographic order; so every entry has the same bits in whichever block
    it is evaluated.  The factors are the axis terms and sums, each along its
    own axis, and the cross terms off axis 0 on their pair grids (at most one
    row each); every block folds -N ln 2 + axis_0 + ... + axis_(n-2) on its
    own rows, then adds the rest.  Blocks are runs of whole rows of at most
    ``_BLOCK`` points, which cut axis 0 of the whole lattice's factors, built
    once.  Where axis 0 or a row holds more than ``_BLOCK`` points, each block
    of ``_BLOCK // 4`` points (a row is cut along axis 1) builds its own
    factors from its index ranges instead, so that they and their ln k!
    temporaries stay within a few blocks.  Iterating yields the blocks flat.
    No ufunc over a block takes two broadcast operands: on rows of up to a few
    thousand points numpy runs those slower than a broadcast copy followed by
    an in-place ufunc with one broadcast operand.
    """

    def __init__(self, J: np.ndarray, h: np.ndarray, lattice: MagLattice):
        self.J, self.h, self.lattice = J, h, lattice
        shape = lattice.shape
        per_block = max(shape[0], lattice.volume() // shape[0]) > _BLOCK
        self._block_points = _BLOCK // 4 if per_block else _BLOCK
        self._factors = None if per_block else self._factors_on(tuple(slice(0, e) for e in shape))
        size = math.prod(s.stop - s.start for s in next(self.keys()))
        self._W, self._t = np.empty(size), np.empty(size)

    def keys(self):
        """The blocks, C order."""
        return _blocks(self.lattice.shape, self._block_points)

    def _factors_on(self, key: tuple[slice, ...]):
        """Axis terms and sums, each along its own axis, and cross grids off axis 0, on key."""
        n, N, J, h = self.lattice.n, self.lattice.total, self.J, self.h
        with np.errstate(over="ignore", invalid="ignore"):  # _block_max raises on inf or nan
            terms, S = (np.ix_(*v) for v in zip(*(_axis_term(self.lattice, J, h, l, k.start, k.stop)
                                                  for l, k in enumerate(key))))
            return terms, S, [J[l, s] / N * (S[l] * S[s]) for l in range(1, n)
                              for s in range(l + 1, n)]

    def block(self, key: tuple[slice, ...], out: np.ndarray | None = None) -> np.ndarray:
        """W[key], into ``out`` or else this pass's own block buffer; none outlives the call."""
        shape = tuple(s.stop - s.start for s in key)
        if out is None:
            out = self._W[:math.prod(shape)].reshape(shape)
        N = self.lattice.total
        # the held factors with axis 0 cut to the block's rows, or else the block's own
        rows = key[0] if self._factors else slice(None)
        terms, S, cross = self._factors or self._factors_on(key)
        terms, s0 = (terms[0][rows],) + terms[1:], S[0][rows]
        with np.errstate(over="ignore", invalid="ignore"):  # as in _factors_on
            np.copyto(out, sum(terms[:-1], -N * LN2))      # the prefix, on the block's rows
            out += terms[-1]
            for s in range(1, len(S)):
                t = self._t[:shape[0] * S[s].size].reshape((shape[0],) + S[s].shape[1:])
                np.copyto(t, s0)
                t *= S[s]
                t *= self.J[0, s] / N
                out += t
            for t in cross:
                out += t
        return out

    def __iter__(self):
        for key in self.keys():
            yield self.block(key).reshape(-1)


def _lattice_log_weights(J: np.ndarray, h: np.ndarray, lattice: MagLattice) -> np.ndarray:
    """The whole lattice of ``_Weights``, assembled block by block."""
    weights = _Weights(J, h, lattice)
    W = np.empty(lattice.shape)
    for key in weights.keys():
        weights.block(key, out=W[key])
    return W


class _Leaves:
    """exp(W - max) over the flat blocks, cut into consecutive leaves for ``_pairwise``.

    Each block is exponentiated into one buffer behind the values left from
    the block before, so a leaf is always one contiguous view.  The entries
    equal to the maximum are counted in ``tops`` and summed as 0; only blocks
    whose own maximum is the maximum are searched for them.  numpy's exp is
    0.0 below ``_EXP_ZERO`` and slow there: a block with such an entry among
    every 64th sets those to 0.0 without it (subnormal results keep exp).
    """

    def __init__(self, blocks, maxima: np.ndarray, volume: int, largest: int):
        self._blocks = zip(blocks, maxima)
        self.a_max, self.tops = maxima.max(), 0
        self._buf = np.empty(min(_BLOCK + largest, volume))
        self._start = self._end = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` <= _BLOCK values, valid until the next call."""
        while self._end - self._start < count:
            W, w_max = next(self._blocks)
            kept = self._end - self._start
            self._buf[:kept] = self._buf[self._start:self._end]
            E = self._buf[kept:kept + W.size]
            with np.errstate(invalid="ignore"):     # -inf - -inf: a top, set to 0 below
                np.subtract(W, self.a_max, out=E)
            if E[::64].min() < _EXP_ZERO:           # exp is 0.0 there, and slow
                np.exp(E, out=E, where=E >= _EXP_ZERO)
                np.maximum(E, 0.0, out=E)           # the entries left below the floor
            else:
                np.exp(E, out=E)
            if w_max == self.a_max:
                top = W == self.a_max
                self.tops += np.count_nonzero(top)
                E[top] = 0.0
            self._start, self._end = 0, kept + W.size
        self._start += count
        return self._buf[self._start - count:self._start]


def _pairwise(leaves: _Leaves, count: int):
    """Sum of the next ``count`` leaf values in numpy's pairwise order.

    numpy sums a contiguous array by splitting it at count/2 rounded down to
    a multiple of 8, down to blocks of 128; here the same tree is walked down
    to leaves of at most ``_BLOCK`` values, which numpy's own sum finishes.
    """
    if count <= _BLOCK:
        return leaves.take(count).sum()
    half = count // 2
    half -= half % 8
    return _pairwise(leaves, half) + _pairwise(leaves, count - half)


def _block_max(W: np.ndarray) -> float:
    """W.max(), which keeps a nan; +inf or nan raise DomainError, -inf (no mass) does not."""
    top = W.max()
    if not top < np.inf:
        raise DomainError(f"the lattice weights overflow (maximum {top})")
    return top


def _lse_blocks(blocks) -> float:
    """ln sum exp over the non-empty flat blocks each call ``blocks()`` yields (called twice).

    Bit for bit scipy's logsumexp of their concatenation: the m entries equal
    to the maximum stay out of the shifted sum, ln(1 + sum/m) + ln m + max.
    """
    maxima, volume, largest = [], 0, 0
    for W in blocks():
        maxima.append(_block_max(W))
        volume, largest = volume + W.size, max(largest, W.size)
    leaves = _Leaves(blocks(), np.array(maxima), volume, largest)
    total = _pairwise(leaves, volume)
    m = np.float64(leaves.tops)
    return float(np.log1p(total / m) + np.log(m) + leaves.a_max)


def _lse(W: np.ndarray) -> float:
    """ln sum exp over all of W, ``_lse_blocks`` on C-order blocks of W; scipy's logsumexp,
    bit for bit."""
    flat = W.reshape(-1)
    return _lse_blocks(lambda: (flat[i:i + _BLOCK] for i in range(0, flat.size, _BLOCK)))


def _prepare(model: ValidatedModel, sizes, what: str) -> MagLattice:
    model = _require_validated(model)
    if not model.is_binary:
        raise UnsupportedMeasure(f"{what} requires the symmetric +-1 measure")
    return MagLattice(sizes=model.check_sizes(sizes))


def _log_z(J: np.ndarray, h: np.ndarray, lattice: MagLattice) -> float:
    """ln Z with the 2^-N single-spin weights for any real (J, h), streamed."""
    return _lse_blocks(_Weights(J, h, lattice).__iter__)


def log_partition(model: ValidatedModel, sizes) -> float:
    """ln Z_N under the convention with the 2^-N single-spin weights, up to LATTICE_CAP points."""
    lattice = _prepare(model, sizes, "log_partition")
    return _log_z(model.J, model.h, lattice)


def finite_pressure(model: ValidatedModel, sizes) -> float:
    """p_N = ln Z_N / N, with N the total of the sizes."""
    sizes = _prepare(model, sizes, "finite_pressure").sizes
    return log_partition(model, sizes) / float(np.sum(sizes))


def magnetization_law(model: ValidatedModel, sizes) -> MagnetizationLaw:
    """Normalized law of the magnetization vector on its lattice."""
    lattice = _prepare(model, sizes, "magnetization_law")
    W = _lattice_log_weights(model.J, model.h, lattice)
    W -= _lse(W)
    return MagnetizationLaw(lattice=lattice, log_weights=W)


def _marginal(P: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """P summed over every axis not in ``keep``; axes of length 1 are reshaped away, not summed."""
    other = tuple(a for a in range(P.ndim) if a not in keep and P.shape[a] > 1)
    return (P.sum(axis=other, keepdims=True) if other else P).reshape([P.shape[a] for a in keep])


def exact_moments(model: ValidatedModel, sizes) -> ExactMoments:
    """First and second moments of the magnetization vector.

    They are reduced from P = exp(W - ln Z) through its per-axis and pairwise
    marginals.  At n <= 2 the (0, n - 1) marginal is the lattice itself, so P
    is held there: the magnetization law, exponentiated in place.  At n >= 3
    the marginals are smaller than the lattice, and ``_moments.pair_marginals``
    forms those of exp(W - top), top a running maximum, from the axis terms
    and the couplings alone, without a block of W; the moments are then
    divided by axis 0's total.  The per-axis marginals are the (0, 1) one
    summed over axis 1 and the (0, l) ones summed over axis 0.
    """
    lattice = _prepare(model, sizes, "exact_moments")
    n = lattice.n
    if n <= 2:
        P = magnetization_law(model, sizes).log_weights      # the law is ours alone
        np.exp(P, out=P)
        marg, total = {keep: _marginal(P, keep) for keep in [(0,), (0, 1)][:n]}, 1.0
    else:
        from ._moments import pair_marginals

        marg = pair_marginals(model.J, model.h, lattice)
        marg[0,] = marg[0, 1].sum(axis=1)
        total = marg[0,].sum()
    for l in range(1, n):
        marg[l,] = marg[0, l].sum(axis=0)
    mags = [lattice.mag_axis(l) for l in range(n)]
    mean, second = np.empty(n), np.empty((n, n))
    for l, ml in enumerate(mags):
        mean[l] = ml @ marg[l,]
        second[l, l] = (ml * ml) @ marg[l,]
        for s in range(l + 1, n):
            second[l, s] = second[s, l] = ml @ marg[l, s] @ mags[s]
    return ExactMoments(mean=mean / total, second=second / total, sizes=lattice.sizes)


def exact_sample(model: ValidatedModel, sizes, M: int, seed: int) -> SampleSet:
    """M i.i.d. draws of the per-species sums by inverse CDF.

    Guide-table inversion (Chen & Asau, *AIIE Trans.* 6, 1974; Devroye,
    *Non-Uniform Random Variate Generation*, 1986, ch. III) gives exactly
    ``searchsorted(cdf, u, "right")``: u falls in cell floor(u K) of K =
    ``_GUIDE`` equal cells (exact, K being a power of 2), and a binary search
    between the first points past the cell's two ends finds it: every draw
    takes the probes that cover 15/16 of the (equiprobable) cells, and a draw
    in a wider cell takes numpy's binary search of the whole CDF, that
    ``searchsorted`` itself.  Besides the CDF it holds the table and one chunk
    of ``_CHUNK`` draws.

    RNG: numpy PCG64, one stream per ``_STREAM`` = 2^16 draws, each
    seeded from (seed, stream index) and read a chunk at a time.  Same
    inputs give bit-identical output regardless of how streams would be
    scheduled.  ``M`` and ``seed`` must be integers >= 0 (ConfigParse
    otherwise), and M n sums at most ``LATTICE_CAP`` (LatticeTooLarge before any
    lattice work).
    """
    _integer(M, "sample count M", 0)
    _integer(seed, "seed", 0)
    n = _prepare(model, sizes, "exact_sample").n
    if int(M) * n > LATTICE_CAP:
        raise LatticeTooLarge(f"a sample of {M} x {n} sums exceeds the cap {LATTICE_CAP}")
    law = magnetization_law(model, sizes)
    cdf = law.log_weights.reshape(-1)       # the law is ours alone
    np.exp(cdf, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf[-1] = 1.0
    guide = np.searchsorted(cdf, np.arange(_GUIDE) / _GUIDE, side="right")
    # a draw from cell c lies in guide[c] .. guide[c + 1]; steps[c] is the width's bit length
    steps = np.frexp(np.diff(guide, append=cdf.size - 1))[1]
    # the fewest probes that cover 15/16 of the cells, read off their histogram
    depth = np.searchsorted(np.cumsum(np.bincount(steps)), _GUIDE - _GUIDE // 16)
    wide = steps > depth
    shape = law.lattice.shape
    sums_axes = [law.lattice.sum_axis(l) for l in range(law.lattice.n)]

    draws = np.empty((M, law.lattice.n), dtype=np.int64)
    for a in range(0, M, _CHUNK):
        if a % _STREAM == 0:
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([int(seed), a // _STREAM])))
        u = rng.random(min(_CHUNK, M - a))
        cell = (u * _GUIDE).astype(np.intp)
        flat_idx = guide[cell]
        for step in 2 ** np.arange(depth)[::-1]:
            # the draw is past a probe <= u; past the lattice, cdf[-1] = 1.0 > u
            flat_idx += step * (np.take(cdf, flat_idx + (step - 1), mode="clip") <= u)
        rest = np.flatnonzero(wide[cell])
        flat_idx[rest] = np.searchsorted(cdf, u[rest], side="right")
        multi = np.unravel_index(flat_idx, shape)
        for l in range(law.lattice.n):
            draws[a:a + u.size, l] = sums_axes[l][multi[l]]
    return SampleSet(sizes=law.lattice.sizes, seed=int(seed), sums=draws)


def normalized_sum_law(model: ValidatedModel, sizes, center, k: int,
                       condition_ball: float | None = None) -> DiscreteLaw:
    """Exact law of (S_l - N_l c_l) / N_l^(1 - 1/2k) per species.

    With ``condition_ball`` set, the magnetization law is first restricted
    to the Euclidean ball of that radius around ``center`` and
    renormalized.  Every rule runs before any lattice work: ``k`` an integer >= 1 and a
    ball's center and radius (ConfigParse), then the model, measure and sizes, and one finite
    center entry per species (DimensionMismatch, DomainError).  The law
    keeps the magnetization law's lattice-sized buffer, exponentiated in place, and
    with a ball a boolean mask; the mask, the ball's normaliser and its
    probabilities are formed ``_CHUNK`` points at a time, with the bits of
    the same formulas on whole-lattice tables.
    """
    _integer(k, "type k", 1)
    if condition_ball is not None:
        _check_ball(center, condition_ball, model.n, "conditioning ball")
    _prepare(model, sizes, "normalized_sum_law")
    center = model.check_point(center, "center")
    law = magnetization_law(model, sizes)
    lattice, P, mask = law.lattice, law.log_weights, None     # the law is ours alone
    if condition_ball is None:
        np.exp(P, out=P)
    else:
        keys = list(_blocks(lattice.shape, _CHUNK))
        mask = np.empty(lattice.shape, dtype=bool)
        for key in keys:
            z = _table([lattice.mag_axis(l, s.start, s.stop) for l, s in enumerate(key)])
            inside = np.linalg.norm(z - center[None, :], axis=1) <= condition_ball
            mask[key] = inside.reshape(mask[key].shape)
        if not np.any(mask):
            raise EmptyCondition("conditioning ball contains no lattice points")
        norm = _lse_blocks(lambda: (w for w in (P[key][mask[key]] for key in keys) if w.size))
        if not np.isfinite(norm):
            raise EmptyCondition("conditioning ball captures no probability mass")
        for key in keys:
            W, inside = P[key], mask[key]
            w = W[inside]
            w -= norm
            W[...] = 0.0
            W[inside] = np.exp(w, out=w)
    return DiscreteLaw(lattice=lattice, center=center,
                       scale=lattice.sizes ** (1.0 / (2.0 * k)), P=P, mask=mask)


# --- file formats ---------------------------------------------------------


def _csv_rows(*blocks) -> str:
    """CSV rows of 1-d (one column) or 2-d blocks side by side, from one template.

    Integer blocks print as integers (an integer-only table is never cast to
    float), floats with 17 significant digits, every non-finite cell as nan,
    and object blocks (cells formatted by ``_cells``) as they are.
    """
    blocks = [np.asarray(b) for b in blocks]
    row = ",".join({"i": "%d", "u": "%d", "O": "%s"}.get(b.dtype.kind, "%.17g")
                   for b in blocks for _ in range(b.shape[1] if b.ndim == 2 else 1))
    table = np.column_stack([np.where(np.isfinite(b), b, np.nan) if b.dtype.kind == "f" else b
                             for b in blocks])
    return "".join([row + "\n"] * len(table)) % tuple(table.ravel().tolist())


def _cells(v: np.ndarray, end: str = "") -> np.ndarray:
    """Each entry of v as ``_csv_rows`` prints it, then ``end``: an object array of strings."""
    if v.dtype.kind == "f":
        v, fmt = np.where(np.isfinite(v), v, np.nan), "%.17g" + end
    else:
        fmt = "%d" + end
    return np.array([fmt % c for c in v.tolist()], dtype=object)


def _write(path: str | None, chunks):
    """Write the strings ``chunks`` yields to ``path`` (stdout if None); OSError is IoError.

    Every file the package writes is opened here.
    """
    try:
        with open(path, "w") if path is not None else contextlib.nullcontext(sys.stdout) as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise IoError(f"cannot write {path or 'stdout'}: {exc}") from exc


def _sum_rows(sums: np.ndarray):
    """CSV rows of integer sums, one string per ``_CHUNK`` rows: each column's distinct
    values formatted as finished cells (``_cells``), then gathered per row.  A column
    whose span is shorter than both ``_CHUNK`` and the file formats every value of it
    once, before the first block; a wider column formats each block's distinct values,
    from ``np.unique`` (one sort)."""
    ends = [","] * (sums.shape[1] - 1) + ["\n"]
    narrow = {}             # column: its smallest value, the cells of its whole span
    for l in range(sums.shape[1] if len(sums) else 0):
        lo, hi = int(sums[:, l].min()), int(sums[:, l].max())
        if hi - lo < min(_CHUNK, len(sums)):
            narrow[l] = lo, _cells(np.arange(hi - lo + 1) + lo, ends[l])
    for a in range(0, len(sums), _CHUNK):
        block = sums[a:a + _CHUNK]
        table = np.empty(block.shape, dtype=object)
        for l, end in enumerate(ends):
            if l in narrow:
                lo, cells = narrow[l]
                at = block[:, l] - lo
            else:
                values, at = np.unique(block[:, l], return_inverse=True)
                cells = _cells(values, end)
            table[:, l] = cells[at]
        yield "".join(table.ravel().tolist())


def write_samples_csv(samples: SampleSet, path: str):
    """Sample file: versioned header, geometry metadata, then one row per draw, ``%d``
    cells joined by commas; written ``_CHUNK`` rows at a time by ``_sum_rows``, which
    formats a narrow column's whole span once per file and a wider one's values per block."""
    head = (f"{SAMPLES_HEADER}\n# n={samples.n}\n"
            f"# N={json.dumps([int(v) for v in samples.sizes])}\n# seed={samples.seed}\n")
    _write(path, itertools.chain([head], _sum_rows(samples.sums)))


def read_samples_csv(path: str) -> SampleSet:
    """A sample file: header and metadata, then the rows in one parse by numpy's C reader.

    Only a file that reader refuses (a whitespace-only line, a bad row, a name such as
    ``*.gz`` that it would decompress) is parsed again, line by line from the open file
    without whitespace-only lines: the same sums where both succeed, ConfigParse on a bad row.
    A byte that does not decode raises ConfigParse wherever it sits.
    """
    try:
        fh = open(path)
    except OSError as exc:
        raise IoError(f"cannot read sample file {path}: {exc}") from exc
    with fh:
        try:
            if fh.readline().removesuffix("\n") != SAMPLES_HEADER:
                raise ConfigParse(f"{path} is not a v1 sample file")
            meta, skip, line = {}, 1, fh.readline()
            while line.startswith("# "):
                key, _, value = line[2:].removesuffix("\n").partition("=")
                meta[key] = value
                skip, line = skip + 1, fh.readline()
        except UnicodeDecodeError as exc:
            raise ConfigParse(f"bad sample file {path}: {exc}") from exc
        try:
            n = int(meta["n"])
            sizes = json.loads(meta["N"])
            seed = int(meta["seed"])
        except (KeyError, ValueError) as exc:
            raise ConfigParse(f"bad sample metadata in {path}: {exc}") from exc
        if not (isinstance(sizes, list) and len(sizes) == n >= 1
                and all(type(v) is int and 1 <= v < 2 ** 63 for v in sizes)):
            raise ConfigParse(f"N in {path} must list {n} integers >= 1")
        sizes = np.array(sizes, dtype=np.int64)
        options = dict(delimiter=",", dtype=np.int64, comments=None, ndmin=2)
        with warnings.catch_warnings():         # loadtxt warns on a body without rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:        # an absolute path, which numpy never takes for a URL
                sums = np.loadtxt(os.path.abspath(path), skiprows=skip, **options)
            except Exception:   # ValueError on a row; OSError, EOFError or LZMAError on a name
                try:
                    sums = np.loadtxt(filter(str.strip, itertools.chain([line], fh)),
                                      **options)
                except ValueError as exc:
                    raise ConfigParse(f"bad sample row in {path}: {exc}") from exc
    if sums.size == 0:
        sums = np.empty((0, n), dtype=np.int64)
    if sums.shape[1] != n:
        raise ConfigParse(f"rows in {path} do not have {n} columns")
    return SampleSet(sizes=sizes, seed=seed, sums=sums)
