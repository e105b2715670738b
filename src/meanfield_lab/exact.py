"""Exact finite-size computations on the magnetization lattice.

For +-1 spins the per-species sums take values on a known lattice and
the number of configurations per lattice point is a binomial, so the
partition function, the law of the magnetization vector, moments and an
i.i.d. sampler are all exact.  The weights are built in log space and
normalised with one log-sum-exp; moments are then reduced from the
probabilities through per-axis and pairwise marginals.  Every reduction
runs in a fixed order, so results do not depend on scheduling.  One cap holds
everywhere: a lattice of more than ``LATTICE_CAP`` = 10^8 points raises
LatticeTooLarge (CLI exit 3) before any allocation; only ``log_partition`` takes a ``cap``.

The binomial counts come from one vectorised ln k! kernel with no special
function library: the exact values ln k! for k <= 11, and above that the
Stirling branches of Cephes' lgam (Moshier, *Methods and Programs for
Mathematical Functions*, 1989) at x = k + 1, which scipy's gammaln also
uses: (x - 1/2) ln x - x + ln sqrt(2 pi), plus a five-term polynomial in
1/x^2 below x = 1000, a three-term series up to 1e8 and nothing beyond.
It equals scipy.special.gammaln(k + 1) bit for bit for k <= 9168; past
that numpy's log can differ from the C library's by one ulp.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigParse,
    DimensionMismatch,
    EmptyCondition,
    IoError,
    LatticeTooLarge,
    OffLattice,
    UnsupportedMeasure,
)
from .model import ValidatedModel, _integer, _require_validated

LN2 = math.log(2.0)
LATTICE_CAP = 10 ** 8
_SAMPLE_BLOCK = 1 << 16
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

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return int(self.sizes.sum())

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(int(N) + 1 for N in self.sizes)

    def sum_axis(self, l: int) -> np.ndarray:
        """Per-species sum values -N_l, -N_l + 2, ..., N_l."""
        N = int(self.sizes[l])
        return np.arange(-N, N + 1, 2, dtype=np.int64)

    def mag_axis(self, l: int) -> np.ndarray:
        return self.sum_axis(l) / float(self.sizes[l])

    def volume(self) -> int:
        return int(np.prod([s + 1 for s in self.sizes.astype(object)]))


@dataclass(frozen=True)
class MagnetizationLaw:
    """Log-probabilities of the magnetization vector on its lattice."""

    lattice: MagLattice
    log_weights: np.ndarray

    def points(self) -> np.ndarray:
        """All lattice coordinates, shape (volume, n), C order."""
        axes = [self.lattice.mag_axis(l) for l in range(self.lattice.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_weights)


@dataclass(frozen=True)
class ExactMoments:
    mean: np.ndarray
    second: np.ndarray
    sizes: np.ndarray


@dataclass(frozen=True)
class DiscreteLaw:
    """Generic finitely supported law: points (P, n) with probabilities."""

    points: np.ndarray
    probs: np.ndarray

    def mean(self) -> np.ndarray:
        return self.probs @ self.points

    def cov(self) -> np.ndarray:
        mu = self.mean()
        centered = self.points - mu
        return (self.probs[:, None] * centered).T @ centered

    def variance(self) -> float:
        if self.points.shape[1] != 1:
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

    def magnetizations(self) -> np.ndarray:
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
    k = N_l * (1.0 + m) / 2.0
    kr = np.rint(k)
    if np.any(np.abs(k - kr) > 1e-9) or np.any(kr < 0) or np.any(kr > N_l):
        raise OffLattice(f"m is not a reachable mean of {N_l} binary spins")
    args, where = np.unique(np.stack([np.full_like(kr, N_l), kr, N_l - kr]),
                            return_inverse=True)
    ln_n, ln_k, ln_rest = _log_factorial(args)[where.reshape(3, *kr.shape)]
    # grouping keeps the value bitwise symmetric under m -> -m
    out = ln_n - (ln_k + ln_rest)
    return float(out) if out.ndim == 0 else out


def _lattice_log_weights(J: np.ndarray, h: np.ndarray, lattice: MagLattice,
                         cap: int) -> np.ndarray:
    """Unnormalized log weights ln A + N g(m) - N ln 2 for any real (J, h)."""
    if lattice.volume() > cap:
        raise LatticeTooLarge(f"lattice volume {lattice.volume()} exceeds the cap {cap}")
    n, N = lattice.n, lattice.total
    S = [lattice.sum_axis(l).astype(float) for l in range(n)]
    W = np.full(lattice.shape, -N * LN2)
    for l in range(n):
        N_l = int(lattice.sizes[l])
        T = _log_factorial(np.arange(N_l + 1.0))
        counts = T[N_l] - (T + T[::-1])      # ln C(N_l, k), k = 0..N_l
        axis_term = counts + h[l] * S[l] + J[l, l] * S[l] ** 2 / (2.0 * N)
        W += axis_term.reshape([-1 if a == l else 1 for a in range(n)])
    for l in range(n):
        for s in range(l + 1, n):
            cross = (J[l, s] / N) * np.multiply.outer(S[l], S[s])
            W += cross.reshape([len(S[a]) if a in (l, s) else 1 for a in range(n)])
    return W


def _lse(W: np.ndarray, axis: int | None = None) -> float | np.ndarray:
    """ln sum exp(W), over all of W or along ``axis``; scipy's logsumexp, bit for bit.

    The m entries equal to the maximum stay out of the shifted sum:
    ln(1 + sum/m) + ln m + max.  One temporary the size of W.
    """
    a_max = W.max(axis=axis, keepdims=True)
    top = W == a_max
    m = np.count_nonzero(top, axis=axis, keepdims=True).astype(float)
    E = np.subtract(W, a_max)
    np.exp(E, out=E)
    E[top] = 0.0
    out = np.log1p(E.sum(axis=axis, keepdims=True) / m) + np.log(m) + a_max
    return float(out.item()) if axis is None else out.squeeze(axis)


def _prepare(model: ValidatedModel, sizes, what: str) -> MagLattice:
    model = _require_validated(model)
    if not model.is_binary:
        raise UnsupportedMeasure(f"{what} requires the symmetric +-1 measure")
    return MagLattice(sizes=model.check_sizes(sizes))


def log_partition(model: ValidatedModel, sizes, cap: int = LATTICE_CAP) -> float:
    """ln Z_N under the convention with the 2^-N single-spin weights, up to ``cap`` points."""
    lattice = _prepare(model, sizes, "log_partition")
    return _lse(_lattice_log_weights(model.J, model.h, lattice, cap))


def finite_pressure(model: ValidatedModel, sizes) -> float:
    """p_N = ln Z_N / N, with N the total of the sizes ``log_partition`` validates."""
    return log_partition(model, sizes) / float(np.sum(sizes))


def magnetization_law(model: ValidatedModel, sizes) -> MagnetizationLaw:
    """Normalized law of the magnetization vector on its lattice."""
    lattice = _prepare(model, sizes, "magnetization_law")
    W = _lattice_log_weights(model.J, model.h, lattice, LATTICE_CAP)
    W -= _lse(W)
    return MagnetizationLaw(lattice=lattice, log_weights=W)


def _marginal(P: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """P summed over every axis not in ``keep`` (P itself if none)."""
    other = tuple(a for a in range(P.ndim) if a not in keep)
    return P.sum(axis=other) if other else P


def exact_moments(model: ValidatedModel, sizes) -> ExactMoments:
    """First and second moments of the magnetization vector."""
    law = magnetization_law(model, sizes)
    lattice = law.lattice
    P = np.exp(law.log_weights, out=law.log_weights)   # the law is ours alone
    mags = [lattice.mag_axis(l) for l in range(lattice.n)]
    mean, second = np.empty(lattice.n), np.empty((lattice.n, lattice.n))
    for l, ml in enumerate(mags):
        marg = _marginal(P, (l,))
        mean[l] = ml @ marg
        second[l, l] = (ml * ml) @ marg
        for s in range(l + 1, lattice.n):
            second[l, s] = second[s, l] = ml @ _marginal(P, (l, s)) @ mags[s]
    return ExactMoments(mean=mean, second=second, sizes=lattice.sizes)


def exact_sample(model: ValidatedModel, sizes, M: int, seed: int) -> SampleSet:
    """M i.i.d. draws of the per-species sums by inverse CDF.

    RNG: numpy PCG64, one stream per block of 2^16 draws, each stream
    seeded from (seed, block index).  Same inputs give bit-identical
    output regardless of how blocks would be scheduled.  ``M`` and ``seed``
    must be integers >= 0 (ConfigParse otherwise).
    """
    _integer(M, "sample count M", 0)
    _integer(seed, "seed", 0)
    law = magnetization_law(model, sizes)
    cdf = np.exp(law.log_weights.ravel())
    np.cumsum(cdf, out=cdf)
    cdf[-1] = 1.0
    shape = law.lattice.shape
    sums_axes = [law.lattice.sum_axis(l) for l in range(law.lattice.n)]

    draws = np.empty((M, law.lattice.n), dtype=np.int64)
    for block, start in enumerate(range(0, M, _SAMPLE_BLOCK)):
        count = min(_SAMPLE_BLOCK, M - start)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([int(seed), block])))
        u = rng.random(count)
        flat_idx = np.searchsorted(cdf, u, side="right")
        multi = np.unravel_index(flat_idx, shape)
        for l in range(law.lattice.n):
            draws[start:start + count, l] = sums_axes[l][multi[l]]
    return SampleSet(sizes=law.lattice.sizes, seed=int(seed), sums=draws)


def normalized_sum_law(model: ValidatedModel, sizes, center, k: int,
                       condition_ball: float | None = None) -> DiscreteLaw:
    """Exact law of (S_l - N_l c_l) / N_l^(1 - 1/2k) per species.

    With ``condition_ball`` set, the magnetization law is first restricted
    to the Euclidean ball of that radius around ``center`` and
    renormalized.  ``k`` must be an integer >= 1 (ConfigParse otherwise);
    ``center`` needs one finite entry per species.
    """
    _integer(k, "type k", 1)
    law = magnetization_law(model, sizes)
    center = model.check_point(center, "center")
    coords = law.points()
    lw = law.log_weights.ravel()
    if condition_ball is not None:
        mask = np.linalg.norm(coords - center[None, :], axis=1) <= condition_ball
        if not np.any(mask):
            raise EmptyCondition("conditioning ball contains no lattice points")
        coords, lw = coords[mask], lw[mask]
        norm = _lse(lw)
        if not np.isfinite(norm):
            raise EmptyCondition("conditioning ball captures no probability mass")
        lw = lw - norm
    scale = law.lattice.sizes ** (1.0 / (2.0 * k))
    z = scale[None, :] * (coords - center[None, :])
    return DiscreteLaw(points=z, probs=np.exp(lw))


# --- file formats ---------------------------------------------------------


def write_samples_csv(samples: SampleSet, path: str):
    """Sample file: versioned header, geometry metadata, one row per draw."""
    head = (f"{SAMPLES_HEADER}\n# n={samples.n}\n"
            f"# N={json.dumps([int(v) for v in samples.sizes])}\n# seed={samples.seed}\n")
    row = ",".join(["%d"] * samples.n) + "\n"
    body = (row * samples.sample_count) % tuple(samples.sums.ravel().tolist())
    try:
        with open(path, "w") as fh:
            fh.write(head + body)
    except OSError as exc:
        raise IoError(f"cannot write sample file {path}: {exc}") from exc


def read_samples_csv(path: str) -> SampleSet:
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise IoError(f"cannot read sample file {path}: {exc}") from exc
    if lines[0] != SAMPLES_HEADER:
        raise ConfigParse(f"{path} is not a v1 sample file")
    meta, body_start = {}, 1
    while body_start < len(lines) and lines[body_start].startswith("# "):
        key, _, value = lines[body_start][2:].partition("=")
        meta[key] = value
        body_start += 1
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
    rows = [ln for ln in lines[body_start:] if ln.strip()]
    if not rows:
        return SampleSet(sizes=sizes, seed=seed, sums=np.empty((0, n), dtype=np.int64))
    try:
        # one parse of every cell; a ragged row or a non-integer cell fails
        sums = np.loadtxt(rows, delimiter=",", dtype=np.int64, comments=None,
                          ndmin=2)
    except ValueError as exc:
        raise ConfigParse(f"bad sample row in {path}: {exc}") from exc
    if sums.shape[1] != n:
        raise ConfigParse(f"rows in {path} do not have {n} columns")
    return SampleSet(sizes=sizes, seed=seed, sums=sums)
