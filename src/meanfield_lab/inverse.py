"""Parameter recovery from equilibrium data.

The likelihood of i.i.d. configurations is maximized where the model's
moments match the sample moments.  Estimation matches them through the
N -> infinity relations: the couplings come from inverting the response
relation between the covariance and the susceptibility, the fields from
inverting the self-consistency equations at the sample mean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCondition,
    EmptySample,
    LatticeTooLarge,
    MagnetizationSaturated,
    SingularChi,
    ZeroVariance,
)
from .exact import LN2, MagLattice, SampleSet, _log_z
from .exact import log_partition  # noqa: F401 - re-exported; perfbench traces it here
from .model import _check_ball, _check_fractions
from .model import validate_model  # noqa: F401 - re-exported likewise

_SATURATION = 1.0 - 1e-12


@dataclass(frozen=True)
class EmpiricalMoments:
    """Sample means and second moments of the species magnetizations."""

    mean: np.ndarray
    second: np.ndarray
    sizes: np.ndarray
    sample_count: int


@dataclass(frozen=True)
class InverseEstimate:
    J_hat: np.ndarray
    h_hat: np.ndarray
    chi_hat: np.ndarray
    diagnostics: dict
    log_likelihood: float | None = None


def estimate_moments(samples: SampleSet) -> EmpiricalMoments:
    """Plain (uncorrected) sample moments; EmptySample below two rows, then the row rule.

    Holds the (M, n) magnetizations, one float per sum: ``m.T @ m`` is one BLAS call,
    whose bits depend on having the whole array.  The mean has ``m.mean(axis=0)``'s bits:
    numpy adds the rows of a C-order array of n >= 2 columns in row order, as one
    ``einsum`` does with no temporary; one column, which numpy sums pairwise, and any
    other layout take ``m.mean``.
    """
    if samples.sample_count < 2:
        raise EmptySample("need at least two sample rows")
    m = samples.magnetizations()
    if samples.n > 1 and m.flags.c_contiguous:
        mean = np.einsum("ij->j", m) / samples.sample_count
    else:
        mean = m.mean(axis=0)
    second = m.T @ m / samples.sample_count
    second = 0.5 * (second + second.T)
    return EmpiricalMoments(mean=mean, second=second,
                            sizes=samples.sizes.copy(),
                            sample_count=samples.sample_count)


def empirical_susceptibility(moments: EmpiricalMoments) -> np.ndarray:
    """chi_ls = N_s (<m_l m_s> - <m_l><m_s>), the response estimate."""
    cov = moments.second - np.outer(moments.mean, moments.mean)
    if np.max(np.abs(cov)) <= 1e-15:
        raise ZeroVariance("magnetizations carry no fluctuation")
    return cov * moments.sizes[None, :].astype(float)


def invert_cw(moments: EmpiricalMoments) -> InverseEstimate:
    """Single-species estimate of (J, h): the n = 1 case of ``invert_multi``."""
    if moments.mean.shape != (1,):
        raise DimensionMismatch("single-species inversion needs n=1 moments")
    return invert_multi(moments, [1.0])


def invert_multi(moments: EmpiricalMoments, alpha) -> InverseEstimate:
    """Invert the response relation, then the fields; ``alpha`` must fit the block sizes."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != moments.mean.shape:
        raise DimensionMismatch("alpha must have one entry per species")
    _check_fractions(moments.sizes, alpha)
    if np.any(np.abs(moments.mean) >= _SATURATION):
        raise MagnetizationSaturated("a species mean is at the boundary")
    chi = empirical_susceptibility(moments)
    cond = np.linalg.cond(chi)
    if not np.isfinite(cond) or cond > 1e10:
        raise SingularChi(f"susceptibility estimate is singular (cond={cond:.3g})")
    P_inv = np.diag(1.0 / (1.0 - moments.mean ** 2))
    raw = (P_inv - np.linalg.inv(chi)) / alpha[None, :]
    J_hat = 0.5 * (raw + raw.T)
    h_hat = np.arctanh(moments.mean) - J_hat @ (alpha * moments.mean)
    diag = {"saturation_margin": float(1.0 - np.max(np.abs(moments.mean))),
            "chi_condition": float(cond),
            "asymmetry": float(np.max(np.abs(raw - raw.T)))}
    return InverseEstimate(J_hat=J_hat, h_hat=h_hat, chi_hat=chi,
                           diagnostics=diag)


def invert_conditioned(samples: SampleSet, ball_center, radius: float,
                       alpha) -> InverseEstimate:
    """Restrict the sample to a magnetization ball, then invert as usual.

    This is how coexisting phases are handled: conditioning near one maximum restores a
    well-defined mean and variance.  A non-finite center entry, or a nan or negative radius,
    raises ConfigParse; then every row, in the ball or not, meets ``SampleSet.check_rows``.
    The ball mask is built one block of rows at a time, one bool per row, and only the rows
    in the ball are copied and fitted.
    """
    center, radius = _check_ball(ball_center, radius, samples.n, "ball")
    samples.check_rows()
    scale = samples.sizes.astype(float)
    mask = np.empty(samples.sample_count, dtype=bool)
    for rows in samples.row_blocks():
        mask[rows] = np.linalg.norm(samples.sums[rows] / scale - center, axis=1) <= radius
    if mask.sum() < 2:
        raise EmptyCondition("fewer than two sample rows fall in the ball")
    restricted = SampleSet(sizes=samples.sizes, seed=samples.seed,
                           sums=samples.sums[mask])
    return invert_multi(estimate_moments(restricted), alpha)


def _sample_log_likelihood(samples: SampleSet, J: np.ndarray, h: np.ndarray,
                           alpha: np.ndarray) -> float:
    """Exact log-likelihood of the sample rows under any real (J, h), model or not.

    Each block of rows gets the whole-array formula's energies, written into one array of
    M floats, whose single ``sum()`` has the bits of the whole-array sum.
    """
    _check_fractions(samples.sizes, alpha)
    N = float(samples.sizes.sum())
    ln_z = _log_z(J, h, MagLattice(samples.sizes)) + N * LN2
    energies = np.empty(samples.sample_count)
    for rows in samples.row_blocks():
        S = samples.sums[rows].astype(float)
        quad = np.zeros(len(S))
        for i in range(samples.n):      # einsum("bi,ij,bj->b", S, J, S)'s bits from 3 rows on
            for j in range(samples.n):
                quad += S[:, i] * J[i, j] * S[:, j]
        energies[rows] = 0.5 / N * quad + S @ h
    return float(energies.sum() - samples.sample_count * ln_z)


def mle_fit(samples: SampleSet, alpha) -> InverseEstimate:
    """Moment-matching fit plus the exact likelihood it achieves.

    The point estimate is the moment inversion, which is asymptotically
    equivalent (N -> infinity) to maximum likelihood.  The moments hold one float per sum;
    the likelihood then holds one float per row and a block of rows at a time.
    """
    est = invert_multi(estimate_moments(samples), alpha)
    try:
        ll = _sample_log_likelihood(samples, est.J_hat, est.h_hat, alpha)
    except LatticeTooLarge:
        ll = None
    return replace(est, log_likelihood=ll)
