"""Shared fixtures: reference models and independent oracles.

Frozen constants were produced with 50-digit mpmath arithmetic and
bisection (see the inline notes); they are oracle values, not outputs of
the code under test.
"""

import itertools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from meanfield_lab import ModelSpec, validate_model
from meanfield_lab.errors import BadSizes, DegenerateMeasure, DimensionMismatch
from meanfield_lab.model import ATOL, ValidatedModel, _require_validated

# Child interpreters (the CLI entry-point test) import the package from
# src/ as well, as pyproject's pytest ``pythonpath`` does for this process.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

# mpmath, 50 digits: 0.5*((1.5)ln(1.5) + (0.5)ln(0.5))
I_HALF = 0.13081203594113696

# mpmath, 50 digits, at alpha=(1/2,1/2), J=[[1,.5],[.5,1]], h=(0.2,-0.1), x=(0.3,-0.2)
FBAR_REF2_POINT = 0.015831972461999138
F_REF2_POINT = 0.017316504622419285
MAP_REF2_POINT = (0.29131261245159091, -0.12435300177159621)

# bisection of mu - tanh(J mu) on (0, 1), 200 halvings at 50 digits
MU0_J12 = 0.6585696604057540
P_LIMIT_J12 = 0.024099613346311573
CHI_J12 = 1.7671212078121626
LAMBDA_J12 = -0.3845481565540083
MU0_J1001 = 0.05472301031784596

# bisection of mu - tanh(0.8 mu + 0.3)
MU_H_08_03 = 0.6936176191330156
LAMBDA_08_03 = -0.4679074570059220


# Two models whose direct ascent on f meets a Hessian with non-finite
# entries: numpy's eigh fails on the first at grid_points 5 ("Eigenvalues
# did not converge"), and the second still solves with method_agreement 0.
EIGH_FAILS = {"n": 3, "alpha": [0.3, 0.3, 0.4], "h": [1e-8, 0.0, 0.0],
              "J": [[1.0143741329559512e308, 0.594925562056653, 146505832.0242543],
                    [0.594925562056653, 3.7878092548194933, -6508281104869122.0],
                    [146505832.0242543, -6508281104869122.0, 1.715944508297891e200]]}
HESSIAN_INF = {"n": 1, "alpha": [1.0], "J": [[5.585478984440906e307]],
               "h": [1.4900354672381095]}


def make_cw(J, h, measure=None):
    """Single-species model with the default +-1 spins."""
    kwargs = {} if measure is None else {"site_measure": measure}
    return validate_model(ModelSpec(n=1, alpha=(1.0,), J=((float(J),),),
                                    h=(float(h),), **kwargs))


def make_ref2():
    """Two-species reference model used throughout the suite."""
    return validate_model(ModelSpec(n=2, alpha=(0.5, 0.5),
                                    J=((1.0, 0.5), (0.5, 1.0)),
                                    h=(0.2, -0.1)))


@pytest.fixture
def cw_factory():
    return make_cw


@pytest.fixture
def ref2():
    return make_ref2()


def bisect_root(g, lo, hi, iters=200):
    """Plain bisection; the oracle root finder used against the solver."""
    glo = g(lo)
    assert glo * g(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) * glo <= 0:
            hi = mid
        else:
            lo = mid
            glo = g(lo)
    return 0.5 * (lo + hi)


def susceptibility_finite_differences(model, step=1e-6):
    """Oracle: central finite differences of the solved equilibrium in h."""
    from meanfield_lab import ModelSpec, pressure_limit, solve_fixed_points

    res = pressure_limit(model)
    assert len(res.maxima) == 1
    base = res.maxima[0].point.x
    n = model.n
    chi = np.empty((n, n))
    for s in range(n):
        h_plus, h_minus = model.h.copy(), model.h.copy()
        h_plus[s] += step
        h_minus[s] -= step
        mp = validate_model(ModelSpec(n=n, alpha=tuple(model.alpha),
                                      J=tuple(map(tuple, model.J)),
                                      h=tuple(h_plus)))
        mm = validate_model(ModelSpec(n=n, alpha=tuple(model.alpha),
                                      J=tuple(map(tuple, model.J)),
                                      h=tuple(h_minus)))
        mu_p = min(solve_fixed_points(mp), key=lambda p: np.linalg.norm(p.x - base))
        mu_m = min(solve_fixed_points(mm), key=lambda p: np.linalg.norm(p.x - base))
        chi[:, s] = (mu_p.x - mu_m.x) / (2.0 * step)
    return chi


def brute_force_log_partition(model, sizes):
    """ln Z by summation over all 2^N configurations (N <= ~20)."""
    sizes = np.asarray(sizes, dtype=int)
    N = int(sizes.sum())
    species = np.repeat(np.arange(len(sizes)), sizes)
    total = 0.0
    for spins in itertools.product((-1.0, 1.0), repeat=N):
        spins = np.asarray(spins)
        energy = 0.0
        for i in range(N):
            for j in range(N):
                energy += model.J[species[i], species[j]] * spins[i] * spins[j]
        energy = energy / (2.0 * N) + float(model.h[species] @ spins)
        total += np.exp(energy)
    return float(np.log(total) - N * np.log(2.0))


def brute_force_hamiltonian(model, config):
    """-H: direct double sum with the block-constant coupling matrix."""
    species = np.repeat(np.arange(len(config.partition)), config.partition)
    spins = config.spins
    N = len(spins)
    acc = 0.0
    for i in range(N):
        for j in range(N):
            acc += model.J[species[i], species[j]] * spins[i] * spins[j]
    return acc / (2.0 * N) + float(model.h[species] @ spins)


# Configuration-level helpers: explicit spins for the brute-force oracles above.
@dataclass(frozen=True)
class Configuration:
    """Explicit spin assignment with contiguous species blocks.

    The first ``partition[0]`` spins belong to species 1, the next block
    to species 2, and so on.
    """

    spins: np.ndarray
    partition: np.ndarray

    def __post_init__(self):
        if int(np.sum(self.partition)) != len(self.spins):
            raise DimensionMismatch("partition does not sum to the spin count")
        if np.any(np.asarray(self.partition) < 1):
            raise BadSizes("partition blocks must be positive")


def check_configuration(model: ValidatedModel, config: Configuration):
    """Verify a configuration against a model.

    Every spin must sit on a support point of the single-spin measure and
    the block sizes must match the species fractions to within rounding.
    """
    model = _require_validated(model)
    locs = model.site_measure.locations
    dist = np.min(np.abs(config.spins[:, None] - locs[None, :]), axis=1)
    if np.any(dist > ATOL):
        raise DegenerateMeasure("configuration contains off-support spin values")
    total = int(np.sum(config.partition))
    frac = np.asarray(config.partition) / total
    if np.any(np.abs(frac - model.alpha) > 1.0 / total + ATOL):
        raise BadSizes("partition does not match the species fractions")


def magnetization(config: Configuration) -> np.ndarray:
    """Per-species average spin of a configuration."""
    out = np.empty(len(config.partition))
    start = 0
    for l, size in enumerate(config.partition):
        block = config.spins[start:start + size]
        out[l] = block.mean()
        start += size
    return out


def materialize_configuration(model: ValidatedModel, sizes, sums) -> Configuration:
    """Build an explicit +-1 configuration with the given per-species sums.

    Deterministic (leading spins up); intended only for brute-force
    cross-checks where the exact arrangement within a block is irrelevant.
    """
    model = _require_validated(model)
    sizes = model.check_sizes(sizes)
    sums = np.asarray(sums, dtype=np.int64)
    spins = []
    for size, s in zip(sizes, sums):
        if (size + s) % 2 != 0 or not -size <= s <= size:
            raise BadSizes(f"sum {s} unreachable with {size} binary spins")
        ups = (size + s) // 2
        spins.append(np.concatenate([np.ones(ups), -np.ones(size - ups)]))
    return Configuration(spins=np.concatenate(spins), partition=sizes)
