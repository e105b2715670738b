"""Model definition: species layout, couplings, fields, single-spin measure.

A model is built from a :class:`ModelSpec` and passed through
:func:`validate_model`, which checks every structural invariant and
returns an immutable :class:`ValidatedModel`.  All other modules accept
only validated models.

Conventions: the inverse temperature is folded into ``J`` and ``h``; the
energy per spin is expressed through the quadratic form

    g(m) = 1/2 sum_ls alpha_l alpha_s J_ls m_l m_s + sum_l alpha_l h_l m_l

so that the total energy of a configuration is ``-N * g(m)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadAlpha,
    BadSizes,
    ConfigParse,
    DegenerateMeasure,
    DimensionMismatch,
    NonFiniteParameter,
    NonPositiveDiagonal,
    NonSymmetricJ,
)

ATOL = 1e-12


@dataclass(frozen=True)
class FiniteMeasure:
    """Finite discrete probability measure: list of (location, weight) atoms."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.atoms) < 2:
            raise DegenerateMeasure("measure needs at least 2 support points")
        locs = [a[0] for a in self.atoms]
        weights = [a[1] for a in self.atoms]
        if not np.all(np.isfinite(locs + weights)):
            raise NonFiniteParameter("measure atoms must be finite")
        if any(w <= 0 for w in weights):
            raise DegenerateMeasure("atom weights must be positive")
        if abs(sum(weights) - 1.0) > ATOL:
            raise DegenerateMeasure("atom weights must sum to 1")
        if len(set(locs)) != len(locs):
            raise DegenerateMeasure("atom locations must be distinct")

    @staticmethod
    def symmetric_binary() -> "FiniteMeasure":
        """The default single-spin distribution: +-1 with weight 1/2 each."""
        return FiniteMeasure(atoms=((-1.0, 0.5), (1.0, 0.5)))

    @property
    def locations(self) -> np.ndarray:
        return np.array([a[0] for a in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([a[1] for a in self.atoms])

    def is_symmetric_binary(self) -> bool:
        if len(self.atoms) != 2:
            return False
        pts = sorted(self.atoms)
        return (
            abs(pts[0][0] + 1.0) <= ATOL
            and abs(pts[1][0] - 1.0) <= ATOL
            and abs(pts[0][1] - 0.5) <= ATOL
            and abs(pts[1][1] - 0.5) <= ATOL
        )


@dataclass(frozen=True)
class ModelSpec:
    """Raw model parameters prior to validation."""

    n: int
    alpha: tuple[float, ...]
    J: tuple[tuple[float, ...], ...]
    h: tuple[float, ...]
    site_measure: FiniteMeasure = field(default_factory=FiniteMeasure.symmetric_binary)


@dataclass(frozen=True)
class ValidatedModel:
    """A model whose invariants have been checked.

    Arrays are stored read-only; every downstream operation is pure, so
    instances are safe to share across threads.
    """

    n: int
    alpha: np.ndarray
    J: np.ndarray
    h: np.ndarray
    site_measure: FiniteMeasure

    def __post_init__(self):
        for arr in (self.alpha, self.J, self.h):
            arr.flags.writeable = False

    @property
    def is_binary(self) -> bool:
        return self.site_measure.is_symmetric_binary()

    @property
    def support_range(self) -> tuple[float, float]:
        locs = self.site_measure.locations
        return float(locs.min()), float(locs.max())

    def coupling_core(self) -> np.ndarray:
        """D_alpha J D_alpha, with D_alpha = diag(sqrt(alpha))."""
        d = np.sqrt(self.alpha)
        return d[:, None] * self.J * d[None, :]

    def species_sizes(self, total: int) -> np.ndarray:
        """Split ``total`` spins into species blocks; errors unless exact."""
        raw = self.alpha * total
        sizes = np.rint(raw)
        if np.any(np.abs(raw - sizes) > 1e-9):
            raise BadSizes(f"N={total} does not split as N*alpha into integers")
        return sizes.astype(np.int64)

    def check_sizes(self, sizes) -> np.ndarray:
        sizes = np.array(sizes, dtype=np.int64)     # a fresh copy: callers keep theirs
        if sizes.shape != (self.n,):
            raise DimensionMismatch(f"expected {self.n} species sizes")
        if np.any(sizes < 1):
            raise BadSizes("species sizes must be positive")
        total = int(sizes.sum())
        if np.any(np.abs(sizes / total - self.alpha) > 1e-12):
            raise BadSizes("sizes are not proportional to the species fractions")
        return sizes


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


def validate_model(spec: ModelSpec) -> ValidatedModel:
    """Check all structural invariants of a model specification."""
    alpha = np.asarray(spec.alpha, dtype=float)
    J = np.asarray(spec.J, dtype=float)
    h = np.asarray(spec.h, dtype=float)
    n = spec.n
    if alpha.shape != (n,) or h.shape != (n,) or J.shape != (n, n):
        raise DimensionMismatch("alpha, h must have length n and J shape (n, n)")
    if not all(np.all(np.isfinite(a)) for a in (alpha, J, h)):
        raise NonFiniteParameter("alpha, J and h must be finite")
    if np.any(alpha <= 0):
        raise BadAlpha("species fractions must be positive")
    if abs(alpha.sum() - 1.0) > ATOL:
        raise BadAlpha(f"species fractions sum to {alpha.sum()!r}, not 1")
    if np.max(np.abs(J - J.T)) > ATOL:
        raise NonSymmetricJ("coupling matrix must be symmetric")
    if np.any(np.diag(J) <= 0):
        raise NonPositiveDiagonal("diagonal couplings must be positive")
    # FiniteMeasure already rejects degenerate measures on construction.
    return ValidatedModel(n=n, alpha=alpha.copy(), J=J.copy(), h=h.copy(),
                          site_measure=spec.site_measure)


def _require_validated(model) -> ValidatedModel:
    if not isinstance(model, ValidatedModel):
        raise TypeError("operation requires a ValidatedModel; call validate_model first")
    return model


def hamiltonian_density(model: ValidatedModel, m) -> float:
    """Energy density g(m); the configuration energy is -N * g(m)."""
    model = _require_validated(model)
    m = np.asarray(m, dtype=float)
    if m.shape != (model.n,):
        raise DimensionMismatch(f"magnetization vector must have length {model.n}")
    am = model.alpha * m
    return float(0.5 * am @ model.J @ am + model.h @ am)


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


# --- model JSON document ------------------------------------------------

def model_from_dict(doc: dict) -> ModelSpec:
    """Parse the model configuration document.

    Schema: ``{"n": int, "alpha": [...], "J": [[...]], "h": [...],
    "measure": {"atoms": [[loc, weight], ...]}}`` where ``measure`` is
    optional and defaults to the symmetric +-1 measure.
    """
    try:
        n = int(doc["n"])
        alpha = tuple(float(a) for a in doc["alpha"])
        J = tuple(tuple(float(v) for v in row) for row in doc["J"])
        h = tuple(float(v) for v in doc["h"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigParse(f"bad model document: {exc}") from exc
    if "measure" in doc:
        try:
            atoms = tuple((float(loc), float(w)) for loc, w in doc["measure"]["atoms"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigParse(f"bad measure document: {exc}") from exc
        measure = FiniteMeasure(atoms=atoms)
    else:
        measure = FiniteMeasure.symmetric_binary()
    return ModelSpec(n=n, alpha=alpha, J=J, h=h, site_measure=measure)


def model_from_json(text: str) -> ModelSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParse(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigParse("model document must be a JSON object")
    return model_from_dict(doc)


def model_to_dict(model: ValidatedModel | ModelSpec) -> dict:
    return {
        "n": int(model.n),
        "alpha": [float(a) for a in model.alpha],
        "J": [[float(v) for v in row] for row in np.asarray(model.J)],
        "h": [float(v) for v in model.h],
        "measure": {"atoms": [[float(loc), float(w)] for loc, w in
                              model.site_measure.atoms]},
    }
