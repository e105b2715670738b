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
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadAlpha,
    BadSizes,
    ConfigParse,
    DegenerateMeasure,
    DimensionMismatch,
    DomainError,
    NonFiniteParameter,
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
    is_binary: bool = field(init=False)    # the symmetric +-1 measure; set in __post_init__

    def __post_init__(self):
        for arr in (self.alpha, self.J, self.h):
            arr.flags.writeable = False
        object.__setattr__(self, "is_binary", self.site_measure.is_symmetric_binary())

    @property
    def support_range(self) -> tuple[float, float]:
        locs = self.site_measure.locations
        return float(locs.min()), float(locs.max())

    def coupling_core(self) -> np.ndarray:
        """D_alpha J D_alpha, with D_alpha = diag(sqrt(alpha))."""
        d = np.sqrt(self.alpha)
        return d[:, None] * self.J * d[None, :]

    def row_couplings(self) -> tuple[np.ndarray, np.ndarray]:
        """B = J diag(alpha) and h: the fields are u = B x + h."""
        return self.J * self.alpha[None, :], self.h

    def species_sizes(self, total: int) -> np.ndarray:
        """Split ``total`` spins into species blocks N*alpha, which must pass ``check_sizes``;
        BadSizes for N outside [1, 2^63) or a split that is not exact."""
        if not 1 <= total < 2 ** 63:
            raise BadSizes(f"N={total} must be an integer in [1, 2^63)")
        raw = self.alpha * total
        sizes = np.rint(raw)
        if np.any(np.abs(raw - sizes) > 1e-9):
            raise BadSizes(f"N={total} does not split as N*alpha into integers")
        return self.check_sizes(sizes)

    def check_sizes(self, sizes) -> np.ndarray:
        """``sizes`` as a fresh int64 array: positive integers in proportion alpha.

        Integral floats are accepted; any other value raises BadSizes, never
        a silent truncation.
        """
        try:
            raw = np.array(sizes)
        except ValueError as exc:
            raise DimensionMismatch(f"expected {self.n} species sizes") from exc
        if raw.shape != (self.n,):
            raise DimensionMismatch(f"expected {self.n} species sizes")
        kind = raw.dtype.kind
        if not (kind in "iu" or kind == "f" and np.all(
                (raw == np.trunc(raw)) & (np.abs(raw) < 2.0 ** 63))):
            raise BadSizes(f"species sizes must be integers below 2^63, got {raw.tolist()}")
        sizes = raw.astype(np.int64)
        _check_fractions(sizes, self.alpha)
        return sizes

    def check_point(self, x, what: str, rows: bool = False) -> np.ndarray:
        """``x`` as a float array with one finite entry per species, with ``rows`` also a (P, n)
        batch of them; DimensionMismatch for another shape, DomainError for nan or inf."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in ((1, 2) if rows else (1,)) or x.shape[-1] != self.n:
            raise DimensionMismatch(f"{what} must be a point or rows of {self.n} entries" if rows
                                    else f"{what} must have one entry per species")
        if not np.all(np.isfinite(x)):
            raise DomainError(f"{what} must be finite" + (f", got {x.tolist()}" if x.ndim == 1
                                                          else " in every row"))
        return x


def _table(axes: list[np.ndarray]) -> np.ndarray:
    """The product of per-axis vectors as a (points, n) table, C order: the one lattice layout,
    filled from numpy's open mesh (``np.ix_``, which would read a boolean axis as a mask)."""
    table = np.empty(tuple(len(a) for a in axes) + (len(axes),), dtype=np.result_type(*axes))
    for l, a in enumerate(np.ix_(*axes)):
        table[..., l] = a
    return table.reshape(-1, len(axes))


def _check_fractions(sizes: np.ndarray, alpha) -> None:
    """BadSizes unless ``sizes`` holds one block >= 1 per species, in proportion ``alpha``."""
    if np.shape(alpha) != sizes.shape or np.any(sizes < 1) \
            or not np.all(np.abs(sizes / sizes.sum() - alpha) <= ATOL):     # nan fails
        raise BadSizes(f"block sizes {sizes.tolist()} must be positive and "
                       "proportional to the species fractions")


def _check_ball(center, radius: float, n: int, what: str) -> tuple[np.ndarray, float]:
    """A conditioning ball: n finite center entries and a radius >= 0, inf included.

    A center of another length raises DimensionMismatch; a non-finite center
    entry, or a nan or negative radius, raises ConfigParse.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (n,):
        raise DimensionMismatch(f"{what} center must have one entry per species")
    if not (np.all(np.isfinite(center)) and radius >= 0):
        raise ConfigParse(f"{what} needs a finite center and a radius >= 0, "
                          f"got {center.tolist()} and {radius!r}")
    return center, radius


def validate_model(spec: ModelSpec) -> ValidatedModel:
    """Check all structural invariants of a model specification."""
    n, shapes = spec.n, "alpha, h must have length n and J shape (n, n)"
    try:
        alpha, J, h = (np.asarray(a, dtype=float) for a in (spec.alpha, spec.J, spec.h))
    except ValueError as exc:   # a ragged J, alpha or h
        raise DimensionMismatch(shapes) from exc
    if alpha.shape != (n,) or h.shape != (n,) or J.shape != (n, n):
        raise DimensionMismatch(shapes)
    if not all(np.all(np.isfinite(a)) for a in (alpha, J, h)):
        raise NonFiniteParameter("alpha, J and h must be finite")
    if np.any(alpha <= 0):
        raise BadAlpha("species fractions must be positive")
    if abs(alpha.sum() - 1.0) > ATOL:
        raise BadAlpha(f"species fractions sum to {alpha.sum()!r}, not 1")
    if np.max(np.abs(J - J.T)) > ATOL:
        raise NonSymmetricJ("coupling matrix must be symmetric")
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
    am = model.alpha * model.check_point(m, "magnetization vector")
    return float(0.5 * am @ model.J @ am + model.h @ am)


# --- model JSON document ------------------------------------------------

def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigParse(f'config needs a "{key}" key')
    return doc[key]


def _integer(value, what: str, least: int) -> int:
    """An integer, not a bool, >= least; anything else is a config error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < least:
        raise ConfigParse(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """A JSON number as a float; anything else is a config error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigParse(f"{what} must be a number, got {value!r}")
    return float(value)


def _list(doc: dict, key: str) -> list:
    value = _require(doc, key)
    if not isinstance(value, list):
        raise ConfigParse(f'"{key}" must be a list')
    return value


def _numbers(value, what: str) -> tuple[float, ...]:
    """A JSON list of numbers as floats; anything else is a config error."""
    if not isinstance(value, list):
        raise ConfigParse(f"{what} must be a list, got {value!r}")
    return tuple(_number(v, f"{what} entry") for v in value)


def model_from_dict(doc: dict) -> ModelSpec:
    """Parse the model configuration document; ill-typed entries raise ConfigParse.

    Schema: ``{"n": int, "alpha": [...], "J": [[...]], "h": [...],
    "measure": {"atoms": [[loc, weight], ...]}}`` where ``measure`` is
    optional and defaults to the symmetric +-1 measure.
    """
    if not isinstance(doc, dict):
        raise ConfigParse("model document must be a JSON object")
    measure = FiniteMeasure.symmetric_binary()
    if "measure" in doc:
        if not isinstance(doc["measure"], dict):
            raise ConfigParse('"measure" must be an object')
        atoms = tuple(_numbers(a, "measure atom") for a in _list(doc["measure"], "atoms"))
        if any(len(a) != 2 for a in atoms):
            raise ConfigParse("measure atoms must be [location, weight] pairs")
        measure = FiniteMeasure(atoms=atoms)
    return ModelSpec(n=_integer(_require(doc, "n"), "n", 1),
                     alpha=_numbers(_require(doc, "alpha"), "alpha"),
                     J=tuple(_numbers(row, "J row") for row in _list(doc, "J")),
                     h=_numbers(_require(doc, "h"), "h"), site_measure=measure)


def model_from_json(text: str) -> ModelSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParse(f"invalid JSON: {exc}") from exc
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
