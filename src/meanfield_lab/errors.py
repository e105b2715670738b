"""Exception hierarchy shared by all modules.

Three base classes matter for the CLI exit-code mapping: ``ConfigError``
(bad input documents), ``PreconditionError`` (numeric preconditions not
met) and ``IoError`` (filesystem problems).  Everything else is internal.
"""


class MeanFieldError(Exception):
    """Base class for all library errors."""


class ConfigError(MeanFieldError):
    """A configuration document failed to parse or validate."""


class PreconditionError(MeanFieldError):
    """A numeric precondition of an operation does not hold."""


class IoError(MeanFieldError):
    """A file could not be read or written."""


# --- model validation -------------------------------------------------

class NonSymmetricJ(ConfigError):
    pass


class BadAlpha(ConfigError):
    pass


class DegenerateMeasure(ConfigError):
    pass


class NonPositiveDiagonal(ConfigError):
    pass


class NonFiniteParameter(ConfigError):
    """A model parameter or measure atom is NaN or infinite."""


class DimensionMismatch(PreconditionError):
    pass


class BadSizes(PreconditionError):
    """Species sizes are inconsistent with the model's relative sizes."""


class UnsupportedMeasure(PreconditionError):
    """Operation requires the symmetric two-point measure on {-1, +1}."""


# --- forward solver ----------------------------------------------------

class DomainError(PreconditionError):
    pass


class NoConvergence(PreconditionError):
    pass


class NotAMaximum(PreconditionError):
    pass


class UnsupportedDegeneracy(PreconditionError):
    """Degenerate maximum outside the homogeneous cases handled here."""


# --- exact engine ------------------------------------------------------

class OffLattice(PreconditionError):
    pass


class LatticeTooLarge(PreconditionError):
    pass


class EmptyCondition(PreconditionError):
    pass


# --- limit laws --------------------------------------------------------

class DegenerateMaximum(PreconditionError):
    pass


class SingularSystem(PreconditionError):
    pass


class NotK1(PreconditionError):
    pass


class NotPositiveDefiniteResult(PreconditionError):
    pass


class MixedTypes(PreconditionError):
    pass


class NonUniqueMaximum(PreconditionError):
    pass


class Unnormalized(PreconditionError):
    pass


# --- inverse problem ---------------------------------------------------

class EmptySample(PreconditionError):
    pass


class InconsistentRows(PreconditionError):
    pass


class ZeroVariance(PreconditionError):
    pass


class MagnetizationSaturated(PreconditionError):
    pass


class SingularChi(PreconditionError):
    pass


class ConfigParse(ConfigError):
    pass
