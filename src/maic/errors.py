"""Exception hierarchy shared across the package."""


class MaicError(Exception):
    """Base class for all errors raised by this package."""


def capture(fn, *args):
    """fn(*args), or the MaicError it raised: one replicate's outcome in a
    block of replicates, where one failure must not stop the others."""
    try:
        return fn(*args)
    except MaicError as e:
        return e


def succeeded(outcomes) -> list[int]:
    """Positions of the outcomes that are not captured errors."""
    return [b for b, out in enumerate(outcomes) if not isinstance(out, MaicError)]


def unwrap(outcome):
    """The value of a captured outcome; re-raises a captured MaicError."""
    if isinstance(outcome, MaicError):
        raise outcome
    return outcome


# --- data ingestion ---------------------------------------------------------

class MissingColumn(MaicError):
    pass


class NonNumericValue(MaicError):
    pass


class InvalidArmCode(MaicError):
    pass


class EmptyStudy(MaicError):
    pass


class SchemaError(MaicError):
    pass


class NegativeVariance(MaicError):
    pass


class DimensionMismatch(MaicError):
    pass


class MissingVariance(MaicError):
    pass


# --- weighting --------------------------------------------------------------

class NonConvergence(MaicError):
    """Weight solver failed; usually the target lies outside the convex hull
    of the IPD moments (a positivity/overlap failure)."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateCovariate(MaicError):
    pass


class EmptyWeights(MaicError):
    pass


# --- estimation -------------------------------------------------------------

class BoundaryProportion(MaicError):
    pass


class NoComparatorArm(MaicError):
    pass


class MissingWeightModel(MaicError):
    """A MAIC method or the null check was run without a fitted weight model."""


class SeparationError(MaicError):
    pass


class SingularDesign(MaicError):
    pass


# --- variance ---------------------------------------------------------------

class SingularJacobian(MaicError):
    pass


class MissingAgdVariance(MaicError):
    pass


class RequiresFullIpd(MaicError):
    pass


# --- inference --------------------------------------------------------------

class InvalidLevel(MaicError):
    pass


class ZeroSe(MaicError):
    pass


class NonFiniteResult(MaicError):
    """A result to be written holds NaN or an infinity, which JSON cannot carry."""


# --- command line -----------------------------------------------------------

class InvalidChoice(MaicError):
    """A command-line value outside the set the flag accepts."""


# --- simulation -------------------------------------------------------------

class InsufficientCell(MaicError):
    pass
